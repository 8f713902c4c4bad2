import warnings

import numpy as np
import pytest

from mucert import (
    AxMinusCPhi,
    Entrywise,
    FiringRate,
    Hopfield,
    Lure,
    MultiLure,
    Persidskii,
    ReducibleMatrixError,
    SlopeInterval,
    certify,
    certify_hopfield_mh,
    eigenvalues,
    is_irreducible,
    metzler_majorant,
    mu1,
    muinf,
    multilure_coupling_bound,
    perron_pair,
    perron_weights,
    spectral_abscissa,
)
from mucert import classify, mh_lds_witness, networks, optimize, spectral
from mucert.matrices import strong_blocks
from mucert.optimize import RESOLVENT_SHIFT

from helpers import (
    SKEW_RING,
    STABLE_POS_DIAG,
    ROTATION_SHIFT,
    near_tie_metzler,
    random_irreducible_metzler,
    random_matrix,
    random_metzler,
    random_mh_matrix,
)


def test_eigenvalues_known_spectra():
    lam = eigenvalues(ROTATION_SHIFT)
    np.testing.assert_allclose(sorted(lam.imag), [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(lam.real, [1.0, 1.0], atol=1e-12)
    lam = eigenvalues(metzler_majorant(ROTATION_SHIFT))
    np.testing.assert_allclose(sorted(lam.real), [0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(lam.imag, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(eigenvalues(np.eye(4)), np.ones(4), atol=1e-12)


def test_eigenvalue_residual_contract():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        A = random_matrix(rng, n, scale=rng.uniform(0.5, 5.0))
        lam, V = np.linalg.eig(A)
        scale = np.linalg.norm(A)
        for k in range(n):
            res = np.linalg.norm(A @ V[:, k] - lam[k] * V[:, k])
            assert res <= 1e-10 * max(scale, 1.0)
        got = np.sort_complex(eigenvalues(A))
        np.testing.assert_allclose(got, np.sort_complex(lam), atol=1e-9 * max(scale, 1.0))


def test_spectral_abscissa_known_values():
    assert spectral_abscissa(STABLE_POS_DIAG) == pytest.approx(-1.0, abs=1e-9)
    assert spectral_abscissa(-np.eye(3)) == pytest.approx(-1.0, abs=1e-12)
    pruned = SKEW_RING.copy()
    pruned[2, 1] = 0.0
    # The 4-digit reference value belongs to the -I-shifted pruned matrix;
    # the unshifted abscissa sits exactly 1 above it.
    assert spectral_abscissa(-np.eye(3) + pruned) == pytest.approx(1.1971, abs=1e-3)
    assert spectral_abscissa(pruned) == pytest.approx(2.1971, abs=1e-3)


def _perron_certificates(rng, M):
    """(certificate, its abscissa detail, the Metzler matrix T behind it, f)
    for every Perron-route certificate, each built so that T has the zero
    pattern of the Metzler matrix M.  f is the certified bound as an
    increasing function of the weighted log norm of T at the carried
    weights (for an unbounded-slope certificate, while it contracts)."""
    n = M.shape[0]
    A = M * np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    np.fill_diagonal(A, np.diag(M))
    C = np.diag(rng.uniform(0.5, 1.5, size=n))
    entrywise = Entrywise(A, SlopeInterval(0.5, 1.5))
    multilure = MultiLure(A, 0.3 * np.eye(n), 0.5 * np.eye(n), SlopeInterval(0.0, 1.0))
    unbounded = SlopeInterval(0.5, np.inf)
    leak = float(np.max(-np.diag(C)))
    identity = lambda m: m
    return [
        (certify(Persidskii(A, SlopeInterval(0.5, 1.0))), "alpha_majorant", M,
         lambda m: max(0.5 * m, 1.0 * m)),
        (certify(AxMinusCPhi(A, C, SlopeInterval(0.4, 1.0))),
         "alpha_shifted_majorant", M - 0.4 * C, identity),
        (certify(entrywise), "alpha_envelope", metzler_majorant(np.maximum(*entrywise.witnesses("l1"))),
         identity),
        (certify(multilure), "alpha_coupling",
         metzler_majorant(multilure_coupling_bound(multilure)), identity),
        (certify(Hopfield(C, A, unbounded)), "alpha_majorant", M, lambda m: leak + 0.5 * m),
        (certify(FiringRate(C, A, unbounded)), "alpha_majorant", M, lambda m: leak + 0.5 * m),
        (certify_hopfield_mh(C, A, 0.7), "alpha_shifted_majorant", -C + 0.7 * M,
         lambda m: max(leak, m)),
        (certify(Hopfield(np.eye(n), A, SlopeInterval(0.0, 1.0)), "l1"), "closed_form",
         -np.eye(n) + M, lambda m: max(-1.0, m)),
    ]


def test_metzler_route_matches_dense_route():
    # Each Perron certificate reports the abscissa of its Metzler matrix T.
    # Irreducible T: read off its Perron pair, within the dense residual
    # contract.  Reducible T: the weights are resolvent weights at the shift
    # above the abscissa, the certificate says so in `delta`, and the detail
    # is the largest of the blocks' dense abscissae.
    rng = np.random.default_rng(3)
    for trial in range(16):
        n = int(rng.integers(2, 9))
        M = random_irreducible_metzler(rng, n)
        reducible = trial % 2 == 1
        if reducible:
            M[n // 2:, : n // 2] = 0.0
        for cert, key, T, _ in _perron_certificates(rng, M):
            assert is_irreducible(T) != reducible
            assert cert.details["delta"] == (RESOLVENT_SHIFT if reducible else 0.0)
            dense = float(np.max(np.linalg.eigvals(T).real))
            scale = 1.0 + float(np.max(np.abs(T)))
            if key == "closed_form":
                dense = max(-1.0, dense)
            if reducible:
                assert cert.details[key] == pytest.approx(dense, abs=1e-12 * scale)
                assert not cert.tight
            else:
                assert cert.details[key] == pytest.approx(dense, abs=1e-9 * scale)


def test_reducible_certificates_bound_between_abscissa_and_shift():
    # On a reducible T the carried weights w solve (bI - T) w = 1 at
    # b = alpha(T) + RESOLVENT_SHIFT, so T w < b w: the weighted log norm m
    # of T at w lies in [alpha(T), alpha(T) + shift], and every Perron
    # tag's osl = f(m) lies in [f(alpha), f(alpha + shift)].
    rng = np.random.default_rng(43)
    checked = set()
    for trial in range(12):
        n = int(rng.integers(2, 20))
        M = random_irreducible_metzler(rng, n)
        M[n // 2:, : n // 2] = 0.0
        M -= (spectral_abscissa(M) + rng.uniform(0.05, 0.5)) * np.eye(n)
        for cert, _, T, f in _perron_certificates(rng, M):
            assert cert.details["delta"] == RESOLVENT_SHIFT and not cert.tight
            alpha = float(np.max(np.linalg.eigvals(T).real))
            tol = 1e-12 * (1.0 + float(np.max(np.abs(T))))
            assert f(alpha) - tol <= cert.osl <= f(alpha + RESOLVENT_SHIFT) + tol, cert.theorem
            checked.add(cert.theorem)
    assert len(checked) == 8


def test_reducible_hopfield_closed_form_stays_within_the_shift():
    # Two nearly tied 128 x 128 blocks coupled one way, the Hopfield closed
    # form with d1 = 0 and C = I: at the resolvent weights the bound exceeds
    # the closed-form level by at most the shift.  A perturbation of the
    # majorant would move its dominant eigenvalue by far more than itself.
    rng = np.random.default_rng(59)
    k = 128
    for trial in range(3):
        B = rng.uniform(0.1, 1.0, size=(k, k))
        np.fill_diagonal(B, 0.0)
        B /= spectral_abscissa(B)
        d = rng.uniform(0.5, 2.0, size=k)
        M = np.zeros((2 * k, 2 * k))
        M[:k, :k] = B
        M[k:, k:] = (1.0 - 1e-9) * (d[:, None] * B) / d[None, :]
        M[:k, k:] = rng.uniform(0.0, 1e-3, size=(k, k))
        A = 0.8 * M * np.where(rng.random(M.shape) < 0.5, -1.0, 1.0)
        cert = certify(Hopfield(np.eye(2 * k), A, SlopeInterval(0.0, 1.0)), "l1")
        assert cert.theorem == "hopfield/l1/perron" and cert.details["delta"] == RESOLVENT_SHIFT
        gap = cert.osl - cert.details["closed_form"]
        assert gap <= RESOLVENT_SHIFT * (1.0 + np.max(np.abs(A))), gap


def test_near_tie_noda_failure_raises_within_power_budget(monkeypatch):
    assert spectral.POWER_MAXITER <= 1000
    # A near tie's power steps sit on a plateau from about step 20, so each
    # vector runs the whole power budget and goes to Noda's iteration.  No
    # dense eigensolve backs it: with no solve left in Noda's budget, the
    # pair raises NumericalError at its first vector, the right one, and so
    # does the left one asked for alone.
    monkeypatch.setattr(spectral, "NODA_MAXITER", 0)
    runs = []
    power = spectral._power_vector
    monkeypatch.setattr(spectral, "_power_vector",
                        lambda B: runs.append((B, *power(B))) or runs[-1][1:])
    rng = np.random.default_rng(8)
    for k in (4, 8):
        M = near_tie_metzler(rng, k)
        N = spectral._shifted(M, 0.0)[0]
        for ask, B in ((lambda: perron_pair(M), N), (lambda: spectral._perron(M, 0.0, (1,)), N.T)):
            runs.clear()
            with pytest.raises(spectral.NumericalError,
                               match="Noda iteration failed after 0 solves"):
                ask()
            (stepped, _, steps, converged), = runs
            assert np.array_equal(stepped, B) and stepped.flags.c_contiguous == (B is N)
            assert steps == spectral.POWER_MAXITER and not converged

    # A well-separated input converges by power iteration alone.
    pair = perron_pair(random_irreducible_metzler(rng, 16))
    assert pair.dense == (False, False)
    assert all(0 < steps < spectral.POWER_MAXITER for steps in pair.steps)


def _slow_sparse_inputs():
    """Two slow convergers among the bit-identity test's inputs, both beyond
    the power budget: a sparse ring at about 0.9 per step, whose power steps
    would converge at 254 and 257, and a perturbed sparse n = 16 input whose
    steps stay near 3e-2 for 18 steps and would converge at 154; it is
    reducible, so it now takes the secular pair.  Returns [(M, delta)] for
    both."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 16, 64, 256):
        random_irreducible_metzler(rng, n)
    M = random_metzler(rng, 16, density=0.2)
    M[M == 0.0] = -0.0
    ring = M.copy()
    ring[np.arange(16), np.roll(np.arange(16), 1)] = 0.5
    return [(ring, 0.0), (M, spectral.DEFAULT_DELTA)]


def _near_tie_persidskii_coupling():
    """The coupling of the near-tied Persidskii model in the CI smoke test:
    two diagonally similar 4 x 4 blocks, diagonal -3, coupled by 1e-9."""
    B = np.array([[0.0, 0.6, 0.3, 0.8], [0.5, 0.0, 0.9, 0.2],
                  [0.7, 0.4, 0.0, 0.6], [0.3, 0.8, 0.5, 0.0]])
    d = np.array([1.0, 1.5, 0.6, 1.2])
    A = np.full((8, 8), 1e-9)
    A[:4, :4] = B
    A[4:, 4:] = d[:, None] * B / d[None, :]
    np.fill_diagonal(A, -3.0)
    return A


def test_near_ties_and_slow_convergers_take_no_dense_eigensolve(monkeypatch):
    # Inputs that do not converge within the power budget are finished by
    # Noda's iteration, which separates a near tie in a few solves, and the
    # perturbed reducible input takes the secular pair: no dense eigensolve,
    # and the abscissa within 1e-12 of the dense oracle's.
    eig_calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda A: eig_calls.append(A.shape) or eig(A))
    rng = np.random.default_rng(29)
    inputs = [(near_tie_metzler(rng, k), 0.0) for k in (4, 8, 32, 128)]
    for M, delta in inputs + _slow_sparse_inputs():
        pair = perron_pair(M, delta)
        budget = spectral.POWER_MAXITER if pair.irreducible else 0
        assert pair.steps == (budget, budget) and pair.irreducible == (delta == 0.0)
        assert pair.dense == (False, False)
        assert np.all(pair.right > 0) and np.all(pair.left > 0)
        P = M + delta
        want = float(np.max(np.linalg.eigvals(P).real))
        assert pair.alpha == pytest.approx(want, abs=1e-12 * (1.0 + np.max(np.abs(P))))

    A = _near_tie_persidskii_coupling()
    cert = certify(Persidskii(A, SlopeInterval(0.5, 1.0)))
    want = float(np.max(np.linalg.eigvals(A).real))
    assert cert.details["alpha_majorant"] == pytest.approx(want, abs=1e-12 * (1.0 + np.max(np.abs(A))))
    assert eig_calls == []


def test_reducible_certificates_take_no_dense_eigensolve(monkeypatch):
    # A reducible Metzler matrix takes resolvent weights, solved block by
    # block above the largest of its blocks' Perron abscissae, and no Perron
    # vector of a delta perturbation: no certificate of a Perron tag calls
    # the dense eigensolver on one.  The inputs are the sweep's
    # delta-perturbed reducible matrices, among them the five (n = 4 to 15)
    # whose perturbed Perron vectors Noda's iteration cannot finish.
    reducible = [M for M, delta, _ in _sweep_cases() if delta > 0.0 and not is_irreducible(M)]
    assert len(reducible) >= 40
    eig_calls = []
    for name in ("eig", "eigvals"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda A, solver=solver: eig_calls.append(A.shape) or solver(A))
    rng = np.random.default_rng(41)
    for M in reducible:
        for cert, *_ in _perron_certificates(rng, M):
            assert cert.details["delta"] == RESOLVENT_SHIFT, cert.theorem
    assert eig_calls == []


def _spy_couplings(rng, n):
    """Signed couplings at n: dense, sparse (5 % nonzeros) and reducible
    (block upper triangular), each with a Metzler majorant of dense
    abscissa -0.2."""
    dense = rng.uniform(0.0, 1.0, size=(n, n))
    sparse = dense * (rng.random((n, n)) < 0.05)
    reducible = dense.copy()
    reducible[n // 2:, : n // 2] = 0.0
    couplings = []
    for G in (dense, sparse, reducible):
        G = G * np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
        np.fill_diagonal(G, -rng.uniform(0.0, 0.5, size=n))
        couplings.append(G - (spectral_abscissa(metzler_majorant(G)) + 0.2) * np.eye(n))
    return couplings


def test_certify_routes_take_no_dense_eigensolve(monkeypatch):
    # Every model tag at n = 64 on dense, sparse and reducible couplings,
    # a d1 < 0 model on a reducible coupling (the weight-lp route through
    # reducible selections), and perron_pair on delta-perturbed reducible
    # input: none calls the dense eigensolver.
    n = 64
    rng = np.random.default_rng(61)
    C = np.diag(rng.uniform(0.8, 1.2, size=n))
    couplings = _spy_couplings(rng, n)
    b, c = rng.normal(scale=0.1, size=n), rng.normal(scale=0.1, size=n)
    B, Cm = rng.normal(scale=0.1, size=(n, 2)), rng.normal(scale=0.1, size=(2, n))
    M = metzler_majorant(couplings[2])
    dense_calls, reducible_selections = [], []
    for name in ("eig", "eigvals"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda A, solver=solver: dense_calls.append(A.shape) or solver(A))
    resolvent = optimize._resolvent_weights
    monkeypatch.setattr(optimize, "_resolvent_weights",
                        lambda *args: reducible_selections.append(1) or resolvent(*args))
    bounded, unbounded = SlopeInterval(0.0, 1.0), SlopeInterval(0.2, np.inf)
    tags = set()
    for A in couplings:
        for model in (
            Hopfield(C, A, bounded), FiringRate(C, A, bounded),
            Hopfield(C, A, unbounded), FiringRate(C, A, unbounded),
            Persidskii(A, SlopeInterval(0.5, 1.0)), AxMinusCPhi(A, C, SlopeInterval(0.5, 1.0)),
            Entrywise(A, SlopeInterval(0.5, 1.0)), Lure(A, b, c, bounded),
            MultiLure(A, B, Cm, bounded),
        ):
            cert = certify(model)
            assert cert.weights is not None, cert.theorem
            tags.add(model.tag)
        certify_hopfield_mh(C, A, 1.0)
    assert tags == set(networks.MODELS)
    cert = certify(Hopfield(C, couplings[2], SlopeInterval(-0.3, 1.0)))
    assert cert.theorem == "hopfield/l1/weight-lp" and reducible_selections
    pair = perron_pair(M, spectral.DEFAULT_DELTA)
    assert not pair.irreducible and pair.dense == (False, False)
    assert dense_calls == []


def test_noda_finishes_weakly_coupled_blocks_at_a_rounded_shift(monkeypatch):
    # Two positive blocks with distinct Perron roots, coupled by 1e-11 to
    # 1e-8 both ways: the Perron vectors have entries of the order of the
    # coupling, and Noda's shift hi reaches alpha to rounding while the
    # bracket is still open.  There hi I - N can be singular in floating
    # point, or its solution can come out negative; Noda's iteration solves
    # just above hi, or scales by the entry of largest modulus, and finishes
    # the vector.
    outcomes = []
    solve = spectral.solve

    def spy(A, b):
        try:
            z = solve(A, b)
        except np.linalg.LinAlgError:
            outcomes.append("singular")
            raise
        outcomes.append("negative" if z.max() < 0.0 else "positive")
        return z

    monkeypatch.setattr(spectral, "solve", spy)
    rng = np.random.default_rng(71)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        M = np.full((2 * k, 2 * k), 10.0 ** rng.uniform(-11, -8))
        M[:k, :k] = rng.uniform(0.05, 0.4, size=(k, k))
        M[k:, k:] = rng.uniform(0.05, 0.4, size=(k, k))
        np.fill_diagonal(M, rng.uniform(1.0, 1.6, size=2 * k))
        pair = perron_pair(M)
        scale = 1.0 + float(np.max(np.abs(M)))
        assert pair.dense == (False, False)
        assert np.all(pair.right > 0.0) and np.all(pair.left > 0.0)
        for B, v in ((M, pair.right), (M.T, pair.left)):
            lam = float(v @ (B @ v) / (v @ v))
            assert np.max(np.abs(B @ v - lam * v)) <= spectral.RESIDUAL_RTOL * scale
        want = float(np.max(np.linalg.eigvals(M).real))
        assert abs(pair.alpha - want) <= 1e-12 * scale
    assert outcomes.count("singular") >= 1 and outcomes.count("negative") >= 10


def test_noda_finishes_from_the_last_power_iterate(monkeypatch):
    # A vector that runs out of power steps, or converges at a vector that
    # misses the residual bound, is finished by Noda's iteration started from
    # its last power iterate, and must then meet the bound itself.
    starts = []
    noda = spectral._noda
    monkeypatch.setattr(spectral, "_noda",
                        lambda B, x=None: starts.append(x.copy()) or noda(B, x))

    def last_power_iterate(B, tol):
        x = np.full(B.shape[0], 1.0 / B.shape[0])
        for _ in range(spectral.POWER_MAXITER):
            y = B @ x
            y /= y.sum()
            if np.max(np.abs(y - x)) < tol:
                return y
            x = y
        return x

    rng = np.random.default_rng(31)
    near_tie = near_tie_metzler(rng, 4)
    well_separated = random_irreducible_metzler(rng, 16)
    for M, tol in ((near_tie, spectral.POWER_TOL), (well_separated, 1e-4)):
        monkeypatch.setattr(spectral, "POWER_TOL", tol)
        starts.clear()
        pair = perron_pair(M)
        # The near tie runs out of steps; the loose stop test converges early.
        assert (max(pair.steps) == spectral.POWER_MAXITER) == (M is near_tie)
        N = M + (1.0 + np.max(np.abs(np.diag(M)))) * np.eye(M.shape[0])
        assert len(starts) == 2
        assert all(np.array_equal(x, last_power_iterate(B, tol)) for x, B in zip(starts, (N, N.T)))
        scale = 1.0 + np.max(np.abs(M))
        want = float(np.max(np.linalg.eigvals(M).real))
        assert pair.alpha == pytest.approx(want, abs=1e-12 * scale)
        for B, v in ((M, pair.right), (M.T, pair.left)):
            lam = float(v @ (B @ v) / (v @ v))
            assert np.max(np.abs(B @ v - lam * v)) <= spectral.RESIDUAL_RTOL * scale

    # No bound is met at RESIDUAL_RTOL = 0, so the Noda vectors are refused.
    monkeypatch.setattr(spectral, "RESIDUAL_RTOL", 0.0)
    with pytest.raises(spectral.NumericalError, match="residual check failed"):
        perron_pair(near_tie)


def _strongly_connected_bruteforce(A):
    n = A.shape[0]
    adj = [[j for j in range(n) if j != i and A[j, i] != 0.0] for i in range(n)]
    # edge j -> i when A[i, j] != 0, so successors of j are rows i with A[i, j] != 0

    def reach(start):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    return all(len(reach(s)) == n for s in range(n))


def test_is_irreducible_examples_and_oracle():
    assert is_irreducible([[0, 1], [1, 0]])
    assert not is_irreducible(np.diag([1.0, 2.0]))
    assert is_irreducible(SKEW_RING)
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        A = rng.choice([-1.0, 0.0, 1.0], size=(n, n))
        assert is_irreducible(A) == _strongly_connected_bruteforce(A)


def test_perron_pair_symmetric_cases():
    pair = perron_pair([[0.0, 1.0], [1.0, 0.0]])
    assert pair.alpha == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(pair.right, [0.5, 0.5], atol=1e-10)
    np.testing.assert_allclose(pair.left, [0.5, 0.5], atol=1e-10)

    pair = perron_pair([[-1.0, 1.0], [1.0, -1.0]])
    assert pair.alpha == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(pair.right, [0.5, 0.5], atol=1e-10)


def test_perron_pair_matches_dense_abscissa():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        M = metzler_majorant(random_matrix(rng, n))
        if not is_irreducible(M):
            continue
        pair = perron_pair(M)
        dense = float(np.max(np.linalg.eigvals(M).real))
        assert pair.alpha == pytest.approx(dense, abs=1e-9)
        resid_r = np.max(np.abs(M @ pair.right - pair.alpha * pair.right))
        resid_l = np.max(np.abs(M.T @ pair.left - pair.alpha * pair.left))
        assert max(resid_r, resid_l) <= 1e-9 * (1.0 + np.max(np.abs(M)))


def test_perron_pair_guards():
    with pytest.raises(ReducibleMatrixError):
        perron_pair(np.diag([-1.0, -2.0]))
    with pytest.raises(ValueError):
        perron_pair([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        perron_pair([[0.0, 1.0], [1.0, 0.0]], delta=-1.0)
    # A bool or non-real delta, and p=True, are not read as numbers.
    for delta in (True, np.True_, "0.1", 1e-8j, None):
        with pytest.raises(ValueError, match="delta must be a real number"):
            perron_pair([[0.0, 1.0], [1.0, 0.0]], delta)
    for p in (True, np.True_, "1.5", 10**400):
        with pytest.raises(ValueError, match="p must be 1 or inf"):
            perron_weights([[0.0, 1.0], [1.0, 0.0]], p)
    # reducible input works once perturbed
    pair = perron_pair(np.diag([-1.0, -2.0]), delta=1e-8)
    assert pair.alpha == pytest.approx(-1.0, abs=1e-6)
    assert not pair.irreducible


def test_secular_pair_resolves_a_root_near_a_large_abscissa():
    # diag(a, a - 5) + delta * ones at a = -1e8: the root rho = a + t,
    # t = delta (1 + delta / 5 + ...), lies below ulp(1e8) above a, so it is
    # solved on the diagonal shift of M (diagonal 6 and 1), where it is
    # resolved to ulp(6), a relative 1e-7 of t.  The right and left vectors
    # are both (1, t / (5 + t)) up to scale, t solving
    # delta (1 / t + 1 / (5 + t)) = 1.
    a, delta = -1e8, 1e-8
    pair = perron_pair(np.diag([a, a - 5.0]), delta)
    t = delta
    for _ in range(5):
        t = delta * (1.0 + t / (5.0 + t))
    r = t / (5.0 + t)
    for v in (pair.right, pair.left):
        np.testing.assert_allclose(v, [1.0 / (1.0 + r), r / (1.0 + r)], rtol=0.0, atol=1e-15)
    assert abs(pair.alpha - a) <= 2.0 * np.spacing(1e8)


def _textbook_block_resolvent(S, blocks, b):
    """(bI - S)^-1 1 one block at a time in the order given, each block by
    solve(b I - S_BB, 1 + S_B w): the reference for `_resolvent_weights`."""
    w = np.zeros(S.shape[0])
    for B in blocks:
        w[B] = np.linalg.solve(b * np.eye(B.size) - S[np.ix_(B, B)], 1.0 + S[B] @ w)
    return w


def test_resolvent_weights_solve_the_transpose_on_reversed_blocks():
    # The left weights are the textbook block loop on S.T with the blocks in
    # the reverse order, bit for bit, and the right ones on S itself.  A block
    # that is singular at b, or whose abscissa is above b, raises
    # NumericalError on either side, and classify's witness reads that as
    # no witness.
    rng = np.random.default_rng(91)
    for _ in range(60):
        n = int(rng.integers(2, 24))
        M = random_metzler(rng, n, density=0.25)
        M[0, 1:] = 0.0  # no edge into vertex 0: reducible
        blocks = strong_blocks(M)
        assert len(blocks) > 1
        b = spectral._block_abscissa(M, blocks) + RESOLVENT_SHIFT
        left = spectral._resolvent_weights(M, blocks, b, left=True)
        assert left.tobytes() == _textbook_block_resolvent(M.T, blocks[::-1], b).tobytes()
        right = spectral._resolvent_weights(M, blocks, b)
        assert right.tobytes() == _textbook_block_resolvent(M, blocks, b).tobytes()
    singular = np.array([[0.0, 0.0], [1.0, -1.0]])  # block {0} is 0 at b = 0
    above = np.array([[-1.0, 0.0], [1.0, 0.5]])  # block {1} has abscissa 0.5 > b = 0
    for M in (singular, above):
        blocks = strong_blocks(M)
        for left in (False, True):
            with pytest.raises(spectral.NumericalError):
                spectral._resolvent_weights(M, blocks, 0.0, left=left)
        assert mh_lds_witness(M) is None


def test_perron_weights_meet_abscissa():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        M = random_irreducible_metzler(rng, n)
        alpha = spectral_abscissa(M)
        w1 = perron_weights(M, 1)
        assert mu1(M, w1) == pytest.approx(alpha, abs=1e-9)
        winf = perron_weights(M, np.inf)
        # weight matrix diag(winf) = diag(v)^-1, i.e. the reciprocal vector
        # goes into the linf formula
        assert muinf(M, 1.0 / winf) == pytest.approx(alpha, abs=1e-9)


def test_perron_weights_symmetric_is_perron_vector():
    M = np.array([[-1.0, 0.5, 0.2], [0.5, -2.0, 0.3], [0.2, 0.3, -1.5]])
    pair = perron_pair(M)
    w = perron_weights(M, 1)
    np.testing.assert_allclose(w / w.sum(), pair.right, atol=1e-8)


def test_perron_weights_reducible_with_delta():
    M = np.diag([-1.0, -2.0])
    w = perron_weights(M, 1, delta=1e-8)
    assert mu1(M, w) <= spectral_abscissa(M) + 1e-6
    assert mu1(M, w) >= spectral_abscissa(M) - 1e-12


def test_abscissa_never_exceeds_majorant_abscissa():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        A = random_matrix(rng, n, scale=rng.uniform(0.5, 3.0))
        assert spectral_abscissa(A) <= spectral_abscissa(metzler_majorant(A)) + 1e-9


def test_shifted_scale_reads_max_magnitude_without_a_copy():
    # `_shifted` writes one n x n array, N, and reads max|N| as
    # max(max N, -min N): N and the scale are the bytes that M + delta,
    # the diagonal shift and 1 + max|N| give, on Metzler inputs with -0.0
    # entries and zero diagonals, at delta 0, -0.0 and 1e-8.  Entries of
    # 1e308 still raise NumericalError, in N or in a power step's sum.
    rng = np.random.default_rng(37)
    for trial in range(40):
        n = int(rng.integers(1, 12))
        M = rng.uniform(0.0, 1.0, size=(n, n)) * 10.0 ** int(rng.integers(-3, 4))
        M[rng.random(size=(n, n)) < 0.3] = -0.0
        np.fill_diagonal(M, (0.0, -0.0, rng.normal())[trial % 3])
        for delta in (0.0, -0.0, 1e-8):
            N, shift, scale = spectral._shifted(M, delta)
            want = M + (delta + 0.0)
            want += (1.0 + float(np.max(np.abs(np.diag(want))))) * np.eye(n)
            assert N.tobytes() == want.tobytes()
            assert scale.hex() == (1.0 + float(np.max(np.abs(want)))).hex()
    wide = np.full((3, 3), 1.5e308)
    np.fill_diagonal(wide, 0.0)
    for overflowing in (np.array([[1e308, 1.0], [1.0, -1.0]]), wide):
        with pytest.raises(spectral.NumericalError, match="overflows"):
            spectral._shifted(overflowing, 0.0)


def test_non_finite_inputs_fail_before_iterating(monkeypatch):
    # A NaN or infinite delta, a shifted matrix that overflows or whose
    # products would, and an unknown norm all raise before the first power
    # step, and without a warning.
    calls = []
    power = spectral._power_vector
    monkeypatch.setattr(spectral, "_power_vector", lambda B: calls.append(B) or power(B))
    M = [[-1.0, 1.0], [1.0, -1.0]]
    big = [[1e308, 1.0], [1.0, -1.0]]
    # Finite shifted matrix, but the sum of a power step's product overflows.
    wide = np.full((3, 3), 1.5e308)
    np.fill_diagonal(wide, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in (np.nan, np.inf, 10**400):
            with pytest.raises(ValueError, match="delta must be finite"):
                perron_pair(M, delta)
        for overflowing in (big, wide):
            with pytest.raises(spectral.NumericalError, match="overflows"):
                perron_pair(overflowing)
        with pytest.raises(spectral.NumericalError, match="overflows"):
            certify(Persidskii(big, SlopeInterval(0.5, 1.0)))
        with pytest.raises(ValueError, match="p must be 1 or inf"):
            perron_weights(M, 2)
        assert calls == []
        perron_pair(M)
    assert len(calls) == 2  # one loop per vector: N, then N.T
    assert np.array_equal(calls[0], calls[1].T) and calls[1].base is calls[0]


def _reference_perron_pair(M, delta=0.0):
    """perron_pair before the lean power step, with a dense eigensolve in
    place of Noda's iteration: M + delta * ones, then P + shift * eye, a
    stop test scaled by max(1, max|y|), and separate B @ x products for the
    Rayleigh quotient and the residual.  Returns (alpha, right, left, max|y|
    of every power iterate, which vectors took the dense eigensolve)."""
    M = np.array(M, dtype=float)
    n = M.shape[0]
    P = M + delta * np.ones((n, n))
    shift = 1.0 + float(np.max(np.abs(np.diag(P))))
    N = P + shift * np.eye(n)
    scale = 1.0 + float(np.max(np.abs(N)))
    tops, dense = [], []

    def residual(B, v, lam):
        return float(np.max(np.abs(B @ v - lam * v)))

    def power(B):
        x = np.full(n, 1.0 / n)
        for _ in range(spectral.POWER_MAXITER):
            y = B @ x
            y /= y.sum()
            tops.append(np.max(np.abs(y)))
            if np.max(np.abs(y - x)) < spectral.POWER_TOL * max(1.0, tops[-1]):
                return y, True
            x = y
        return x, False

    vectors = []
    for B in (N, N.T):
        x, ok = power(B)
        lam = float(x @ (B @ x) / (x @ x))
        dense.append(not ok or residual(B, x, lam) > spectral.RESIDUAL_RTOL * scale)
        if dense[-1]:
            lams, V = np.linalg.eig(B)
            x = V[:, int(np.argmax(lams.real))].real
            x = x / x.sum()
            lam = float(x @ (B @ x) / (x @ x))
            assert residual(B, x, lam) <= spectral.RESIDUAL_RTOL * scale
        vectors.append((x, lam))
    (v, lam_r), (w, lam_l) = vectors
    return 0.5 * (lam_r + lam_l) - shift, v, w, tops, tuple(dense)


def _check_secular_pair(M, delta, pair):
    """The pair of a delta-perturbed reducible M comes from its secular
    equation, with no power step, and is held to the dense oracle by
    residual, not by bits: both vectors strictly positive with unit sum and
    within RESIDUAL_RTOL * (1 + max|N|) of eigenvectors at rho = alpha, and
    rho within 1e-12 (1 + max|N|) of the dense eigvals abscissa of
    M + delta * ones."""
    P = M + delta * np.ones(M.shape)
    shift = 1.0 + float(np.max(np.abs(np.diag(P))))
    scale = 1.0 + float(np.max(np.abs(P + shift * np.eye(M.shape[0]))))
    assert not pair.irreducible and pair.steps == (0, 0) and pair.dense == (False, False)
    for B, v in ((P, pair.right), (P.T, pair.left)):
        assert np.all(v > 0.0) and v.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(B @ v - pair.alpha * v)) <= spectral.RESIDUAL_RTOL * scale
    assert abs(pair.alpha - float(np.max(np.linalg.eigvals(P).real))) <= 1e-12 * scale


def _check_against_reference(M, delta, pair):
    """Every vector the reference's power steps converge on matches it bit
    for bit, and so does the whole pair when both do.  Every other vector
    was finished by Noda's iteration: it must be strictly positive, meet
    RESIDUAL_RTOL * (1 + max|N|), and have a Rayleigh quotient, less the
    shift, within 1e-12 (1 + max|N|) of the dense eigvals abscissa.  A
    delta-perturbed reducible M takes the secular pair instead, checked by
    `_check_secular_pair`.  Returns which vectors were handed over to Noda's
    iteration."""
    if delta > 0.0 and not is_irreducible(M):
        _check_secular_pair(M, delta, pair)
        return (False, False)
    alpha, v, w, tops, handed = _reference_perron_pair(M, delta)
    assert max(tops) <= 1.0  # unit-sum iterates: the reference's stop scale was 1
    if not any(handed):
        assert pair.alpha == alpha and pair.dense == (False, False)
        assert sum(pair.steps) == len(tops)
    P = M + delta * np.ones(M.shape)
    shift = 1.0 + float(np.max(np.abs(np.diag(P))))
    N = P + shift * np.eye(M.shape[0])
    scale = 1.0 + float(np.max(np.abs(N)))
    want = float(np.max(np.linalg.eigvals(P).real))
    for x, ref, B, to_noda in zip((pair.right, pair.left), (v, w), (N, N.T), handed):
        if not to_noda:
            assert np.array_equal(x, ref)
            continue
        Bx = B @ x
        lam = float(x @ Bx / (x @ x))
        assert np.all(x > 0.0) and x.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(Bx - lam * x)) <= spectral.RESIDUAL_RTOL * scale
        assert abs(lam - shift - want) <= 1e-12 * scale
    return handed


def test_perron_pair_is_bit_identical_to_reference():
    rng = np.random.default_rng(11)
    cases = [(random_irreducible_metzler(rng, n), 0.0) for n in (1, 2, 16, 64, 256)]
    for n in (16, 64):
        # Sparse, with -0.0 off the diagonal: perturbed, and (made
        # irreducible by a positive ring) unperturbed.
        M = random_metzler(rng, n, density=0.2)
        M[M == 0.0] = -0.0
        cases += [(M, spectral.DEFAULT_DELTA), (M, 0.3)]
        M = M.copy()
        M[np.arange(n), np.roll(np.arange(n), 1)] = 0.5
        cases += [(M, 0.0), (M, -0.0), (np.asfortranarray(M), 0.0)]
    reducible = random_irreducible_metzler(rng, 16)
    reducible[8:, :8] = 0.0
    reducible[8:, 8:] *= 0.5  # well separated blocks: power iteration converges
    assert not is_irreducible(reducible)
    cases.append((reducible, spectral.DEFAULT_DELTA))
    near_tie = near_tie_metzler(rng, 4)
    cases.append((near_tie, 0.0))

    handed = []
    for M, delta in cases:
        before = M.tobytes()
        pair = perron_pair(M, delta)
        assert M.tobytes() == before
        if any(_check_against_reference(M, delta, pair)):
            handed.append(M)
    # The slow sparse ring (n = 16, see _slow_sparse_inputs), the near tie
    # (n = 8) and the n = 2 input, whose eigenvalue ratio after the shift is
    # 0.67, go to Noda's iteration; every input with n >= 64 converges.  The
    # slow perturbed sparse input is reducible and takes the secular pair.
    slow = [M for M, delta in _slow_sparse_inputs() if delta == 0.0]
    assert all(any(np.array_equal(M, H) for H in handed) for M in slow + [near_tie])
    assert {M.shape[0] for M in handed} == {2, 8, 16}


def _sweep_cases():
    """The seeded sweep's inputs, n from 2 to 64, as (M, delta, block size of
    a near tie or 0)."""
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(40):
        n = int(rng.integers(2, 65))
        cases.append((random_irreducible_metzler(rng, n), 0.0, 0))
        cases.append((metzler_majorant(random_mh_matrix(rng, n)), 0.0, 0))
        M = random_metzler(rng, n, density=rng.uniform(0.1, 0.4))
        cases.append((M, spectral.DEFAULT_DELTA, 0))
        M = M.copy()
        M[np.arange(n), np.roll(np.arange(n), 1)] = rng.uniform(0.1, 1.0)
        cases.append((M, 0.0, 0))
        M = random_irreducible_metzler(rng, n)
        M[n // 2:, : n // 2] = 0.0
        M[n // 2:, n // 2:] *= 0.5
        cases.append((M, spectral.DEFAULT_DELTA, 0))
        k = int(rng.integers(2, 33))
        cases.append((near_tie_metzler(rng, k), 0.0, k))
    return cases + [(M, delta, 0) for M, delta in _slow_sparse_inputs()]


def test_stagnation_test_keeps_convergent_inputs_and_stops_near_ties(monkeypatch):
    # Seeded sweep of the Metzler inputs that certify and classify hand to
    # perron_pair, n from 2 to 64: dense, M-Hurwitz majorants, sparse with
    # and without delta, block-reducible and near-tied.  No stagnation test
    # decides any more: every vector gets the same POWER_MAXITER steps.
    # Where the reference's power steps converge, perron_pair's do too, at
    # the same steps and bit for bit.  Near ties, as the benchmark draws
    # them, never converge and are handed to Noda's iteration (but one
    # whose start has next to no weight on the second eigenvector, which
    # converges, as in the reference), and so are the slow sparse inputs;
    # _check_against_reference holds every handed-over vector to the dense
    # oracle.  A delta-perturbed reducible input takes the secular pair,
    # whose Newton steps (two block solves each) stay within NODA_MAXITER;
    # none of the inputs takes a dense eigensolve.
    cases = _sweep_cases()
    noda_calls, solves = [], []
    noda, resolvent = spectral._noda, spectral._resolvent_weights
    monkeypatch.setattr(spectral, "_noda",
                        lambda B, x=None: noda_calls.append(B.shape[0]) or noda(B, x))
    monkeypatch.setattr(spectral, "_resolvent_weights",
                        lambda *args, **kw: solves.append(1) or resolvent(*args, **kw))
    tie_handovers, newton = 0, []
    for M, delta, k in cases:
        noda_calls.clear()
        solves.clear()
        pair = perron_pair(M, delta)
        handed = _check_against_reference(M, delta, pair)
        # Noda calls on smaller matrices finish a block's abscissa.
        assert noda_calls.count(M.shape[0]) == sum(handed)
        assert pair.dense == (False, False)
        if not pair.irreducible:
            newton.append(len(solves) // 2)
        if k:
            tie_handovers += sum(handed)
    assert len(cases) >= 240 and tie_handovers >= 70
    assert len(newton) >= 40 and max(newton) <= spectral.NODA_MAXITER


def _refuse_eigvals(A):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _second_eigenvector(B, x):
    """An eigenvector of B for its second largest real eigenvalue: one that
    passes the residual check and has entries of both signs."""
    lam, V = np.linalg.eig(B)
    return V[:, np.argsort(-lam.real)[1]].real


def _skewed_resolvent_weights(*args, resolvent_weights=spectral._resolvent_weights, **kwargs):
    """Resolvent weights with their first entry 0.1 % too large."""
    w = resolvent_weights(*args, **kwargs)
    w[0] *= 1.001
    return w


_REDUCIBLE = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.0, 0.0, -1.5]])


@pytest.mark.parametrize("target, name, replacement, call, message", [
    (np.linalg, "eigvals", _refuse_eigvals, lambda: spectral.eigenvalues(SKEW_RING),
     "eigenvalue computation failed"),
    (spectral, "solve", lambda A, b: np.full_like(b, np.inf),
     lambda: spectral._noda(np.array([[0.0, 1.0], [2.0, 0.0]])),
     "Noda iteration failed after 0 solves"),
    (spectral, "_noda", _second_eigenvector,
     lambda: perron_pair(near_tie_metzler(np.random.default_rng(8), 4)),
     "nonpositive entries"),
    (spectral, "_resolvent_weights", _skewed_resolvent_weights,
     lambda: perron_pair(_REDUCIBLE, delta=1e-8), "residual check failed"),
    (np.linalg, "eigvals", _refuse_eigvals,
     lambda: classify._stacked_abscissae(np.stack([SKEW_RING, -SKEW_RING])),
     "eigenvalue computation failed"),
], ids=["eigenvalues", "noda-non-finite", "perron-nonpositive", "secular-residual",
        "stacked-abscissae"])
def test_failure_branches_raise_numerical_error(monkeypatch, target, name, replacement, call,
                                                message):
    # Each branch that turns a failed or implausible solve into
    # NumericalError, reached by replacing the solve with one that fails.
    # Each stops before numpy warns: past `_noda`'s non-finite stop, an
    # infinite iterate would be rescaled to NaN, with a warning.
    monkeypatch.setattr(target, name, replacement)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(spectral.NumericalError, match=message):
            call()
