import warnings

import numpy as np
import pytest

from mucert import (
    AxMinusCPhi,
    Entrywise,
    FiringRate,
    Hopfield,
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
from mucert import spectral

from helpers import (
    SKEW_RING,
    STABLE_POS_DIAG,
    ROTATION_SHIFT,
    near_tie_metzler,
    random_irreducible_metzler,
    random_matrix,
    random_metzler,
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
    """(certificate, its abscissa detail, the Metzler matrix behind it) for
    every Perron-route certificate, each built so that its matrix has the
    zero pattern of the Metzler matrix M."""
    n = M.shape[0]
    A = M * np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    np.fill_diagonal(A, np.diag(M))
    C = np.diag(rng.uniform(0.5, 1.5, size=n))
    entrywise = Entrywise(A, SlopeInterval(0.5, 1.5))
    multilure = MultiLure(A, 0.3 * np.eye(n), 0.5 * np.eye(n), SlopeInterval(0.0, 1.0))
    unbounded = SlopeInterval(0.5, np.inf)
    return [
        (certify(Persidskii(A, SlopeInterval(0.5, 1.0))), "alpha_majorant", M),
        (certify(AxMinusCPhi(A, C, SlopeInterval(0.4, 1.0))),
         "alpha_shifted_majorant", M - 0.4 * C),
        (certify(entrywise), "alpha_envelope", metzler_majorant(entrywise.envelope())),
        (certify(multilure), "alpha_coupling",
         metzler_majorant(multilure_coupling_bound(multilure))),
        (certify(Hopfield(C, A, unbounded)), "alpha_majorant", M),
        (certify(FiringRate(C, A, unbounded)), "alpha_majorant", M),
        (certify_hopfield_mh(C, A, 0.7), "alpha_shifted_majorant", -C + 0.7 * M),
        (certify(Hopfield(np.eye(n), A, SlopeInterval(0.0, 1.0)), "l1"), "closed_form",
         -np.eye(n) + M),
    ]


def test_metzler_route_matches_dense_route():
    # Each Perron certificate reports the abscissa of its Metzler matrix T.
    # Irreducible T: read off its Perron pair, within the dense residual
    # contract.  Reducible T: the pair is delta-perturbed, and the detail is
    # the unperturbed dense value.
    rng = np.random.default_rng(3)
    for trial in range(16):
        n = int(rng.integers(2, 9))
        M = random_irreducible_metzler(rng, n)
        reducible = trial % 2 == 1
        if reducible:
            M[n // 2:, : n // 2] = 0.0
        for cert, key, T in _perron_certificates(rng, M):
            assert is_irreducible(T) != reducible
            dense = float(np.max(np.linalg.eigvals(T).real))
            scale = 1.0 + float(np.max(np.abs(T)))
            if key == "closed_form":
                dense = max(-1.0, dense)
            if reducible:
                assert cert.details[key] == pytest.approx(dense, abs=1e-12 * scale)
                assert not cert.tight
            else:
                assert cert.details[key] == pytest.approx(dense, abs=1e-9 * scale)


class _CountingMatrix(np.ndarray):
    steps = 0

    def __matmul__(self, other):
        _CountingMatrix.steps += 1
        return np.asarray(self) @ other


def test_near_tie_reaches_dense_fallback_within_power_budget(monkeypatch):
    assert spectral.POWER_MAXITER <= 1000
    # Record each eigenvector route perron_pair takes: ("power", steps,
    # converged) per power iteration and ("dense",) per dense eigensolve.
    routes = []
    power, dense = spectral._power_vector, spectral._dense_dominant_vector

    def spy_power(N):
        _CountingMatrix.steps = 0
        x, ok = power(N.view(_CountingMatrix))
        routes.append(("power", _CountingMatrix.steps, ok))
        return x, ok

    def spy_dense(N):
        routes.append(("dense",))
        return dense(N)

    monkeypatch.setattr(spectral, "_power_vector", spy_power)
    monkeypatch.setattr(spectral, "_dense_dominant_vector", spy_dense)
    rng = np.random.default_rng(8)
    for k in (4, 8):
        M = near_tie_metzler(rng, k)
        routes.clear()
        pair = perron_pair(M)
        # Right then left vector: each spends the whole budget, then one
        # dense eigensolve.
        budget = ("power", spectral.POWER_MAXITER, False)
        assert routes == [budget, ("dense",), budget, ("dense",)]
        want = float(np.max(np.linalg.eigvals(M).real))
        assert pair.alpha == pytest.approx(want, abs=1e-9)
        assert np.all(pair.right > 0) and np.all(pair.left > 0)

    # A well-separated input converges by power iteration alone.
    routes.clear()
    perron_pair(random_irreducible_metzler(rng, 16))
    assert [r[0] for r in routes] == ["power", "power"]
    assert all(ok and steps < spectral.POWER_MAXITER for _, steps, ok in routes)


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
    # reducible input works once perturbed
    pair = perron_pair(np.diag([-1.0, -2.0]), delta=1e-8)
    assert pair.alpha == pytest.approx(-1.0, abs=1e-6)
    assert not pair.irreducible


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


def test_non_finite_inputs_fail_before_iterating(monkeypatch):
    # A NaN or infinite delta, a shifted matrix that overflows or whose
    # products would, and an unknown norm all raise before the first power
    # step, and without a warning.
    calls = []
    power = spectral._power_vector
    monkeypatch.setattr(spectral, "_power_vector", lambda N: calls.append(N) or power(N))
    M = [[-1.0, 1.0], [1.0, -1.0]]
    big = [[1e308, 1.0], [1.0, -1.0]]
    # Finite shifted matrix, but the sum of a power step's product overflows.
    wide = np.full((3, 3), 1.5e308)
    np.fill_diagonal(wide, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in (np.nan, np.inf):
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
    assert len(calls) == 2


def _reference_perron_pair(M, delta=0.0):
    """perron_pair before the lean power step: M + delta * ones, then
    P + shift * eye, a stop test scaled by max(1, max|y|), and separate B @ x
    products for the Rayleigh quotient and the residual.  Returns (alpha,
    right, left, max|y| of every power iterate, dense eigensolves taken)."""
    M = np.array(M, dtype=float)
    n = M.shape[0]
    P = M + delta * np.ones((n, n))
    shift = 1.0 + float(np.max(np.abs(np.diag(P))))
    N = P + shift * np.eye(n)
    scale = 1.0 + float(np.max(np.abs(N)))
    tops, dense = [], 0

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
        if not ok or residual(B, x, lam) > spectral.RESIDUAL_RTOL * scale:
            lams, V = np.linalg.eig(B)
            x = V[:, int(np.argmax(lams.real))].real
            x = x / x.sum()
            lam = float(x @ (B @ x) / (x @ x))
            assert residual(B, x, lam) <= spectral.RESIDUAL_RTOL * scale
            dense += 1
        vectors.append((x, lam))
    (v, lam_r), (w, lam_l) = vectors
    return 0.5 * (lam_r + lam_l) - shift, v, w, tops, dense


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

    for M, delta in cases:
        before = M.tobytes()
        alpha, v, w, tops, dense = _reference_perron_pair(M, delta)
        pair = perron_pair(M, delta)
        assert M.tobytes() == before
        assert pair.alpha == alpha
        assert np.array_equal(pair.right, v) and np.array_equal(pair.left, w)
        # Iterates have unit sum, so the reference's stop scale was 1.
        assert max(tops) <= 1.0
        assert dense == (2 if M is near_tie else 0)
