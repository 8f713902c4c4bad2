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
    # contract.  Reducible T: the pair is delta-perturbed, the certificate
    # says so in `delta`, and the detail is the unperturbed dense value.
    rng = np.random.default_rng(3)
    for trial in range(16):
        n = int(rng.integers(2, 9))
        M = random_irreducible_metzler(rng, n)
        reducible = trial % 2 == 1
        if reducible:
            M[n // 2:, : n // 2] = 0.0
        for cert, key, T in _perron_certificates(rng, M):
            assert is_irreducible(T) != reducible
            assert cert.details["delta"] == (spectral.DEFAULT_DELTA if reducible else 0.0)
            dense = float(np.max(np.linalg.eigvals(T).real))
            scale = 1.0 + float(np.max(np.abs(T)))
            if key == "closed_form":
                dense = max(-1.0, dense)
            if reducible:
                assert cert.details[key] == pytest.approx(dense, abs=1e-12 * scale)
                assert not cert.tight
            else:
                assert cert.details[key] == pytest.approx(dense, abs=1e-9 * scale)


def test_near_tie_reaches_dense_fallback_within_power_budget(monkeypatch):
    assert spectral.POWER_MAXITER <= 1000
    # A near tie's steps sit on a plateau from about step 20, so the
    # stagnation test sends both vectors to the dense solver at its first
    # check, long before the budget runs out.
    dense_calls = []
    dense = spectral._dense_dominant_vector
    monkeypatch.setattr(spectral, "_dense_dominant_vector",
                        lambda N: dense_calls.append(1) or dense(N))
    rng = np.random.default_rng(8)
    for k in (4, 8):
        M = near_tie_metzler(rng, k)
        dense_calls.clear()
        pair = perron_pair(M)
        assert pair.dense == (True, True) and len(dense_calls) == 2
        assert all(steps <= 2 * spectral.POWER_WINDOW + 1 for steps in pair.steps)
        want = float(np.max(np.linalg.eigvals(M).real))
        assert pair.alpha == pytest.approx(want, abs=1e-9)
        assert np.all(pair.right > 0) and np.all(pair.left > 0)

    # A well-separated input converges by power iteration alone.
    dense_calls.clear()
    pair = perron_pair(random_irreducible_metzler(rng, 16))
    assert pair.dense == (False, False) and dense_calls == []
    assert all(0 < steps < spectral.POWER_MAXITER for steps in pair.steps)


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
    monkeypatch.setattr(spectral, "_power_vector",
                        lambda N, *rows: calls.append(N) or power(N, *rows))
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
    assert len(calls) == 1  # one loop steps both vectors


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


def test_stagnation_test_keeps_convergent_inputs_and_stops_near_ties():
    # Seeded sweep of the Metzler inputs that certify and classify hand to
    # perron_pair, n from 2 to 64: dense, M-Hurwitz majorants, sparse with
    # and without delta, block-reducible and near-tied.  Every input matches
    # the reference bit for bit.  Where the reference converges, perron_pair
    # converges too, at the same steps (the reference keeps one max|y| per
    # step of either vector).  Near ties of two blocks of at least 4, as the
    # benchmark draws them, fall back at the stagnation test's first check;
    # blocks of 2 or 3 may need a few more checks to reach their plateau.  A
    # near tie whose start has next to no weight on the second eigenvector
    # converges, as it does in the reference.
    rng = np.random.default_rng(23)
    cases = []  # (M, delta, block size of a near tie or 0)
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
    # The two slowest convergent inputs of the reference test: a sparse ring
    # at about 0.9 per step, and a perturbed sparse input whose steps stay
    # near 3e-2 for 18 steps before it converges at 154.
    hard = np.random.default_rng(11)
    for n in (1, 2, 16, 64, 256):
        random_irreducible_metzler(hard, n)
    M = random_metzler(hard, 16, density=0.2)
    M[M == 0.0] = -0.0
    ring = M.copy()
    ring[np.arange(16), np.roll(np.arange(16), 1)] = 0.5
    assert perron_pair(ring).steps == (254, 257)
    assert perron_pair(M, spectral.DEFAULT_DELTA).steps == (154, 154)
    cases += [(M, spectral.DEFAULT_DELTA, 0), (ring, 0.0, 0)]

    fallbacks = 0
    for M, delta, k in cases:
        alpha, v, w, tops, dense = _reference_perron_pair(M, delta)
        pair = perron_pair(M, delta)
        assert pair.alpha == alpha
        assert np.array_equal(pair.right, v) and np.array_equal(pair.left, w)
        if dense == 0:
            assert pair.dense == (False, False)
            assert sum(pair.steps) == len(tops)
        elif k:
            assert dense == 2 and pair.dense == (True, True)
            limit = 2 * spectral.POWER_WINDOW + 1 if k >= 4 else spectral.POWER_MAXITER - 1
            assert max(pair.steps) <= limit
            fallbacks += 1
        else:  # slow, not stalled: the whole budget, as in the reference
            assert dense == sum(pair.dense) and spectral.POWER_MAXITER in pair.steps
    assert len(cases) >= 200 and fallbacks >= 35


def test_stalled_rule_on_synthetic_step_histories():
    # Steps q**k: the largest step of a half window is its first, so the
    # newer half's largest is q**half times the older half's.
    window, tol = spectral.POWER_WINDOW, spectral.POWER_TOL
    half = window // 2

    def geometric(first, rate, steps):
        return [first * rate ** (k / half) for k in range(steps)]

    flat = [1e-11] * (2 * window)
    assert spectral._stalled(flat)
    assert not spectral._stalled(flat[:-1])  # before the first check
    assert not spectral._stalled(flat + [1e-11])  # between checks
    assert spectral._stalled(flat + [1e-11] * half)
    # Shrinking by 10 % or more per half window is progress.
    assert not spectral._stalled(geometric(1e-2, 0.89, 2 * window))
    # Shrinking by less than 10 %: stalled unless that rate reaches
    # POWER_TOL within the budget.
    left = (spectral.POWER_MAXITER - 2 * window) / half
    slow = geometric(1.0, 0.95, 2 * window)
    reach = tol / 0.95**left  # the last step that still reaches POWER_TOL
    assert spectral._stalled([s * 1.01 * reach / slow[-half] for s in slow])
    assert not spectral._stalled([s * 0.99 * reach / slow[-half] for s in slow])


def test_stagnation_test_is_called_only_on_its_schedule(monkeypatch):
    # _stalled can fire only from step 2 * POWER_WINDOW on, every
    # POWER_WINDOW // 2 steps, so the power loop calls it on those steps
    # alone: once per scheduled step and iterating row.
    window, half = spectral.POWER_WINDOW, spectral.POWER_WINDOW // 2
    calls = []
    stalled = spectral._stalled
    monkeypatch.setattr(spectral, "_stalled", lambda h: calls.append(len(h)) or stalled(h))

    rng = np.random.default_rng(19)
    pair = perron_pair(random_irreducible_metzler(rng, 16))
    assert pair.dense == (False, False) and max(pair.steps) < 2 * window
    assert calls == []
    for k in (4, 8):  # both rows stall at the first scheduled step
        calls.clear()
        pair = perron_pair(near_tie_metzler(rng, k))
        assert pair.dense == (True, True) and pair.steps == (2 * window, 2 * window)
        assert calls == [2 * window, 2 * window]

    # The slow sparse ring of the reference test converges at steps 254 and
    # 257, and so passes 12 and 13 scheduled steps.
    hard = np.random.default_rng(11)
    for n in (1, 2, 16, 64, 256):
        random_irreducible_metzler(hard, n)
    ring = random_metzler(hard, 16, density=0.2)
    ring[ring == 0.0] = -0.0
    ring[np.arange(16), np.roll(np.arange(16), 1)] = 0.5
    calls.clear()
    pair = perron_pair(ring)
    assert pair.steps == (254, 257) and pair.dense == (False, False)
    right, left = range(2 * window, 255, half), range(2 * window, 258, half)
    assert (len(right), len(left)) == (12, 13)
    assert sorted(calls) == sorted([*right, *left])
