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
    random_irreducible_metzler,
    random_matrix,
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


def _near_tie_metzler(rng, k):
    """Two diagonally similar k x k blocks (equal Perron roots) coupled by
    1e-9 both ways: irreducible, but its two leading eigenvalues lie about
    1e-9 apart, so power iteration cannot converge."""
    B = rng.uniform(0.1, 1.0, size=(k, k))
    d = rng.uniform(0.5, 2.0, size=k)
    M = np.full((2 * k, 2 * k), 1e-9)
    M[:k, :k] = B
    M[k:, k:] = (d[:, None] * B) / d[None, :]
    np.fill_diagonal(M, -1.0)
    return M


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
        M = _near_tie_metzler(rng, k)
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
