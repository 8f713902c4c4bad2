import itertools
import tracemalloc

import numpy as np
import pytest

from mucert import (
    L1,
    L2,
    LEFT,
    LINF,
    RIGHT,
    PolytopeSpec,
    SlopeInterval,
    brute_force_worst_case,
    envelope_matrices,
    log_norm,
    metzler_majorant,
    mu1,
    mu2,
    muinf,
    perron_weights,
    principal_submatrix,
    scaled_majorant_identity,
    spectral_abscissa,
    weighted_norm,
    worst_case_mu,
)

import mucert.lognorm as lognorm_mod
from mucert.lognorm import kernels

from helpers import (
    DAMPED_SPIRAL,
    ROTATION_SHIFT,
    SKEW_RING,
    SLOPE_PATTERNS,
    random_irreducible_metzler,
    random_matrix,
    random_slope_pair,
    random_weights,
)


def test_mu1_known_values():
    assert mu1(np.zeros((3, 3)), [1.0, 2.0, 0.5]) == pytest.approx(0.0, abs=1e-12)
    assert mu1(metzler_majorant(DAMPED_SPIRAL)) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(0)
    M = random_irreducible_metzler(rng, 5)
    assert mu1(M, perron_weights(M, 1)) == pytest.approx(spectral_abscissa(M), abs=1e-9)


def test_muinf_known_values():
    assert muinf(-np.eye(2), [3.0, 0.5]) == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        A = random_matrix(rng, n)
        w = random_weights(rng, n)
        assert muinf(A, w) == pytest.approx(mu1(A.T, w), abs=1e-12)
    M = random_irreducible_metzler(rng, 4)
    v = 1.0 / perron_weights(M, np.inf)
    assert muinf(M, v) == pytest.approx(spectral_abscissa(M), abs=1e-9)


def test_mu2_known_values():
    assert mu2(DAMPED_SPIRAL) == pytest.approx(-0.5, abs=1e-12)
    assert mu2(ROTATION_SHIFT) == pytest.approx(1.0, abs=1e-12)
    assert mu2(SKEW_RING) == pytest.approx(0.0, abs=1e-12)


def test_stacked_kernels_match_per_slice_values_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in (1, 3, 8):
        w = random_weights(rng, n)
        wide = rng.normal(size=(9, n, n))
        for stack in (wide, wide[2:7], wide[::2]):
            for family in (L1, LINF, L2):
                mu = kernels(family)[0]
                got = mu(stack, w)
                assert got.shape == (stack.shape[0],)
                want = [log_norm(A, family, w) for A in stack]
                assert got.tolist() == want
        # (k, n, p) stacks of column vectors, as a verification state block
        # gives its pair differences: whole, a leading run of rows, and 1 row.
        vectors = rng.normal(size=(9, n, 5)) * 10.0 ** rng.integers(-3, 4, size=(9, 1, 1))
        for stack in (vectors, vectors[:4], vectors[:1]):
            for family in (L1, LINF, L2):
                norm = kernels(family)[1]
                got = norm(stack, w)
                assert got.shape == (stack.shape[0], 5)
                want = [weighted_norm(X, family, w) for X in stack]
                assert np.array_equal(got, want)


def _textbook_offdiag_abs(A):
    """The off-diagonal magnitudes as the kernels took them before they could
    be written in place: a fresh |A|, its diagonal then zeroed."""
    off = np.abs(A)
    np.fill_diagonal(off, 0.0)
    return off


def test_split_kernels_read_magnitudes_written_in_place_bit_for_bit():
    # The l1 and linf log norms of one matrix share one array of off-diagonal
    # magnitudes, which a certificate writes over its witness.  Written in
    # place, the magnitudes are the bytes of a fresh copy, and the split
    # kernels, the copying kernels and the expressions they replaced give one
    # float.  -0.0 entries, zero diagonals and Fortran order included.
    rng = np.random.default_rng(29)
    for trial in range(60):
        n = int(rng.integers(1, 12))
        A = rng.normal(size=(n, n)) * 10.0 ** int(rng.integers(-3, 4))
        A[rng.random(size=(n, n)) < 0.3] = -0.0
        if trial % 3:
            np.fill_diagonal(A, (0.0, -0.0)[trial % 3 - 1])
        if trial % 5 == 0:
            A = np.asfortranarray(A)
        w = random_weights(rng, n)
        off = _textbook_offdiag_abs(A)
        d = np.diagonal(A).copy()
        W = A.copy(order="K")
        assert lognorm_mod._offdiag_abs(W, out=W) is W
        assert W.tobytes(order="A") == off.tobytes(order="A")
        assert W.flags.f_contiguous == A.flags.f_contiguous
        for family, sums in ((L1, w @ off), (LINF, off @ w)):
            want = float((np.diagonal(A) + sums / w).max())
            split = lognorm_mod._SPLIT_KERNELS[family]
            assert float(split(d, W, w)).hex() == want.hex()
            assert float(kernels(family)[0](A, w)).hex() == want.hex()


def test_log_norm_bounds_abscissa_and_is_subadditive():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        A = random_matrix(rng, n)
        B = random_matrix(rng, n)
        w = random_weights(rng, n)
        for fam in (L1, LINF, L2):
            assert spectral_abscissa(A) <= log_norm(A, fam, w) + 1e-9
            assert log_norm(A + B, fam, w) <= log_norm(A, fam, w) + log_norm(B, fam, w) + 1e-9


def test_majorant_equality_for_l1_linf_and_inequality_for_l2():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        A = random_matrix(rng, n)
        w = random_weights(rng, n)
        M = metzler_majorant(A)
        assert mu1(A, w) == pytest.approx(mu1(M, w), abs=1e-12)
        assert muinf(A, w) == pytest.approx(muinf(M, w), abs=1e-12)
        assert mu2(A, w) <= mu2(M, w) + 1e-9
    assert mu2(ROTATION_SHIFT) == pytest.approx(1.0, abs=1e-12)
    assert mu2(metzler_majorant(ROTATION_SHIFT)) == pytest.approx(2.0, abs=1e-12)


def test_submatrix_log_norm_monotonicity():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        A = random_matrix(rng, n)
        w = random_weights(rng, n)
        k = int(rng.integers(1, n))
        idx = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        sub = principal_submatrix(A, idx)
        wsub = w[list(idx)]
        assert mu1(sub, wsub) <= mu1(A, w) + 1e-12
        assert muinf(sub, wsub) <= muinf(A, w) + 1e-12


def test_worst_case_trivial_cases():
    rng = np.random.default_rng(5)
    A = random_matrix(rng, 4)
    w = random_weights(rng, 4)
    c = rng.normal(size=4)
    for side in (LEFT, RIGHT):
        spec = PolytopeSpec(A, c, SlopeInterval(1.0, 1.0), side)
        for fam in (L1, LINF):
            expected = log_norm(np.diag(c) + A, fam, w)
            assert worst_case_mu(spec, fam, w) == pytest.approx(expected, abs=1e-12)
    for side in (LEFT, RIGHT):
        spec = PolytopeSpec(-np.eye(3), np.zeros(3), SlopeInterval(1.0, 2.0), side)
        for fam in (L1, LINF):
            assert worst_case_mu(spec, fam) == pytest.approx(-1.0, abs=1e-12)


def test_worst_case_matches_vertex_enumeration():
    rng = np.random.default_rng(6)
    for k in range(60):
        n = int(rng.integers(2, 9))
        A = random_matrix(rng, n)
        c = rng.normal(size=n)
        w = random_weights(rng, n)
        d1, d2 = random_slope_pair(rng, SLOPE_PATTERNS[k % 3])
        for side in (LEFT, RIGHT):
            spec = PolytopeSpec(A, c, SlopeInterval(d1, d2), side)
            for fam in (L1, LINF):
                closed = worst_case_mu(spec, fam, w)
                brute = brute_force_worst_case(spec, fam, w)
                assert closed == pytest.approx(brute, abs=1e-10)


def _reference_brute_force(spec, family, w):
    """brute_force_worst_case before the blocked enumerator: every vertex
    matrix in one stack, and the log norms written out by hand."""
    d1, d2 = spec.slopes.d1, spec.slopes.d2
    bits = np.array(list(itertools.product((d1, d2), repeat=spec.n)))
    if spec.side == LEFT:
        Ms = bits[:, :, None] * spec.A[None, :, :]
    else:
        Ms = spec.A[None, :, :] * bits[:, None, :]
    Ms = Ms + np.diag(spec.c)[None, :, :]
    if family == L2:
        r = np.sqrt(w)
        S = (r[None, :, None] * Ms) / r[None, None, :]
        H = 0.5 * (S + np.transpose(S, (0, 2, 1)))
        return float(np.max(np.linalg.eigvalsh(H)))
    if family == L1:
        Ms = np.transpose(Ms, (0, 2, 1))
    off = np.abs(Ms)
    diag = np.einsum("kii->ki", Ms)
    idx = np.arange(spec.n)
    off[:, idx, idx] = 0.0
    return float(np.max(diag + (off @ w) / w[None, :]))


@pytest.mark.parametrize("batch", [None, 1000])
def test_brute_force_is_bit_identical_to_reference(batch, monkeypatch):
    # batch = 1000 splits each enumeration into blocks of 6 to 250 vertices.
    if batch is not None:
        monkeypatch.setattr(lognorm_mod, "VERTEX_BATCH", batch)
    rng = np.random.default_rng(6)
    cases = []
    for k in range(60):
        n = int(rng.integers(2, 9))
        cases.append((random_matrix(rng, n), rng.normal(size=n), random_weights(rng, n),
                      random_slope_pair(rng, SLOPE_PATTERNS[k % 3])))
    for k in range(3):
        cases.append((random_matrix(rng, 12), rng.normal(size=12), random_weights(rng, 12),
                      random_slope_pair(rng, SLOPE_PATTERNS[k])))
    for A, c, w, (d1, d2) in cases:
        for side in (LEFT, RIGHT):
            spec = PolytopeSpec(A, c, SlopeInterval(d1, d2), side)
            for fam in (L1, LINF, L2):
                assert brute_force_worst_case(spec, fam, w) == _reference_brute_force(spec, fam, w)


def test_brute_force_memory_is_bounded():
    # One stack of all 2^16 vertex matrices of a 16 x 16 input is 134 MB.
    rng = np.random.default_rng(8)
    spec = PolytopeSpec(random_matrix(rng, 16), rng.normal(size=16),
                        SlopeInterval(-0.5, 1.5), LEFT)
    tracemalloc.start()
    try:
        brute_force_worst_case(spec, L1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_brute_force_scalar_and_guard():
    spec = PolytopeSpec(np.array([[2.0]]), np.array([-1.0]), SlopeInterval(-2.0, 3.0), LEFT)
    assert brute_force_worst_case(spec, L1) == pytest.approx(-1.0 + 3.0 * 2.0, abs=1e-12)
    rng = np.random.default_rng(17)
    A = random_matrix(rng, 3)
    c = rng.normal(size=3)
    single = PolytopeSpec(A, c, SlopeInterval(0.4, 0.4), RIGHT)
    assert brute_force_worst_case(single, LINF) == pytest.approx(
        muinf(np.diag(c) + 0.4 * A), abs=1e-12
    )
    spec = PolytopeSpec(np.array([[-2.0]]), np.array([0.5]), SlopeInterval(-1.0, 3.0), RIGHT)
    assert brute_force_worst_case(spec, LINF) == pytest.approx(0.5 + 2.0, abs=1e-12)
    big = PolytopeSpec(np.eye(21), np.zeros(21), SlopeInterval(0.0, 1.0), LEFT)
    with pytest.raises(ValueError):
        brute_force_worst_case(big, L1)


def test_brute_force_l2_budget_counts_eigenvalue_work(monkeypatch):
    # An l2 vertex costs an n^3 eigenvalue solve: 2^17 * 17^3 exceeds the
    # 2^20 * 20^2 budget, so n = 17 raises before any solve, where counting
    # n^2 per vertex let it run (n = 20 took 38.5 s).
    def no_solve(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    rng = np.random.default_rng(9)
    for n in (17, 20):
        spec = PolytopeSpec(random_matrix(rng, n), rng.normal(size=n),
                            SlopeInterval(0.0, 1.0), RIGHT)
        with pytest.raises(ValueError, match=r"budget of 20 slopes and 2\^20 \* 20\^2"):
            brute_force_worst_case(spec, L2)


def test_brute_force_l2_vertex_max():
    rng = np.random.default_rng(7)
    A = random_matrix(rng, 3)
    c = rng.normal(size=3)
    w = random_weights(rng, 3)
    spec = PolytopeSpec(A, c, SlopeInterval(-0.5, 1.5), LEFT)
    got = brute_force_worst_case(spec, L2, w)
    best = -np.inf
    for bits in itertools.product((-0.5, 1.5), repeat=3):
        M = np.diag(c) + np.diag(bits) @ A
        best = max(best, mu2(M, w))
    assert got == pytest.approx(best, abs=1e-12)


def test_worst_case_rejects_l2():
    spec = PolytopeSpec(np.eye(2), np.zeros(2), SlopeInterval(0.0, 1.0), LEFT)
    with pytest.raises(ValueError):
        worst_case_mu(spec, L2)


def test_scaling_identity_known_and_random():
    lhs, rhs = scaled_majorant_identity(1.0, DAMPED_SPIRAL)
    np.testing.assert_allclose(lhs, metzler_majorant(DAMPED_SPIRAL), atol=1e-12)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    lhs, rhs = scaled_majorant_identity(-1.0, [[2.0, 3.0], [-4.0, 5.0]])
    np.testing.assert_allclose(lhs, [[-2.0, 3.0], [4.0, -5.0]], atol=1e-12)
    np.testing.assert_allclose(rhs, lhs, atol=1e-12)

    lhs, rhs = scaled_majorant_identity(0.0, [[2.0, 3.0], [-4.0, 5.0]])
    np.testing.assert_allclose(lhs, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(rhs, np.zeros((2, 2)), atol=1e-12)

    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        g = float(rng.normal(scale=2.0))
        A = random_matrix(rng, n)
        lhs, rhs = scaled_majorant_identity(g, A)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_envelope_simplified_forms_match_general():
    # When dbar equals d2 (or -d1) the general envelope reduces to one
    # endpoint matrix plus one diagonal-corrected matrix; both writings must
    # give the same pair.
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = random_matrix(rng, n)
        c = rng.normal(size=n)
        diag_A = np.diag(np.diag(A))
        C = np.diag(c)

        d1, d2 = random_slope_pair(rng, "positive")  # dbar = d2
        spec = PolytopeSpec(A, c, SlopeInterval(d1, d2), RIGHT)
        M1, M2 = envelope_matrices(spec, LINF)
        np.testing.assert_allclose(M2, C + d2 * A, atol=1e-12)
        np.testing.assert_allclose(M1, C + d2 * A - (d2 - d1) * diag_A, atol=1e-12)

        d1, d2 = random_slope_pair(rng, "negative")  # dbar = -d1
        spec = PolytopeSpec(A, c, SlopeInterval(d1, d2), RIGHT)
        M1, M2 = envelope_matrices(spec, LINF)
        # The simplified pair flips off-diagonal signs relative to the general
        # pair; the Metzler majorants (and hence the log norms) coincide.
        S1 = C + d1 * A
        S2 = C + d1 * A - (d1 - d2) * diag_A
        np.testing.assert_allclose(metzler_majorant(M1), metzler_majorant(S1), atol=1e-12)
        np.testing.assert_allclose(metzler_majorant(M2), metzler_majorant(S2), atol=1e-12)
        w = random_weights(rng, n)
        got = worst_case_mu(spec, LINF, w)
        simplified = max(log_norm(S1, LINF, w), log_norm(S2, LINF, w))
        assert got == pytest.approx(simplified, abs=1e-12)


def test_envelope_adds_the_diagonal_in_place_bit_for_bit():
    # The envelope kernel adds c and the diagonal correction to the diagonals
    # in place: each diagonal entry is the dense formula's bit for bit, and an
    # off-diagonal entry equals it, differing at most in the sign of a zero.
    # A Fortran-ordered A gets its diagonal updated all the same.
    rng = np.random.default_rng(27)
    for trial in range(40):
        n = int(rng.integers(1, 9))
        A = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6)
        c = rng.normal(size=n) * (rng.random(n) < 0.7)
        d1 = float(rng.uniform(-1.0, 1.0))
        slopes = SlopeInterval(d1, d1 + float(rng.uniform(0.0, 2.0)))
        dbar = max(abs(slopes.d1), abs(slopes.d2))
        for side, family in itertools.product((LEFT, RIGHT), (L1, LINF)):
            C = np.diag(c)
            if (side, family) in ((RIGHT, L1), (LEFT, LINF)):
                want = [C + d * A for d in (slopes.d1, slopes.d2)]
            else:
                want = [C + dbar * A - (dbar - d) * np.diag(np.diag(A))
                        for d in (slopes.d1, slopes.d2)]
            got = envelope_matrices(PolytopeSpec(A, c, slopes, side), family)
            kernel = lognorm_mod._envelope(np.asfortranarray(A), c, slopes, side, family)
            for G, K, W in zip(got, kernel, want):
                assert np.diagonal(G).tobytes() == np.diagonal(W).tobytes()
                assert np.diagonal(K).tobytes() == np.diagonal(W).tobytes()
                np.testing.assert_array_equal(G, W)
                np.testing.assert_array_equal(K, W)


def test_weighted_norm_conventions():
    w = np.array([2.0, 0.5])
    x = np.array([1.0, -4.0])
    assert weighted_norm(x, L1, w) == pytest.approx(2.0 + 2.0)
    assert weighted_norm(x, LINF, w) == pytest.approx(max(1.0 / 2.0, 4.0 / 0.5))
    assert weighted_norm(x, L2, w) == pytest.approx(np.sqrt(2.0 + 8.0))
    X = np.stack([x, 2 * x], axis=1)
    np.testing.assert_allclose(weighted_norm(X, L1, w), [4.0, 8.0])


def test_slope_interval_validation():
    with pytest.raises(ValueError):
        SlopeInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        SlopeInterval(np.inf, np.inf)
    s = SlopeInterval(0.0, np.inf)
    assert not s.bounded
    assert s.contains(SlopeInterval(0.0, 5.0))
    with pytest.raises(ValueError):
        PolytopeSpec(np.eye(2), np.zeros(2), s, LEFT)


def test_kernels_refuse_unknown_families():
    for family in ("l3", "L1", None):
        with pytest.raises(ValueError) as info:
            kernels(family)
        assert str(info.value) == f"unknown norm family {family!r}"
