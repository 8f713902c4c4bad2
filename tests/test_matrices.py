
import re

import numpy as np
import pytest
import scipy.sparse.csgraph

from mucert import (
    Activation,
    Hopfield,
    MultiLure,
    PolytopeSpec,
    SlopeInterval,
    metzler_majorant,
    nonneg_metzler_majorant,
    pad,
    principal_submatrix,
)
from mucert.matrices import (
    as_matrix,
    as_vector,
    as_weights,
    check_diagonal,
    is_metzler,
    strong_blocks,
)
from mucert.spectral import NumericalError, _resolvent_weights, is_irreducible

from helpers import DAMPED_SPIRAL, SKEW_RING, closure_reference

ATOL = 1e-12


def test_metzler_majorant_known_values():
    np.testing.assert_allclose(
        metzler_majorant([[1, 1], [-1, 1]]), [[1, 1], [1, 1]], atol=ATOL
    )
    D = np.diag([3.0, -2.0, 0.5])
    np.testing.assert_allclose(metzler_majorant(D), D, atol=ATOL)
    np.testing.assert_allclose(
        metzler_majorant(DAMPED_SPIRAL), [[-1, 1], [2, -1]], atol=ATOL
    )


def test_nonneg_majorant_known_values():
    np.testing.assert_allclose(
        nonneg_metzler_majorant(DAMPED_SPIRAL), [[0, 1], [2, 0]], atol=ATOL
    )
    Z = np.zeros((3, 3))
    np.testing.assert_allclose(nonneg_metzler_majorant(Z), Z, atol=ATOL)
    N = np.array([[0.5, 1.0], [2.0, 0.0]])
    np.testing.assert_allclose(nonneg_metzler_majorant(N), N, atol=ATOL)


def test_majorant_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(1, 8)
        A = rng.normal(size=(n, n))
        M = metzler_majorant(A)
        assert is_metzler(M)
        np.testing.assert_allclose(metzler_majorant(M), M, atol=ATOL)
        off = ~np.eye(n, dtype=bool)
        assert np.all(M[off] >= A[off])
        np.testing.assert_allclose(np.diag(M), np.diag(A), atol=ATOL)
        assert np.all(nonneg_metzler_majorant(A) >= M - ATOL)


def test_principal_submatrix():
    A = np.arange(9, dtype=float).reshape(3, 3)
    np.testing.assert_allclose(
        principal_submatrix(A, (0, 2)), [[A[0, 0], A[0, 2]], [A[2, 0], A[2, 2]]]
    )
    np.testing.assert_allclose(principal_submatrix(A, (0, 1, 2)), A)
    np.testing.assert_allclose(
        principal_submatrix(SKEW_RING, (1, 2)), [[0.0, 15.0], [-15.0, 0.0]]
    )


def test_pad():
    np.testing.assert_allclose(pad([4.0, 7.0], (0, 2), 3), [4.0, 0.0, 7.0])
    np.testing.assert_allclose(pad([1.0, 2.0], (0, 1), 2), [1.0, 2.0])
    np.testing.assert_allclose(pad([0.0, 0.0], (1, 3), 5), np.zeros(5))


def test_pad_then_restrict_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        idx = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        y = rng.normal(size=k)
        np.testing.assert_allclose(pad(y, idx, n)[list(idx)], y, atol=ATOL)


def test_validation_errors():
    with pytest.raises(ValueError):
        as_matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_weights([1.0, 0.0])
    with pytest.raises(IndexError):
        principal_submatrix(np.eye(2), (0, 2))
    with pytest.raises(ValueError):
        principal_submatrix(np.eye(3), (2, 0))
    with pytest.raises(ValueError):
        pad([1.0], (0, 1), 3)
    with pytest.raises(ValueError):
        check_diagonal([[1.0, 1e-15], [0.0, 1.0]])
    with pytest.raises(ValueError):
        check_diagonal([[-1.0, 0.0], [0.0, 1.0]])


def test_is_irreducible_matches_closure_reference():
    # One strongly connected block iff the closure of the nonzero pattern is
    # all true.
    rng = np.random.default_rng(15)
    dense = rng.uniform(0.1, 1.0, size=(6, 6))
    one_zero = dense.copy()
    one_zero[2, 4] = 0.0
    triangular = np.triu(dense)  # reducible: block-triangular with 1x1 blocks
    blocks = dense.copy()
    blocks[3:, :3] = 0.0  # two irreducible 3x3 blocks, the first fed by the second
    cases = [
        np.array([[0.0]]),
        np.array([[-2.5]]),
        dense,
        -dense,
        np.diag(rng.normal(size=5)),
        np.zeros((4, 4)),
        one_zero,
        triangular,
        blocks,
        blocks.T,
        np.asfortranarray(blocks),
    ]
    for A in cases:
        assert is_irreducible(A) == closure_reference(A).all()
    assert is_irreducible(dense) and not is_irreducible(blocks)
    assert len(strong_blocks(one_zero)) == 1 and len(strong_blocks(triangular)) == 6


def _layered(rng, widths, density):
    """A feed-forward pattern: dense layers, each fed by every later layer
    at the given density and by none before it."""
    n = sum(widths)
    bounds = np.cumsum([0] + widths)
    A = np.zeros((n, n))
    for a, b in zip(bounds[:-1], bounds[1:]):
        A[a:b, a:] = rng.normal(size=(b - a, n - a)) * (rng.random((b - a, n - a)) < density)
        A[a:b, a:b] = rng.uniform(0.1, 1.0, size=(b - a, b - a))
    return A


def test_strong_blocks_match_csgraph_in_dependency_order():
    rng = np.random.default_rng(16)
    cases = []
    for trial in range(80):
        n = int(rng.integers(1, 25))
        cases.append(rng.normal(size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.02, 0.4)))
    chain = np.diag(np.ones(599), 1)  # i feeds i + 1 only: 600 single-index blocks
    layered = _layered(rng, [5, 1, 12, 3, 7], 0.3)
    cases += [chain, chain.T, layered]
    cases.append(rng.normal(size=(1024, 1024)) * (rng.random((1024, 1024)) < 0.01))
    for A in cases:
        n = A.shape[0]
        blocks = strong_blocks(A)
        _, label = scipy.sparse.csgraph.connected_components(A != 0.0, connection="strong")
        assert sorted(B.tolist() for B in blocks) == sorted(
            np.flatnonzero(label == k).tolist() for k in np.unique(label))
        assert all(np.all(np.diff(B) > 0) for B in blocks)  # each ascending
        # Each row of a block reads only its own block and blocks before it;
        # in the transposed pattern the reverse order has that property.
        for order, M in ((blocks, A), (blocks[::-1], A.T)):
            done = np.zeros(n, dtype=bool)
            for B in order:
                done[B] = True
                assert not np.any(M[B][:, ~done])
    assert len(strong_blocks(chain)) == 600
    assert [B.size for B in strong_blocks(layered)] == [7, 3, 12, 1, 5]


def test_block_resolvent_solves_the_whole_system():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(2, 16))
        M = np.abs(rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.3)
        np.fill_diagonal(M, rng.normal(size=n))
        b = float(np.max(np.linalg.eigvals(M).real)) + rng.uniform(0.1, 1.0)
        blocks = strong_blocks(M)
        w = _resolvent_weights(M, blocks, b)
        assert np.all(w > 0.0)
        np.testing.assert_allclose((b * np.eye(n) - M) @ w, 1.0, rtol=1e-9, atol=0.0)
        wt = _resolvent_weights(M, blocks, b, left=True)
        np.testing.assert_allclose((b * np.eye(n) - M.T) @ wt, 1.0, rtol=1e-9, atol=0.0)
    with pytest.raises(NumericalError):
        _resolvent_weights(np.zeros((2, 2)), strong_blocks(np.zeros((2, 2))), 0.0)


def test_integers_beyond_the_float_range_are_not_finite():
    # numpy and float() raise OverflowError on them; the constructors refuse
    # them as non-finite values instead.
    big = 10**400
    slopes = SlopeInterval(0, 1)
    cases = [
        (lambda: as_vector([big]), "vector entries must be finite"),
        (lambda: as_matrix([[1, -big]]), "matrix entries must be finite"),
        (lambda: as_weights([1.0, big]), "vector entries must be finite"),
        (lambda: Hopfield(C=[[1.0]], A=[[big]], slopes=slopes), "matrix entries must be finite"),
        (lambda: MultiLure([[-1.0]], [[big]], [[1.0]], slopes), "matrix entries must be finite"),
        (lambda: PolytopeSpec([[0.0]], [big], slopes, "left"), "vector entries must be finite"),
        (lambda: SlopeInterval(0, big), "upper slope bound"),
        (lambda: SlopeInterval(-big, 1), "lower slope bound must be finite"),
        (lambda: Activation("linear", k=big), "linear needs a finite gain k"),
        (lambda: Activation("rect_poly", r=big), "rect_poly needs an integer exponent"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
    # The largest float and an integer that rounds to it stay valid.
    top = np.finfo(float).max
    assert SlopeInterval(0, int(top)).d2 == top
    assert Activation("linear", k=-int(top)).k == -int(top)


def test_empty_index_sets_are_refused():
    for make in (lambda: principal_submatrix(np.eye(2), []), lambda: pad([], (), 3)):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == "index set must be nonempty"
