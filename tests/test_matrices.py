import math

import numpy as np
import pytest
import scipy.sparse.csgraph

from mucert import (
    metzler_majorant,
    nonneg_metzler_majorant,
    pad,
    principal_submatrix,
)
from mucert.matrices import (
    as_matrix,
    as_weights,
    block_resolvent,
    check_diagonal,
    is_metzler,
    reachability,
    strong_blocks,
)

from helpers import DAMPED_SPIRAL, SKEW_RING

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


def _closure_reference(A):
    """Reachability by repeated boolean squaring on every input, as before
    the all-nonzero short-circuit."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    reach = (A != 0.0) | np.eye(n, dtype=bool)
    for _ in range(int(math.ceil(math.log2(n))) + 1):
        new = reach @ reach
        if np.array_equal(new, reach):
            break
        reach = new
    return reach


def test_reachability_matches_closure_reference():
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
        got, want = reachability(A), _closure_reference(A)
        assert got.dtype == want.dtype == bool
        np.testing.assert_array_equal(got, want)
    assert reachability(dense).all() and not reachability(blocks).all()


def test_strong_blocks_match_csgraph_in_dependency_order():
    rng = np.random.default_rng(16)
    for trial in range(80):
        n = int(rng.integers(1, 25))
        A = rng.normal(size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.02, 0.4))
        reach = reachability(A)
        blocks = strong_blocks(reach)
        _, label = scipy.sparse.csgraph.connected_components(A != 0.0, connection="strong")
        assert sorted(sorted(B.tolist()) for B in blocks) == sorted(
            np.flatnonzero(label == k).tolist() for k in np.unique(label))
        # Each row of a block reads only its own block and blocks before it;
        # in the transposed pattern the reverse order has that property.
        for order, M in ((blocks, A), (blocks[::-1], A.T)):
            done = np.zeros(n, dtype=bool)
            for B in order:
                done[B] = True
                assert not np.any(M[B][:, ~done])


def test_block_resolvent_solves_the_whole_system():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(2, 16))
        M = np.abs(rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.3)
        np.fill_diagonal(M, rng.normal(size=n))
        b = float(np.max(np.linalg.eigvals(M).real)) + rng.uniform(0.1, 1.0)
        blocks = strong_blocks(reachability(M))
        w = block_resolvent(M, blocks, b)
        assert np.all(w > 0.0)
        np.testing.assert_allclose((b * np.eye(n) - M) @ w, 1.0, rtol=1e-9, atol=0.0)
        wt = block_resolvent(M.T, blocks[::-1], b)
        np.testing.assert_allclose((b * np.eye(n) - M.T) @ wt, 1.0, rtol=1e-9, atol=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        block_resolvent(np.zeros((2, 2)), strong_blocks(reachability(np.zeros((2, 2)))), 0.0)
