"""Dense matrix primitives: Metzler majorants, principal submatrices, zero padding.

All functions accept anything ``np.array`` can turn into a float array and
validate shape and finiteness up front.  Everything here is pure; inputs are
never mutated.
"""

import math

import numpy as np


def as_matrix(a) -> np.ndarray:
    """Validate and return a finite square float matrix: always a C-ordered
    copy, so that results do not depend on the layout of the input (the
    l1 and linf kernels round differently on a Fortran-ordered matrix)."""
    A = np.array(a, dtype=float, order="C")
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def as_vector(a, n: int | None = None) -> np.ndarray:
    """Validate and return a finite float vector, optionally of length n."""
    v = np.array(a, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if n is not None and v.size != n:
        raise ValueError(f"expected a vector of length {n}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_weights(a, n: int | None = None) -> np.ndarray:
    """Validate a strictly positive weight vector."""
    w = as_vector(a, n)
    if not np.all(w > 0):
        raise ValueError("weight vector entries must be strictly positive")
    return w


def _weights_or_ones(weights, n: int) -> np.ndarray:
    """`as_weights(weights, n)`, or the all-ones weights when `weights` is None."""
    return np.ones(n) if weights is None else as_weights(weights, n)


def is_metzler(A, tol: float = 0.0) -> bool:
    """True iff all off-diagonal entries are >= -tol."""
    A = np.asarray(A, dtype=float)
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    return bool(np.all(off >= -tol))


def reachability(A) -> np.ndarray:
    """Boolean matrix R with R[i, j] true iff i == j or a chain of nonzero
    entries A[i, k1], A[k1, k2], ..., A[km, j] leads from i to j.

    When every off-diagonal entry is nonzero, R is all true and is returned
    at once; otherwise it is the boolean transitive closure of the nonzero
    pattern, by repeated squaring."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    reach = A != 0.0
    np.fill_diagonal(reach, True)
    if reach.all():
        return reach
    for _ in range(int(math.ceil(math.log2(n))) + 1):
        new = reach @ reach
        if np.array_equal(new, reach):
            break
        reach = new
    return reach


def check_diagonal(C, nonneg: bool = True) -> np.ndarray:
    """Validate that C is diagonal (off-diagonal entries exactly zero).

    Certificates for the network models require a genuinely diagonal matrix;
    silently accepting near-diagonal input would invalidate them, so the check
    is exact, not toleranced.
    """
    C = as_matrix(C)
    off = C.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off != 0.0):
        raise ValueError("matrix must be diagonal (off-diagonal entries exactly 0)")
    if nonneg and np.any(np.diag(C) < 0.0):
        raise ValueError("diagonal matrix must have nonnegative entries")
    return C


def metzler_majorant(A) -> np.ndarray:
    """Keep the diagonal of A, replace off-diagonal entries by absolute values."""
    A = as_matrix(A)
    M = np.abs(A)
    np.fill_diagonal(M, np.diag(A))
    return M


def nonneg_metzler_majorant(A) -> np.ndarray:
    """Like :func:`metzler_majorant` but the diagonal is clipped at zero."""
    A = as_matrix(A)
    M = np.abs(A)
    np.fill_diagonal(M, np.maximum(np.diag(A), 0.0))
    return M


def check_index_set(indices, n: int) -> tuple[int, ...]:
    """Validate a nonempty strictly increasing tuple of 0-based indices."""
    idx = tuple(int(i) for i in indices)
    if len(idx) == 0:
        raise ValueError("index set must be nonempty")
    if any(i < 0 or i >= n for i in idx):
        raise IndexError(f"index out of range for dimension {n}: {idx}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"index set must be strictly increasing: {idx}")
    return idx


def principal_submatrix(A, indices) -> np.ndarray:
    """Submatrix keeping the rows and columns listed in `indices` (0-based)."""
    A = as_matrix(A)
    idx = check_index_set(indices, A.shape[0])
    return A[np.ix_(idx, idx)]


def pad(y, indices, n: int) -> np.ndarray:
    """Place the entries of y at the given positions of a length-n zero vector."""
    idx = check_index_set(indices, n)
    y = as_vector(y)
    if y.size != len(idx):
        raise ValueError(f"vector length {y.size} does not match index set size {len(idx)}")
    out = np.zeros(n)
    out[list(idx)] = y
    return out
