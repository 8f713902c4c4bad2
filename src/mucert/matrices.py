"""Dense matrix primitives: Metzler majorants, principal submatrices, zero
padding, and the package's one reader of input numbers.

The number rule: an input number is a real number (a `numbers.Real`: an
int, a float, a numpy integer or floating scalar) other than a bool or an
np.bool_.  Strings, bytes, None and any other type are not numbers either,
even where numpy or float() would read them as one ("1.5" as 1.5, True as
1).  An integer beyond the float range is a number but not a finite one.
Every array input of the package is read by `_floats`, which refuses an
entry that is not a number, and every scalar by `_float_or_nan`, which
reads it as NaN, so that the site's own finiteness or range check refuses
it with its own message; `_check_integers` is the rule for integer counts,
budgets, seeds and indices.  The command line reads its files through the same
functions, so a model file and a library call accept the same numbers.

All functions here validate shape and finiteness up front.  Everything here
is pure; inputs are never mutated.  The resolvent solve over
:func:`strong_blocks` is `spectral._resolvent_weights`, the package's one.
"""

import numbers
from itertools import filterfalse

import numpy as np


def as_matrix(a) -> np.ndarray:
    """Validate and return a finite square float matrix: always a C-ordered
    copy, so that results do not depend on the layout of the input (the
    l1 and linf kernels round differently on a Fortran-ordered matrix)."""
    return _checked_square(_floats(a, "matrix"))


def _floats(a, kind: str, copy: bool = True) -> np.ndarray:
    """``np.array(a, dtype=float, order="C")``, or without `copy`
    ``np.asarray(a, dtype=float)``, which returns a float array itself, once
    every entry of `a` is a number (see the module docstring).  An ndarray
    of integer or floating dtype costs one dtype test; any other input is
    walked, nested lists, tuples and arrays of other dtypes (bool, string,
    bytes, object) entry by entry.  An entry that is not a number is refused
    as "entries of `kind` must be numbers", and an integer beyond the float
    range, for which numpy raises OverflowError, as a non-finite `kind`
    entry."""
    items = [] if isinstance(a, np.ndarray) and a.dtype.kind in "iuf" else [a]
    for x in items:  # grows as nested sequences and arrays are walked
        if isinstance(x, (list, tuple, np.ndarray)):
            items.extend(x.ravel().tolist() if isinstance(x, np.ndarray) else x)
        elif type(x) not in (float, int) and not _is_number(x):
            raise ValueError(f"entries of {kind} must be numbers, got {x!r}")
    try:
        return np.array(a, dtype=float, order="C") if copy else np.asarray(a, dtype=float)
    except OverflowError:
        raise ValueError(f"{kind} entries must be finite") from None


def _is_number(x) -> bool:
    """Whether the scalar x is a number by the module's rule: a real number
    other than a bool or an np.bool_."""
    return isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_))


def _float_or_nan(x) -> float:
    """float(x) for a number x (see the module docstring), and NaN for
    anything else, a bool, an np.bool_, a string or any other type, and for
    an integer beyond the float range: so that the caller's finiteness or
    range check refuses it with the caller's own message."""
    try:
        return float(x) if _is_number(x) else np.nan
    except OverflowError:
        return np.nan


def _check_integers(*checks):
    """Raise ValueError unless the value of each (name, value, least) is an
    integer (a bool is not one) of at least `least`: the number rule for
    counts, budgets, seeds and indices."""
    for name, value, least in checks:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _checked_square(A: np.ndarray) -> np.ndarray:
    """A itself, once it is checked to be a finite square matrix."""
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def as_vector(a, n: int | None = None) -> np.ndarray:
    """Validate and return a finite float vector, optionally of length n."""
    v = _floats(a, "vector")
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
    """True iff all off-diagonal entries are >= -tol.  Raises ValueError
    unless `tol` is a finite nonnegative number (a bool or a string is not
    one)."""
    if not 0.0 <= _float_or_nan(tol) < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    ok = _floats(A, "matrix", copy=False) >= -float(tol)
    np.fill_diagonal(ok, True)
    return bool(ok.all())


def strong_blocks(A) -> list[np.ndarray]:
    """Index arrays, each ascending, of the strongly connected blocks of the
    nonzero pattern of a square A, where i reaches j along a chain of nonzero
    entries A[i, k1], A[k1, k2], ..., A[km, j].  Each block comes after every
    block it reaches (the Frobenius normal form's order), so the transposed
    pattern has the same blocks in the reverse order.  A pattern with every
    off-diagonal entry nonzero is one block at once; any other takes one
    iterative depth-first search in O(n + nonzeros) (R. Tarjan, SIAM J.
    Comput. 1, 1972), which emits a block as soon as the search leaves its
    root, and so after every block the root reaches."""
    pattern = np.asarray(A) != 0.0
    n = pattern.shape[0]
    np.fill_diagonal(pattern, True)
    if pattern.all():
        return [np.arange(n)]
    heads = np.nonzero(pattern)[1].tolist()  # row by row: where i's edges go
    ends = np.cumsum(np.count_nonzero(pattern, axis=1)).tolist()
    succ = [heads[a:b] for a, b in zip([0] + ends, ends)]  # each holds its own index
    order, low = [0] * n, [0] * n  # discovery number (0: unseen), low link
    unseen = [filterfalse(order.__getitem__, s) for s in succ]  # lazily, as order fills
    stack, blocks, count = [], [], 0
    for root in range(n):
        path = [] if order[root] else [root]
        while path:
            v = path[-1]
            if not order[v]:
                count += 1
                order[v] = low[v] = count
                stack.append(v)
            w = next(unseen[v], None)
            if w is not None:
                path.append(w)
                continue
            # Every successor is seen: one in an emitted block has low n + 1,
            # any other is in v's block or one still open below it.
            path.pop()
            low[v] = min(map(low.__getitem__, succ[v]))
            if low[v] == order[v]:  # v is a root: its block is on top
                k = len(stack) - 1
                while stack[k] != v:
                    k -= 1
                blocks.append(np.sort(stack[k:]))
                for w in stack[k:]:
                    low[w] = n + 1
                del stack[k:]
    return blocks


def _invertible(M: np.ndarray) -> bool:
    """Whether a finite square M has full numerical rank, the answer of
    ``np.linalg.matrix_rank(M) == n``, mostly without its SVD.

    M is scaled to B by the power of two that puts max|B| in [0.5, 1): the
    scaling is exact, B^T B cannot overflow, and its largest entry is at
    least 1/4.  (Unscaled, 32 x 32 matrices times 1e160 or 1e-160 got the
    wrong answer in 26 of 480 cases, with overflow warnings.)  Then
    G = B^T B less 16 n eps max|G| on its diagonal is factored by Cholesky.
    A finite factor puts sigma_min(B) at about sqrt(16 n eps) max|B| or
    above, some eight orders of magnitude over matrix_rank's cut-off
    n eps sigma_max(B): M is invertible.  Any other outcome (a LinAlgError,
    a non-finite factor) is decided by matrix_rank itself, so no answer
    differs from it.  An LU test would need the pivots, which numpy does not
    expose; slogdet gives only their product, which says nothing about the
    smallest one.
    """
    n = M.shape[0]
    B = np.ldexp(M, -np.frexp(max(M.max(), -M.min()))[1])
    G = B.T @ B  # max|G| is its largest entry, on the diagonal
    del B  # freed before the factorization's copy and factor
    G.flat[:: n + 1] -= 16 * n * np.finfo(float).eps * G.max()
    try:
        if np.isfinite(np.linalg.cholesky(G)).all():
            return True
    except np.linalg.LinAlgError:
        pass
    return int(np.linalg.matrix_rank(M)) == n


def check_diagonal(C) -> np.ndarray:
    """Validate that C is diagonal (off-diagonal entries exactly zero) with
    nonnegative entries.

    Certificates for the network models require a genuinely diagonal matrix;
    silently accepting near-diagonal input would invalidate them, so the check
    is exact, not toleranced.
    """
    C = as_matrix(C)
    off = C.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off != 0.0):
        raise ValueError("matrix must be diagonal (off-diagonal entries exactly 0)")
    if np.any(np.diag(C) < 0.0):
        raise ValueError("diagonal matrix must have nonnegative entries")
    return C


def metzler_majorant(A) -> np.ndarray:
    """Keep the diagonal of A, replace off-diagonal entries by absolute values."""
    return _majorant(as_matrix(A))


def _majorant(A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`metzler_majorant` of an already validated matrix, C-ordered
    if A is, written into `out` if given."""
    M = np.abs(A, out=out)
    np.fill_diagonal(M, np.diag(A))
    return M


def nonneg_metzler_majorant(A) -> np.ndarray:
    """Like :func:`metzler_majorant` but the diagonal is clipped at zero."""
    A = as_matrix(A)
    M = np.abs(A)
    np.fill_diagonal(M, np.maximum(np.diag(A), 0.0))
    return M


def check_index_set(indices, n: int) -> tuple[int, ...]:
    """Validate a nonempty strictly increasing tuple of 0-based indices.
    Each index must be an integer >= 0 by `_check_integers` (a bool, a float
    such as 1.0 or a string is not one), else ValueError; one of n or more
    raises IndexError."""
    idx = tuple(indices)
    _check_integers(*(("index", i, 0) for i in idx))
    idx = tuple(map(int, idx))
    if len(idx) == 0:
        raise ValueError("index set must be nonempty")
    if any(i >= n for i in idx):
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
