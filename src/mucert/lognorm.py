"""Diagonally weighted log norms (matrix measures) and their worst-case values
over slope-scaled matrix polytopes.

Weight conventions, used consistently across the package:

* ``mu1(A, w)``   is the log norm for the norm  ||x|| = sum_i w_i |x_i|
  (weight matrix diag(w)):      max_i  A_ii + sum_{j != i} (w_j / w_i) |A_ji|.
* ``muinf(A, w)`` is the log norm for the norm  ||x|| = max_i |x_i| / w_i
  (weight matrix diag(w)^-1):   max_i  A_ii + sum_{j != i} (w_j / w_i) |A_ij|.
* ``mu2(A, w)``   is the log norm for the norm  ||x|| = ||diag(w)^(1/2) x||_2,
  i.e. the least b with  diag(w) A + A^T diag(w) <= 2 b diag(w).

All the network results in :mod:`mucert.networks` are phrased with the vector
`w` appearing inside these formulas, which keeps weight handling uniform.

A log norm is convex, so its maximum over a box of slope scalings sits at a
vertex.  :func:`brute_force_worst_case` and the multivariable-loop solver in
:mod:`mucert.networks` both take it from one enumerator over blocks of
vertices, read by the stacked log-norm kernels under one work budget.
"""

from dataclasses import dataclass

import numpy as np

from .matrices import (_float_or_nan, _floats, _weights_or_ones, as_matrix, as_vector,
                       metzler_majorant)

L1 = "l1"
LINF = "linf"
L2 = "l2"
FAMILIES = (L1, LINF, L2)

LEFT = "left"    # polytope of matrices diag(c) + diag(d) A
RIGHT = "right"  # polytope of matrices diag(c) + A diag(d)

# Vertex enumeration budget: at most VERTEX_MAX_DIM slopes, and no more work
# in all than 2^20 vertices of 20 x 20 matrices, counting n^2 per vertex on
# l1 and linf and n^3 on l2.
VERTEX_MAX_DIM = 20
# Matrix entries per block of vertices: 1 MB per block array, where one stack
# of all 2^16 vertex matrices at n = 16 holds 134 MB.
VERTEX_BATCH = 1 << 17


@dataclass(frozen=True)
class SlopeInterval:
    """Bounds d1 <= d2 on the difference quotients of a scalar activation.

    d1 must be finite; d2 may be +inf (activations with unbounded slope).
    Both are read by `matrices._float_or_nan` and stored as floats: a bool,
    a string or an integer beyond the float range is refused as a bound that
    is not a number, with ValueError.
    """

    d1: float
    d2: float

    def __post_init__(self):
        d1, d2 = _float_or_nan(self.d1), _float_or_nan(self.d2)
        if not np.isfinite(d1):
            raise ValueError(f"lower slope bound d1 must be finite, got {self.d1!r}")
        if np.isnan(d2) or d2 == -np.inf:
            raise ValueError(f"upper slope bound d2 must be a number or +inf, got {self.d2!r}")
        if d1 > d2:
            raise ValueError(f"slope interval needs d1 <= d2, got [{d1}, {d2}]")
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)

    @property
    def bounded(self) -> bool:
        return np.isfinite(self.d2)

    def contains(self, other: "SlopeInterval") -> bool:
        return self.d1 <= other.d1 and other.d2 <= self.d2

    def least_product(self, p) -> np.ndarray:
        """Entrywise least value of s * p over s in [d1, d2], taking 0 * inf
        as 0: d1 * p where p >= 0, d2 * p where p < 0."""
        p = np.asarray(p, dtype=float)
        return np.where(p < 0.0, self.d2, self.d1) * p


def _check_slopes(slopes) -> SlopeInterval:
    """`slopes`, once it is a SlopeInterval; TypeError otherwise.  Every
    network model and `PolytopeSpec` calls it when it is constructed."""
    if not isinstance(slopes, SlopeInterval):
        raise TypeError(f"slopes must be a SlopeInterval, got {type(slopes).__name__}")
    return slopes


@dataclass(frozen=True)
class PolytopeSpec:
    """The matrix polytope {diag(c) + diag(d) A : d in [d1, d2]^n} (side="left")
    or {diag(c) + A diag(d) : ...} (side="right"), with finite slope bounds."""

    A: np.ndarray
    c: np.ndarray
    slopes: SlopeInterval
    side: str

    def __post_init__(self):
        A = as_matrix(self.A)
        c = as_vector(self.c, A.shape[0])
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be '{LEFT}' or '{RIGHT}', got {self.side!r}")
        if not _check_slopes(self.slopes).bounded:
            raise ValueError("polytope operations require a finite upper slope bound")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _offdiag_abs(A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|A| with each matrix's diagonal zeroed: the off-diagonal magnitudes
    that the l1 and linf log norms sum, written into `out` if given, which
    may be A itself."""
    off = np.abs(A, out=out)
    i = np.arange(A.shape[-1])
    off[..., i, i] = 0.0
    return off


# Kernels: one formula per family, on an already validated finite square
# matrix A (or (n, p) array X of column vectors) and weight vector w.  They
# also take stacks and work on the last two axes: a (k, n, n) stack of
# matrices gives the k log norms, and a (k, n, p) stack of column vectors,
# such as the pair differences of a verification state block, gives (k, p)
# norms.  Each slice's value is bit-identical to the kernel on that slice
# alone, provided each slice is C-contiguous.


def _mu1(A: np.ndarray, w: np.ndarray):
    return _mu1_split(np.diagonal(A, 0, -2, -1), _offdiag_abs(A), w)


def _muinf(A: np.ndarray, w: np.ndarray):
    return _muinf_split(np.diagonal(A, 0, -2, -1), _offdiag_abs(A), w)


# The l1 and linf kernels on a matrix split into its diagonal d and its
# off-diagonal magnitudes `off` (`_offdiag_abs`): both log norms of one
# matrix read one `off`, which its owner may have written over the matrix.


def _mu1_split(d: np.ndarray, off: np.ndarray, w: np.ndarray):
    return (d + (w @ off) / w).max(axis=-1)


def _muinf_split(d: np.ndarray, off: np.ndarray, w: np.ndarray):
    return (d + (off @ w) / w).max(axis=-1)


_SPLIT_KERNELS = {L1: _mu1_split, LINF: _muinf_split}


def _mu2(A: np.ndarray, w: np.ndarray):
    r = np.sqrt(w)
    S = (r[:, None] * A) / r[None, :]
    return np.linalg.eigvalsh(0.5 * (S + S.swapaxes(-1, -2))).max(axis=-1)


def _norm1(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    return w @ np.abs(X)


def _norminf(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (np.abs(X) / w[:, None]).max(axis=-2)


def _norm2(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.sqrt(w @ (X * X))


_KERNELS = {L1: (_mu1, _norm1), LINF: (_muinf, _norminf), L2: (_mu2, _norm2)}


def kernels(family: str):
    """The (log norm, column vector norms) kernels of a norm family.

    They skip all validation, for loops that validate their weights once;
    :func:`log_norm` and :func:`weighted_norm` are the checked entry points.
    """
    try:
        return _KERNELS[family]
    except KeyError:
        raise ValueError(f"unknown norm family {family!r}") from None


def mu1(A, weights=None) -> float:
    """Weighted l1 log norm: max over columns of A_ii + sum_{j!=i} (w_j/w_i)|A_ji|."""
    A = as_matrix(A)
    return float(_mu1(A, _weights_or_ones(weights, A.shape[0])))


def muinf(A, weights=None) -> float:
    """Weighted linf log norm: max over rows of A_ii + sum_{j!=i} (w_j/w_i)|A_ij|.

    The weight matrix is diag(weights)^-1; see the module docstring.
    """
    A = as_matrix(A)
    return float(_muinf(A, _weights_or_ones(weights, A.shape[0])))


def mu2(A, weights=None) -> float:
    """Weighted l2 log norm: largest eigenvalue of the symmetrized similarity
    (1/2)(S + S^T) with S = diag(w)^(1/2) A diag(w)^(-1/2)."""
    A = as_matrix(A)
    return float(_mu2(A, _weights_or_ones(weights, A.shape[0])))


def log_norm(A, family: str, weights=None) -> float:
    mu = kernels(family)[0]
    A = as_matrix(A)
    return float(mu(A, _weights_or_ones(weights, A.shape[0])))


def weighted_norm(x, family: str, weights=None):
    """Vector norm matching :func:`log_norm`'s conventions.

    Accepts a single vector or a 2-D array of column vectors (norms are taken
    per column).
    """
    x = _floats(x, "vector", copy=False)
    w = _weights_or_ones(weights, x.shape[0])
    norm = kernels(family)[1]
    if x.ndim == 1:
        return float(norm(x[:, None], w)[0])
    return norm(x, w)


def _scales_summed_lines(side, family: str) -> bool:
    """Whether slopes on `side` scale the lines that the `family` log norm
    sums: the columns (right side) on l1, the rows (left side) on linf.
    Side None (the slopes on C, or one slope per entry of A) scales no line
    of A as a whole."""
    return (family == L1 and side == RIGHT) or (family == LINF and side == LEFT)


def envelope_matrices(spec: PolytopeSpec, family: str) -> tuple[np.ndarray, np.ndarray]:
    """The two matrices whose fixed-weight log norms majorize the whole polytope.

    For (linf, left) and (l1, right) these are the slope-endpoint matrices
    diag(c) + d_k A.  For the other two combinations they are
    diag(c) + dbar A - (dbar - d_k) (I o A)  with  dbar = max(|d1|, |d2|),
    which absorbs the sign of the scaling into the diagonal.
    """
    return _envelope(spec.A, spec.c, spec.slopes, spec.side, family)


def _envelope(A, c, slopes, side, family: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`envelope_matrices` of the polytope of an already validated
    finite square A, vector c and bounded slopes, without a `PolytopeSpec`.
    c and the diagonal correction are added to the diagonals in place: each
    diagonal entry is the same IEEE expression as through diag(c) and I o A,
    and an off-diagonal entry can differ from it only in the sign of a zero.

    Side None is a third case: the per-entry box {diag(c) + D o A : each
    D_ij in [d1, d2]}, where no line of A is scaled as a whole.  Both norms
    then take the dbar pair, off-diagonal dbar A with the diagonals d1 a_ii
    and d2 a_ii, whose largest log norm is the box's worst case."""
    if family not in (L1, LINF):
        raise ValueError("worst-case polytope values are defined for l1/linf only")
    d1, d2 = slopes.d1, slopes.d2
    endpoints = _scales_summed_lines(side, family)
    dbar = max(abs(d1), abs(d2))
    pair = (d1 * A, d2 * A) if endpoints else (dbar * A, dbar * A)
    for M, d in zip(pair, (d1, d2)):
        diag = np.einsum("ii->i", M)  # a writable view
        diag += c
        if not endpoints:
            diag -= (dbar - d) * np.diag(A)
    return pair


def worst_case_mu(spec: PolytopeSpec, family: str, weights=None) -> float:
    """Exact maximum of the fixed-weight log norm over the polytope,
    evaluated from the two envelope matrices instead of all 2^n vertices."""
    M1, M2 = envelope_matrices(spec, family)
    return max(log_norm(M1, family, weights), log_norm(M2, family, weights))


def _vertex_max(stack, count: int, slopes: SlopeInterval, family: str, w: np.ndarray) -> float:
    """Max of the `family` log norm at weights w over the matrices stack(D),
    D running over {d1, d2}^count in itertools.product order as (k, count)
    blocks of at most VERTEX_BATCH entries; stack(D) is a (k, n, n) stack.
    Raises ValueError unless count <= 20 and 2^count vertices of n^2 work each
    (n^3 on l2, one eigenvalue solve per vertex) stay within 2^20 * 20^2."""
    mu = kernels(family)[0]
    n = w.size
    work = n**3 if family == L2 else n * n
    if count > VERTEX_MAX_DIM or work << count > VERTEX_MAX_DIM**2 << VERTEX_MAX_DIM:
        raise ValueError(f"vertex enumeration over 2^{count} vertices of {n}x{n} matrices "
                         "exceeds its budget of 20 slopes and 2^20 * 20^2 work units "
                         "(n^2 per vertex, n^3 on l2)")
    shifts = np.arange(count - 1, -1, -1)
    block = max(1, VERTEX_BATCH // max(n * n, count))
    best = -np.inf
    for start in range(0, 1 << count, block):
        bits = (np.arange(start, min(start + block, 1 << count))[:, None] >> shifts) & 1
        best = np.maximum(best, mu(stack(np.where(bits, slopes.d2, slopes.d1)), w).max())
    return float(best)


def brute_force_worst_case(spec: PolytopeSpec, family: str, weights=None) -> float:
    """Max of the fixed-weight log norm over all 2^n vertex scalings.

    Independent of :func:`worst_case_mu` by construction; guarded by the
    vertex budget at n <= VERTEX_MAX_DIM on l1 and linf, and at n <= 16 on
    l2, whose n^3 eigenvalue work per vertex counts against the same budget.
    """
    A, C = spec.A, np.diag(spec.c)
    if spec.side == LEFT:
        stack = lambda D: C + D[:, :, None] * A
    else:
        stack = lambda D: C + A * D[:, None, :]
    return _vertex_max(stack, spec.n, spec.slopes, family, _weights_or_ones(weights, spec.n))


def scaled_majorant_identity(gamma: float, A) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the scaling identity for Metzler majorants:
    the majorant of gamma*A, and the majorant of |gamma|*A - (|gamma|-gamma)(I o A).
    The two returned matrices are entrywise equal.  A gamma that is not a
    finite number (read as NaN by `matrices._float_or_nan`) makes their
    entries non-finite, and `metzler_majorant` refuses them with ValueError."""
    A = as_matrix(A)
    g = _float_or_nan(gamma)
    lhs = metzler_majorant(g * A)
    rhs = metzler_majorant(abs(g) * A - (abs(g) - g) * np.diag(np.diag(A)))
    return lhs, rhs
