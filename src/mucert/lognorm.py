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
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .matrices import as_matrix, as_vector, as_weights, metzler_majorant

L1 = "l1"
LINF = "linf"
L2 = "l2"
FAMILIES = (L1, LINF, L2)

LEFT = "left"    # polytope of matrices diag(c) + diag(d) A
RIGHT = "right"  # polytope of matrices diag(c) + A diag(d)

BRUTE_FORCE_MAX_DIM = 20


@dataclass(frozen=True)
class SlopeInterval:
    """Bounds d1 <= d2 on the difference quotients of a scalar activation.

    d1 must be finite; d2 may be +inf (activations with unbounded slope).
    """

    d1: float
    d2: float

    def __post_init__(self):
        d1, d2 = float(self.d1), float(self.d2)
        if not np.isfinite(d1):
            raise ValueError("lower slope bound must be finite")
        if np.isnan(d2) or d2 == -np.inf:
            raise ValueError("upper slope bound must be a real number or +inf")
        if d1 > d2:
            raise ValueError(f"slope interval needs d1 <= d2, got [{d1}, {d2}]")
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)

    @property
    def bounded(self) -> bool:
        return np.isfinite(self.d2)

    def contains(self, other: "SlopeInterval") -> bool:
        return self.d1 <= other.d1 and other.d2 <= self.d2


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
        if not self.slopes.bounded:
            raise ValueError("polytope operations require a finite upper slope bound")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _check_weights(A: np.ndarray, weights) -> np.ndarray:
    if weights is None:
        return np.ones(A.shape[0])
    return as_weights(weights, A.shape[0])


def _offdiag_abs(A: np.ndarray) -> np.ndarray:
    off = np.abs(A)
    np.fill_diagonal(off, 0.0)
    return off


# Kernels: one formula per family, on an already validated finite square
# matrix A (or (n, k) array X of column vectors) and weight vector w.


def _mu1(A: np.ndarray, w: np.ndarray) -> float:
    return float((np.diag(A) + (w @ _offdiag_abs(A)) / w).max())


def _muinf(A: np.ndarray, w: np.ndarray) -> float:
    return float((np.diag(A) + (_offdiag_abs(A) @ w) / w).max())


def _mu2(A: np.ndarray, w: np.ndarray) -> float:
    r = np.sqrt(w)
    S = (r[:, None] * A) / r[None, :]
    return float(np.max(np.linalg.eigvalsh(0.5 * (S + S.T))))


def _norm1(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    return w @ np.abs(X)


def _norminf(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (np.abs(X) / w[:, None]).max(axis=0)


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
    return _mu1(A, _check_weights(A, weights))


def muinf(A, weights=None) -> float:
    """Weighted linf log norm: max over rows of A_ii + sum_{j!=i} (w_j/w_i)|A_ij|.

    The weight matrix is diag(weights)^-1; see the module docstring.
    """
    A = as_matrix(A)
    return _muinf(A, _check_weights(A, weights))


def mu2(A, weights=None) -> float:
    """Weighted l2 log norm: largest eigenvalue of the symmetrized similarity
    (1/2)(S + S^T) with S = diag(w)^(1/2) A diag(w)^(-1/2)."""
    A = as_matrix(A)
    return _mu2(A, _check_weights(A, weights))


def log_norm(A, family: str, weights=None) -> float:
    mu = kernels(family)[0]
    A = as_matrix(A)
    return mu(A, _check_weights(A, weights))


def weighted_norm(x, family: str, weights=None):
    """Vector norm matching :func:`log_norm`'s conventions.

    Accepts a single vector or a 2-D array of column vectors (norms are taken
    per column).
    """
    x = np.asarray(x, dtype=float)
    w = np.ones(x.shape[0]) if weights is None else as_weights(weights, x.shape[0])
    norm = kernels(family)[1]
    if x.ndim == 1:
        return float(norm(x[:, None], w)[0])
    return norm(x, w)


def envelope_matrices(spec: PolytopeSpec, family: str) -> tuple[np.ndarray, np.ndarray]:
    """The two matrices whose fixed-weight log norms majorize the whole polytope.

    For (linf, left) and (l1, right) these are the slope-endpoint matrices
    diag(c) + d_k A.  For the other two combinations they are
    diag(c) + dbar A - (dbar - d_k) (I o A)  with  dbar = max(|d1|, |d2|),
    which absorbs the sign of the scaling into the diagonal.
    """
    if family not in (L1, LINF):
        raise ValueError("worst-case polytope values are defined for l1/linf only")
    A, c = spec.A, spec.c
    d1, d2 = spec.slopes.d1, spec.slopes.d2
    C = np.diag(c)
    endpoint = (family == LINF and spec.side == LEFT) or (family == L1 and spec.side == RIGHT)
    if endpoint:
        return C + d1 * A, C + d2 * A
    dbar = max(abs(d1), abs(d2))
    diag_A = np.diag(np.diag(A))
    return (
        C + dbar * A - (dbar - d1) * diag_A,
        C + dbar * A - (dbar - d2) * diag_A,
    )


def worst_case_mu(spec: PolytopeSpec, family: str, weights=None) -> float:
    """Exact maximum of the fixed-weight log norm over the polytope,
    evaluated from the two envelope matrices instead of all 2^n vertices."""
    M1, M2 = envelope_matrices(spec, family)
    return max(log_norm(M1, family, weights), log_norm(M2, family, weights))


def _vertex_matrices(spec: PolytopeSpec) -> np.ndarray:
    n = spec.n
    d1, d2 = spec.slopes.d1, spec.slopes.d2
    bits = np.array(list(itertools.product((d1, d2), repeat=n)))  # (2^n, n)
    if spec.side == LEFT:
        Ms = bits[:, :, None] * spec.A[None, :, :]
    else:
        Ms = spec.A[None, :, :] * bits[:, None, :]
    return Ms + np.diag(spec.c)[None, :, :]


def brute_force_worst_case(spec: PolytopeSpec, family: str, weights=None) -> float:
    """Max of the fixed-weight log norm over all 2^n vertex scalings.

    Independent of :func:`worst_case_mu` by construction; guarded at n <= 20.
    """
    if spec.n > BRUTE_FORCE_MAX_DIM:
        raise ValueError(f"vertex enumeration guarded at n <= {BRUTE_FORCE_MAX_DIM}")
    w = _check_weights(spec.A, weights)
    Ms = _vertex_matrices(spec)
    if family == L2:
        r = np.sqrt(w)
        S = (r[None, :, None] * Ms) / r[None, None, :]
        H = 0.5 * (S + np.transpose(S, (0, 2, 1)))
        return float(np.max(np.linalg.eigvalsh(H)))
    if family == L1:
        Ms = np.transpose(Ms, (0, 2, 1))
    elif family != LINF:
        raise ValueError(f"unknown norm family {family!r}")
    off = np.abs(Ms)
    diag = np.einsum("kii->ki", Ms)
    idx = np.arange(spec.n)
    off[:, idx, idx] = 0.0
    rowvals = diag + (off @ w) / w[None, :]
    return float(np.max(rowvals))


def scaled_majorant_identity(gamma: float, A) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the scaling identity for Metzler majorants:
    the majorant of gamma*A, and the majorant of |gamma|*A - (|gamma|-gamma)(I o A).
    The two returned matrices are entrywise equal."""
    A = as_matrix(A)
    g = float(gamma)
    lhs = metzler_majorant(g * A)
    rhs = metzler_majorant(abs(g) * A - (abs(g) - g) * np.diag(np.diag(A)))
    return lhs, rhs
