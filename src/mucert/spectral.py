"""Eigenvalue machinery: spectral abscissa, irreducibility, Perron pairs.

For Metzler matrices the dominant eigenpair is computed by power iteration on
a diagonal shift that makes the matrix nonnegative; a dense eigensolver is the
fallback whenever the iteration stalls or the residual check fails.  Dominant
left/right eigenvectors supply the diagonal weights at which the weighted
l1/linf log norms attain the spectral abscissa.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matrices import as_matrix, is_metzler, reachability

# Power iteration: relative vector change below POWER_TOL, or give up at the
# cap and fall back to the dense solver.  The residual bound is the contract.
POWER_TOL = 1e-13
POWER_MAXITER = 100_000
RESIDUAL_RTOL = 1e-11

# Default rank-one perturbation used to make a reducible Metzler matrix
# irreducible; small enough to keep the abscissa shift below test tolerances.
DEFAULT_DELTA = 1e-8


class NumericalError(RuntimeError):
    """An eigensolver or feasibility routine failed to meet its residual contract."""


class ReducibleMatrixError(ValueError):
    """Perron pair requested with delta=0 on a reducible Metzler matrix."""


def eigenvalues(A) -> np.ndarray:
    """All n eigenvalues (with multiplicity), sorted by descending real part.

    Raises NumericalError if the dense solver does not converge.
    """
    A = as_matrix(A)
    try:
        lam = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    order = np.lexsort((-lam.imag, -lam.real))
    return lam[order]


def spectral_abscissa(A) -> float:
    """Largest real part among the eigenvalues of A.

    Metzler input takes the Perron route (shift to nonnegative plus power
    iteration); everything else goes through the dense eigensolver.
    """
    A = as_matrix(A)
    if is_metzler(A):
        return _metzler_abscissa(A)
    return float(np.max(eigenvalues(A).real))


def is_irreducible(A) -> bool:
    """True iff the digraph with an edge j -> i whenever i != j and A[i, j] != 0
    is strongly connected."""
    return bool(reachability(as_matrix(A)).all())


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue and strictly positive left/right eigenvectors.

    Both eigenvectors are normalized to unit sum.  `alpha` is the spectral
    abscissa of the (possibly delta-perturbed) Metzler input; `delta_used`
    records the rank-one perturbation actually applied.
    """

    alpha: float
    right: np.ndarray
    left: np.ndarray
    delta_used: float
    irreducible: bool


def _power_vector(N: np.ndarray) -> tuple[np.ndarray, bool]:
    """Power iteration for the dominant eigenvector of a nonnegative matrix.

    Returns (vector normalized to unit sum, converged flag).
    """
    n = N.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(POWER_MAXITER):
        y = N @ x
        s = y.sum()
        if s <= 0.0:
            # Dominant class unreachable from the uniform start; caller falls back.
            return x, False
        y /= s
        if np.max(np.abs(y - x)) < POWER_TOL * max(1.0, np.max(np.abs(y))):
            return y, True
        x = y
    return x, False


def _dense_dominant_vector(N: np.ndarray) -> np.ndarray:
    lam, V = np.linalg.eig(N)
    i = int(np.argmax(lam.real))
    v = V[:, i].real
    if v.sum() < 0:
        v = -v
    return v


def _residual(N: np.ndarray, v: np.ndarray, lam: float) -> float:
    return float(np.max(np.abs(N @ v - lam * v)))


def _metzler_abscissa(M: np.ndarray) -> float:
    shift = 1.0 + float(np.max(np.abs(np.diag(M))))
    N = M + shift * np.eye(M.shape[0])
    scale = 1.0 + float(np.max(np.abs(N)))
    v, ok = _power_vector(N)
    if ok:
        lam = float(v @ (N @ v) / (v @ v))
        if _residual(N, v, lam) <= RESIDUAL_RTOL * scale:
            return lam - shift
    # Fallback: dense route is always available and exact to LAPACK accuracy.
    return float(np.max(np.linalg.eigvals(N).real)) - shift


def perron_pair(M, delta: float = 0.0) -> PerronPair:
    """Dominant eigenvalue with strictly positive right and left eigenvectors
    of the Metzler matrix M + delta * ones.

    With delta=0 the input must be irreducible; for reducible input pass a
    small delta > 0 (the abscissa then shifts by O(delta)).
    """
    M = as_matrix(M)
    if not is_metzler(M):
        raise ValueError("perron_pair requires a Metzler matrix")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    irreducible = is_irreducible(M)
    if delta == 0.0 and not irreducible:
        raise ReducibleMatrixError(
            "matrix is reducible; pass delta > 0 to perturb it into irreducibility"
        )
    n = M.shape[0]
    P = M + delta * np.ones((n, n))
    shift = 1.0 + float(np.max(np.abs(np.diag(P))))
    N = P + shift * np.eye(n)
    scale = 1.0 + float(np.max(np.abs(N)))

    vectors = []
    for B in (N, N.T):
        x, ok = _power_vector(B)
        lam = float(x @ (B @ x) / (x @ x))
        if not ok or _residual(B, x, lam) > RESIDUAL_RTOL * scale:
            x = _dense_dominant_vector(B)
            x = x / x.sum()
            lam = float(x @ (B @ x) / (x @ x))
            if _residual(B, x, lam) > RESIDUAL_RTOL * scale:
                raise NumericalError("Perron eigenvector residual check failed")
        vectors.append((x, lam))

    (v, lam_r), (w, lam_l) = vectors
    alpha = 0.5 * (lam_r + lam_l) - shift
    if np.any(v <= 0.0) or np.any(w <= 0.0):
        raise NumericalError(
            "Perron eigenvector has nonpositive entries; the matrix is too close "
            "to reducible, retry with a larger delta"
        )
    return PerronPair(alpha=alpha, right=v, left=w, delta_used=delta, irreducible=irreducible)


def perron_weights(M, p, delta: float = 0.0) -> np.ndarray:
    """Diagonal weight vector at which the weighted log norm of the Metzler
    matrix M meets its spectral abscissa (within O(delta) for reducible input).

    For p=1 this is the left dominant eigenvector w, and the weight matrix is
    diag(w).  For p=inf it is 1/v with v the right dominant eigenvector; the
    weight matrix diag(1/v) realizes the norm max_i |x_i| / v_i, so pass the
    reciprocal of this vector to :func:`mucert.lognorm.muinf`.
    """
    pair = perron_pair(M, delta)
    if p == 1:
        return pair.left
    if p in (np.inf, math.inf, "inf"):
        return 1.0 / pair.right
    raise ValueError(f"p must be 1 or inf, got {p!r}")
