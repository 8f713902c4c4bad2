"""Eigenvalue machinery: spectral abscissa, irreducibility, Perron pairs.

Each quantity has one route.  The spectral abscissa of any matrix comes from
the dense eigensolver.  The dominant left and right eigenvectors of a Metzler
matrix (its Perron pair) come from power iteration on a diagonal shift that
makes the matrix nonnegative, within a budget of POWER_MAXITER steps; a vector
that misses the budget or the residual check is recomputed by one dense
eigensolve under the same residual and positivity contract.  At those
eigenvectors the weighted l1/linf log norms attain the spectral abscissa, so
a certificate reads both its weights and its abscissa off one Perron pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matrices import as_matrix, is_metzler, reachability

# Power iteration: relative vector change below POWER_TOL, or give up after
# POWER_MAXITER steps and fall back to the dense solver.  The perfbench
# certify inputs (n = 16 to 256, reducible or not) converge within 75 steps;
# a near-tied dominant eigenvalue never does, so the budget is what such an
# input costs before the fallback.  The residual bound is the contract either
# way.
POWER_TOL = 1e-13
POWER_MAXITER = 300
RESIDUAL_RTOL = 1e-11

# Default rank-one perturbation used to make a reducible Metzler matrix
# irreducible.  It can move the abscissa by far more than itself (see
# perron_pair), so callers report the unperturbed abscissa.
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
    """Largest real part among the eigenvalues of A, from the dense
    eigensolver for every input, Metzler or not.

    Raises NumericalError if the dense solver does not converge.
    """
    return float(eigenvalues(A)[0].real)


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
    """At most POWER_MAXITER steps of power iteration for the dominant
    eigenvector of a nonnegative matrix with positive diagonal.

    Returns (vector normalized to unit sum, converged flag).
    """
    n = N.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(POWER_MAXITER):
        y = N @ x
        y /= y.sum()
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


def perron_pair(M, delta: float = 0.0) -> PerronPair:
    """Dominant eigenvalue with strictly positive right and left eigenvectors
    of the Metzler matrix M + delta * ones.

    With delta=0 the input must be irreducible; for reducible input pass a
    small delta > 0.  The returned `alpha` is then the abscissa of the
    perturbed matrix, which is not O(delta) close to the unperturbed one in
    general: on two nearly tied diagonal blocks coupled one way, delta = 1e-8
    moved it by 1.6e-3 at n = 256.  Take the unperturbed abscissa from
    :func:`spectral_abscissa`.
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
    matrix M meets its spectral abscissa.  For reducible input (delta > 0) the
    weights come from M + delta * ones, and the log norm of M at them lies
    between the abscissa of M and that of M + delta * ones.

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
