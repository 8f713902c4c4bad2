"""Eigenvalue machinery: spectral abscissa, irreducibility, Perron vectors.

Each quantity has one route.  The spectral abscissa of any matrix comes from
the dense eigensolver.  The dominant left and right eigenvectors of a Metzler
matrix (its Perron pair) come from power iteration on a diagonal shift that
makes the matrix nonnegative, within a budget of POWER_MAXITER steps.  The
right Perron vector of an irreducible Metzler row selection in the weight
optimizer comes from Noda's inverse iteration (T. Noda, Numer. Math. 17,
1971; L. Elsner, Linear Algebra Appl. 15, 1976), within a budget of
NODA_MAXITER linear solves.  A vector that misses its iteration's budget or
accuracy test is recomputed by one dense eigensolve under the same residual
and positivity contract.

Power iteration stays the Perron pair route because there a solve per step
costs more than the matrix-vector steps it saves: on twelve irreducible
n = 256 certify-perron-style inputs (one BLAS thread), Noda took 9.6 to
15.6 ms per right-and-left pair against 0.55 to 0.62 ms for power iteration.

At those eigenvectors the weighted l1/linf log norms attain the spectral
abscissa, so a certificate reads both its weights and its abscissa off one
Perron pair.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import solve

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

# Noda iteration: stop once the Collatz-Wielandt bracket at the iterate is
# narrower than NODA_RTOL * (1 + max|S|), which implies the RESIDUAL_RTOL
# bound; else fall back to the dense solver after NODA_MAXITER solves or as
# soon as the bracket stops shrinking.  The perfbench certify-lp selections
# (n = 16 to 128) take 5 to 8 solves.
NODA_RTOL = 1e-14
NODA_MAXITER = 20

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


def _noda_vector(S: np.ndarray) -> np.ndarray:
    """Right Perron vector of an irreducible Metzler matrix S, strictly
    positive with largest entry 1, by Noda's inverse iteration.

    From x = 1 each step takes the Collatz-Wielandt bounds lo = min q and
    hi = max q of q = (S x) / x, which bracket alpha(S), and stops once the
    bracket is narrower than NODA_RTOL * (1 + max|S|); then
    |(S x)_i - hi x_i| <= (hi - lo) x_i for every i.  Otherwise it solves
    (hi I - S) z = x, a nonsingular M-matrix system with a positive solution,
    and rescales z to largest entry 1.  The shift converges quadratically to
    alpha(S).  An iterate that is not finite and positive, a bracket that
    stops shrinking, or NODA_MAXITER solves without convergence hands the
    vector to one dense eigensolve.
    """
    n = S.shape[0]
    tol = NODA_RTOL * (1.0 + float(np.max(np.abs(S))))
    eye = np.eye(n)
    x = np.ones(n)
    width = np.inf
    for solves in range(NODA_MAXITER + 1):
        q = (S @ x) / x
        lo, hi = float(q.min()), float(q.max())
        if hi - lo <= tol:
            return x
        if solves == NODA_MAXITER or not hi - lo < width:
            break
        width = hi - lo
        try:
            z = solve(hi * eye - S, x)
        except np.linalg.LinAlgError:
            break
        top = z.max()
        if not (z.min() > 0.0 and top < np.inf):  # also false on NaN
            break
        x = z / top
    v, _ = _dense_dominant_vector(S)
    x = v / np.max(v)
    if not np.all(x > 0.0):
        raise NumericalError("Perron eigenvector has nonpositive entries")
    return x


def _dense_dominant_vector(N: np.ndarray) -> tuple[np.ndarray, float]:
    """Dominant eigenvector of N from one dense eigensolve, normalized to unit
    sum, and its Rayleigh quotient.  Raises NumericalError if the residual
    exceeds RESIDUAL_RTOL * (1 + max|N|)."""
    lam, V = np.linalg.eig(N)
    v = V[:, int(np.argmax(lam.real))].real
    v = v / v.sum()
    lam = float(v @ (N @ v) / (v @ v))
    if _residual(N, v, lam) > RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(N)))):
        raise NumericalError("Perron eigenvector residual check failed")
    return v, lam


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
            x, lam = _dense_dominant_vector(B)
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
