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

The shifted matrix takes one n x n pass, M + delta, and an in-place add to
its diagonal.  A power step is one product, one sum, one scale, one
difference and one max; the iterates have unit sum, so no entry exceeds 1
and the stop test is absolute.  One more product per vector gives both its
Rayleigh quotient and its residual.

Power iteration stays the Perron pair route because there a solve per step
costs more than the matrix-vector steps it saves: on twelve irreducible
n = 256 certify-perron-style inputs (one BLAS thread), Noda took 6.7 to
15.3 ms per right-and-left pair against 0.18 to 0.36 ms for the two power
iterations.

At those eigenvectors the weighted l1/linf log norms attain the spectral
abscissa, so a certificate reads both its weights and its abscissa off one
Perron pair.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import solve

from .matrices import as_matrix, is_metzler, reachability

# Power iteration: vector change below POWER_TOL in every entry (an absolute
# bound: the iterates have unit sum, so no entry exceeds 1), or give up after
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

    Each step makes six numpy calls: one product, one sum, one scale, one
    difference, one in-place absolute value and one max.  POWER_TOL bounds
    the change absolutely: N is nonnegative and x positive, and a rounded sum
    of nonnegative numbers is at least each of its terms, so every entry of
    the unit-sum iterate y is at most 1.  A test relative to max(1, max|y|)
    would therefore scale by exactly 1, on a NaN too, since Python's
    max(1.0, nan) is 1.0.

    Returns (vector normalized to unit sum, converged flag).
    """
    n = N.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(POWER_MAXITER):
        y = N @ x
        y /= y.sum()
        d = y - x
        np.abs(d, out=d)
        if d.max() < POWER_TOL:
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
    lam, residual = _rayleigh(N, v)
    if residual > RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(N)))):
        raise NumericalError("Perron eigenvector residual check failed")
    return v, lam


def _rayleigh(N: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient lam of v under N and the residual max|N v - lam v|,
    both from one product N v."""
    Nv = N @ v
    lam = float(v @ Nv / (v @ v))
    return lam, float(np.max(np.abs(Nv - lam * v)))


def perron_pair(M, delta: float = 0.0) -> PerronPair:
    """Dominant eigenvalue with strictly positive right and left eigenvectors
    of the Metzler matrix M + delta * ones.

    With delta=0 the input must be irreducible; for reducible input pass a
    small finite delta > 0.  The returned `alpha` is then the abscissa of the
    perturbed matrix, which is not O(delta) close to the unperturbed one in
    general: on two nearly tied diagonal blocks coupled one way, delta = 1e-8
    moved it by 1.6e-3 at n = 256.  Take the unperturbed abscissa from
    :func:`spectral_abscissa`.

    Raises ValueError for a non-Metzler M or a negative or non-finite delta,
    and NumericalError, before any iteration, if the shifted matrix or a
    power step's sum (at most n times its largest entry) would overflow.
    """
    M = as_matrix(M)
    if not is_metzler(M):
        raise ValueError("perron_pair requires a Metzler matrix")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if not delta < math.inf:  # also true for NaN
        raise ValueError(f"delta must be finite, got {delta!r}")
    irreducible = is_irreducible(M)
    if delta == 0.0 and not irreducible:
        raise ReducibleMatrixError(
            "matrix is reducible; pass delta > 0 to perturb it into irreducibility"
        )
    # M + delta in one pass, C-ordered whatever the layout of M (so the steps
    # round alike for M and a Fortran-ordered copy) and with every -0.0 made
    # +0.0, also for delta = -0.0; then the shift goes onto the diagonal.
    with np.errstate(over="ignore"):  # an overflow makes `scale` infinite
        N = np.add(M, delta + 0.0, order="C")
        shift = 1.0 + float(np.max(np.abs(np.diag(N))))
        N.flat[:: N.shape[0] + 1] += shift
    scale = 1.0 + float(np.max(np.abs(N)))
    # A unit-sum iterate's product sums to at most n * scale.
    if not N.shape[0] * scale < math.inf:
        raise NumericalError("shifted matrix overflows float64; rescale the input")

    vectors = []
    for B in (N, N.T):
        x, ok = _power_vector(B)
        lam, residual = _rayleigh(B, x)
        if not ok or residual > RESIDUAL_RTOL * scale:
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
    if p != 1 and p not in (math.inf, "inf"):
        raise ValueError(f"p must be 1 or inf, got {p!r}")
    pair = perron_pair(M, delta)
    return pair.left if p == 1 else 1.0 / pair.right
