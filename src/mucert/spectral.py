"""Eigenvalue machinery: spectral abscissa, irreducibility, Perron vectors.

Each quantity has one route.  The spectral abscissa of any matrix comes from
the dense eigensolver.  The dominant left and right eigenvectors of a Metzler
matrix (its Perron pair) come from one power iteration loop on a diagonal
shift that makes the matrix nonnegative, within a budget of POWER_MAXITER
steps and under a stagnation test over POWER_WINDOW steps.  The
right Perron vector of an irreducible Metzler row selection in the weight
optimizer comes from Noda's inverse iteration (T. Noda, Numer. Math. 17,
1971; L. Elsner, Linear Algebra Appl. 15, 1976), within a budget of
NODA_MAXITER linear solves.  A vector that misses its iteration's budget or
accuracy test is recomputed by one dense eigensolve under the same residual
and positivity contract.

The shifted matrix N takes one n x n pass, M + delta, and an in-place add
to its diagonal.  The right iterate (on N) and the left one (on N.T) share
one (2, n) block and one loop: a turn is one product per row and one
row-wise sum, scale, difference, absolute value and max over both rows, so
a pair costs as many turns as its slower vector needs, not the sum of both.
Each row rounds as a lone iteration would, so its iterates and stopping step
are those of a loop of its own.  The iterates have unit sum, so no entry
exceeds 1 and the stop test is absolute.  One more product per vector gives
both its Rayleigh quotient and its residual.

A vector whose steps have gone flat is sent to the dense solver before the
budget runs out.  Two blocks coupled by 1e-9 have dominant eigenvalues about
1e-9 apart; their steps fall to a plateau of 1e-12 to 1e-11 by about step
20 and stay there, so the rest of the 300-step budget bought nothing but the
fallback.  From step 2 * POWER_WINDOW on, every POWER_WINDOW / 2 steps, the
largest step of the newer half of the last POWER_WINDOW steps is compared
with the largest of the older half: shrunk by less than 10 %, at a rate that
cannot reach POWER_TOL within the budget, and the vector goes to the dense
solver, which gives the result the budget would have ended in.  The first
check comes after the early plateaus of inputs that do converge (a sparse
n = 16 input sits near 3e-2 for 18 steps, then converges at step 154); a
window of 16 with a threshold of 1/2 misjudged that input.  The test is a
heuristic: a vector whose steps stay flat over a window and then fall again
would now take the dense route and differ in its last bits.  None of the
inputs the tests and the benchmarks draw does.

Power iteration stays the Perron pair route because there a solve per step
costs more than the matrix-vector steps it saves: on twelve irreducible
n = 256 certify-perron-style inputs (one BLAS thread), Noda took 6.7 to
15.3 ms per right-and-left pair against 0.18 to 0.36 ms for the two power
iterations.

At those eigenvectors the weighted l1/linf log norms attain the spectral
abscissa, so a certificate reads both its weights and its abscissa off one
Perron pair.  It computes only what it carries.  :func:`perron_pair`
validates its input (square, finite, Metzler, delta) and then hands it to
the private `_perron`, which takes an already validated C-ordered Metzler
matrix and steps only the rows asked for: both for `perron_pair`.  The
certificates in :mod:`mucert.networks` build their Metzler matrix from the
model's validated arrays and call `_perron` directly.  A one-norm
certificate steps one vector, the left one for l1 and the right one for
linf, and its abscissa detail is that vector's Rayleigh quotient less the
shift; a certificate in both norms steps both, and its abscissa is the mean
of their two quotients, as in `perron_pair`.  Each row rounds as a lone
iteration would, so the weights are those of `perron_pair`.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import solve

from .matrices import _checked_square, as_matrix, is_metzler, reachability

# Power iteration: vector change below POWER_TOL in every entry (an absolute
# bound: the iterates have unit sum, so no entry exceeds 1), or give up after
# POWER_MAXITER steps, or once the stagnation test over the last POWER_WINDOW
# steps finds the steps flat, and fall back to the dense solver.  The
# perfbench certify inputs (n = 16 to 256, reducible or not) converge within
# 75 steps; a near-tied dominant eigenvalue never does, and the stagnation
# test sends it to the dense solver at step 2 * POWER_WINDOW.  The residual
# bound is the contract either way.
POWER_TOL = 1e-13
POWER_MAXITER = 300
POWER_WINDOW = 32
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
    return bool(reachability(_checked_square(np.asarray(A, dtype=float))).all())


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue and strictly positive left/right eigenvectors.

    Both eigenvectors are normalized to unit sum.  `alpha` is the spectral
    abscissa of the (possibly delta-perturbed) Metzler input; `delta_used`
    records the rank-one perturbation actually applied.  `steps` holds the
    power steps taken for the (right, left) vectors and `dense` which of the
    two came from the dense eigensolver instead.  The package's one-norm
    certificates ask the private `_perron` for one vector only: the other is
    then None with 0 steps, and `alpha` is the Rayleigh quotient of the one
    vector, less the shift.
    """

    alpha: float
    right: np.ndarray
    left: np.ndarray
    delta_used: float
    irreducible: bool
    steps: tuple[int, int]
    dense: tuple[bool, bool]


def _power_vector(N: np.ndarray, lo: int, hi: int) -> tuple[list, list[int]]:
    """Power iteration for the dominant right eigenvector of N (row 0, on N)
    and the dominant left one (row 1, on N.T), for a nonnegative N with
    positive diagonal: rows lo to hi - 1 of the two, in one loop (see the
    module docstring).

    A turn is one `np.matmul(..., out=row)` per row, then one row-wise sum,
    scale, difference, absolute value and max over the rows still
    iterating: eight numpy calls for both vectors.  Each row rounds as a
    lone iteration would.  POWER_TOL bounds the change absolutely: N is
    nonnegative and x positive, and a rounded sum of nonnegative numbers is
    at least each of its terms, so every entry of a unit-sum iterate is at
    most 1.

    A row stops when its step max|y - x| falls below POWER_TOL, when
    :func:`_stalled` finds its steps flat over the last POWER_WINDOW steps
    (called only on the steps where it tests, :func:`_stall_check_due`),
    or after POWER_MAXITER steps; the other row goes on alone.  A near tie's
    steps sit on a plateau from about step 20, so both rows stop at the
    first stagnation test, step 2 * POWER_WINDOW.

    Returns ([right, left], [steps of each]): a unit-sum vector for a row
    that converged, None for one that goes to the dense solver or was not
    asked for; a row not asked for takes 0 steps.
    """
    n = N.shape[0]
    mats = (N, N.T)
    X, Y = np.full((2, n), 1.0 / n), np.empty((2, n))
    xs, ys = tuple(X), tuple(Y)  # row views
    x, y = X[lo:hi], Y[lo:hi]  # the rows still iterating
    vectors = [None, None]
    steps = [POWER_MAXITER if lo <= i < hi else 0 for i in range(2)]
    history = ([], [])
    for step in range(1, POWER_MAXITER + 1):
        check = _stall_check_due(step)
        for i in range(lo, hi):
            np.matmul(mats[i], xs[i], out=ys[i])
        y /= y.sum(axis=1, keepdims=True)
        x -= y  # the step y - x up to its sign, which rounds alike
        np.abs(x, out=x)
        rows = lo, hi
        for i, change in enumerate(x.max(axis=1).tolist(), lo):
            history[i].append(change)
            if change < POWER_TOL:
                vectors[i] = ys[i].copy()
            elif not (check and _stalled(history[i])):
                continue
            steps[i] = step
            if i == lo:
                lo += 1
            else:
                hi -= 1
        if lo >= hi:
            break
        X, Y, xs, ys, x, y = Y, X, ys, xs, y, x
        if rows != (lo, hi):
            x, y = X[lo:hi], Y[lo:hi]
    return vectors, steps


def _stall_check_due(step: int) -> bool:
    """True on the steps where :func:`_stalled` makes its test: from step
    2 * POWER_WINDOW on, every POWER_WINDOW // 2 steps.  The power loop calls
    `_stalled` on these steps only."""
    return step >= 2 * POWER_WINDOW and step % (POWER_WINDOW // 2) == 0


def _stalled(history: list[float]) -> bool:
    """Stagnation test on a power iterate's steps, made from step
    2 * POWER_WINDOW on at every POWER_WINDOW // 2 steps: the largest step
    `a` of the newer half of the last POWER_WINDOW steps against the largest
    `b` of the older half.  The iterate is stalled when `a` has shrunk by
    less than 10 % (a > 0.9 b) and shrinking at the rate a / b per
    half window cannot take it below POWER_TOL within the budget.
    """
    k = len(history)
    half = POWER_WINDOW // 2
    if not _stall_check_due(k):
        return False
    a = max(history[k - half:])
    b = max(history[k - 2 * half:k - half])
    return a > 0.9 * b and a * (a / b) ** ((POWER_MAXITER - k) / half) >= POWER_TOL


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


def _perron(M: np.ndarray, delta: float, irreducible: bool, lo: int, hi: int) -> PerronPair:
    """Perron vectors of M + delta * ones for a Metzler M that is already
    validated, finite and C-ordered, and a finite delta >= 0: the right one
    (row 0) and the left one (row 1), rows lo to hi - 1 of the two.  Only
    the rows asked for are power-iterated; a row not asked for is None in
    the pair, with 0 steps.  `alpha` is the mean of the asked rows' Rayleigh
    quotients, less the shift: one vector's own quotient when one is asked.

    Raises NumericalError, before any iteration, if the shifted matrix or a
    power step's sum (at most n times its largest entry) would overflow.
    """
    # M + delta in one pass (C-ordered, as M is), with every -0.0 made
    # +0.0, also for delta = -0.0; then the shift goes onto the diagonal.
    with np.errstate(over="ignore"):  # an overflow makes `scale` infinite
        N = np.add(M, delta + 0.0)
        shift = 1.0 + float(np.max(np.abs(np.diag(N))))
        N.flat[:: N.shape[0] + 1] += shift
    scale = 1.0 + float(np.max(np.abs(N)))
    # A unit-sum iterate's product sums to at most n * scale.
    if not N.shape[0] * scale < math.inf:
        raise NumericalError("shifted matrix overflows float64; rescale the input")

    vectors, steps = _power_vector(N, lo, hi)
    dense, lams = [False, False], []
    for i in range(lo, hi):
        B, x = (N, N.T)[i], vectors[i]
        if x is not None:
            lam, residual = _rayleigh(B, x)
        dense[i] = x is None or residual > RESIDUAL_RTOL * scale
        if dense[i]:
            vectors[i], lam = _dense_dominant_vector(B)
        lams.append(lam)
    if any(np.any(vectors[i] <= 0.0) for i in range(lo, hi)):
        raise NumericalError(
            "Perron eigenvector has nonpositive entries; the matrix is too close "
            "to reducible, retry with a larger delta"
        )
    lam = 0.5 * (lams[0] + lams[1]) if len(lams) == 2 else lams[0]
    return PerronPair(alpha=lam - shift, right=vectors[0], left=vectors[1], delta_used=delta,
                      irreducible=irreducible, steps=tuple(steps), dense=tuple(dense))


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
    return _perron(M, delta, irreducible, 0, 2)


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
