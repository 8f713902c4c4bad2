"""Eigenvalue machinery: spectral abscissa, irreducibility, Perron vectors.

Each quantity has one route.  The spectral abscissa of any matrix comes from
the dense eigensolver.  The dominant left and right eigenvectors of a Metzler
matrix (its Perron pair) come from one power iteration loop on a diagonal
shift N that makes the matrix nonnegative, within POWER_MAXITER steps.  A
vector that has not converged by then, or that misses the residual bound, is
finished from its last power iterate by Noda's inverse iteration (T. Noda,
Numer. Math. 17, 1971; L. Elsner, Linear Algebra Appl. 15, 1976) on N for
the right vector or N.T for the left one, within NODA_MAXITER solves.  The
weight optimizer takes the right Perron vector of an irreducible row
selection from the same iteration, started at the ones vector.  Its last
resort is one dense eigensolve under the same residual and positivity
contract, the one place a Perron vector comes from the dense solver; on the
seeded test inputs only the public `perron_pair` on a delta-perturbed
reducible matrix still reaches it.

A reducible Metzler matrix takes no Perron vector on the package's own
routes.  The weight optimizer's reducible row selections and the
certificates' reducible majorants both take the resolvent weights of
`_resolvent_weights`, solved on the strongly connected blocks of
:func:`mucert.matrices.strong_blocks`; the same search decides
:func:`is_irreducible`.

The shifted matrix N takes one n x n pass, M + delta, and an in-place add
to its diagonal.  The right iterate (on N) and the left one (on N.T) share
one (2, n) block and one loop: a turn is one product per row and one
row-wise sum, scale, difference, absolute value and max over both rows, so
a pair costs as many turns as its slower vector needs, not the sum of both.
Each row rounds as a lone iteration would, so its iterates and stopping step
are those of a loop of its own.  The iterates have unit sum, so no entry
exceeds 1 and the stop test is absolute.  One more product per vector gives
both its Rayleigh quotient and its residual.

Every row gets the same budget, and no heuristic guesses early which rows
will not converge.  Two blocks coupled by 1e-9 have dominant eigenvalues
about 1e-9 apart; their power steps fall to a plateau of 1e-12 to 1e-11 by
about step 20 and never converge, and a sparse ring whose steps shrink by
about 0.9 each would need some 250.  Noda's shifted solves converge
quadratically to the dominant eigenvalue, so they separate such a pair in a
few solves where power steps cannot.  Its stop test is scaled by |hi| as
well as by max|S|, because the rounding floor of the bracket grows with the
Perron root, which can sit far above the largest entry.

Power iteration stays the first stage because on inputs that converge a
solve per step costs more than the steps it saves: on twelve irreducible
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
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import solve

from .matrices import _checked_square, as_matrix, block_resolvent, is_metzler, strong_blocks

# Power iteration: vector change below POWER_TOL in every entry (an absolute
# bound: the iterates have unit sum, so no entry exceeds 1) within
# POWER_MAXITER steps.  A row that has not converged by then, or whose
# vector's residual exceeds RESIDUAL_RTOL * (1 + max|N|), is finished by
# Noda's iteration from its last iterate.  The perfbench certify-perron
# inputs with n >= 64 converged within 44 steps on seeds 1 to 3; a
# near-tied dominant eigenvalue never converges.  The residual bound is the
# contract either way.
POWER_TOL = 1e-13
POWER_MAXITER = 64
RESIDUAL_RTOL = 1e-11

# Noda iteration: stop once the Collatz-Wielandt bracket [lo, hi] at the
# iterate is no wider than NODA_RTOL * (1 + max|S| + |hi|); else take the
# dense eigensolve after NODA_MAXITER solves or as soon as the bracket stops
# shrinking.  The perfbench certify-lp selections (n = 16 to 128) take 5 to
# 8 solves.
NODA_RTOL = 1e-14
NODA_MAXITER = 20

# A rank-one perturbation that makes a reducible Metzler matrix irreducible,
# for callers of perron_pair.  It can move the abscissa by far more than
# itself (see perron_pair); the package's certificates take resolvent
# weights instead.
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
    return len(strong_blocks(_checked_square(np.asarray(A, dtype=float)))) == 1


def _resolvent_weights(S: np.ndarray, blocks, shift: float,
                       alpha: float | None = None) -> tuple[np.ndarray, float]:
    """Weights w = (bI - S)^-1 1 of a reducible Metzler S and the abscissa
    alpha of S, the largest over its strongly connected `blocks` (in the
    order of :func:`mucert.matrices.strong_blocks`) of each block's dense
    abscissa, unless `alpha` is given.  At b = alpha + shift, above every
    block's abscissa, `block_resolvent` solves a nonsingular M-matrix system
    per block, so w is positive and S w = b w - 1 < b w: the weighted linf
    log norm of S at w is below b.  For the left weights pass S.T and the
    blocks reversed; S and S.T have one spectrum, so a caller that needs
    both passes the first call's alpha to the second.  Raises NumericalError
    if an eigensolve or a block solve fails or w is not finite and
    positive."""
    try:
        if alpha is None:
            alpha = max(float(np.max(np.linalg.eigvals(S[np.ix_(B, B)]).real)) for B in blocks)
        w = block_resolvent(S, blocks, alpha + shift)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"resolvent weights failed: {exc}") from exc
    if not np.all((w > 0.0) & np.isfinite(w)):
        raise NumericalError("resolvent weights have nonpositive entries")
    return w, alpha


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue and strictly positive left/right eigenvectors.

    Both eigenvectors are normalized to unit sum.  `alpha` is the spectral
    abscissa of the (possibly delta-perturbed) Metzler input; `delta_used`
    records the rank-one perturbation actually applied.  `steps` holds the
    power steps taken for the (right, left) vectors, at most POWER_MAXITER
    each; a vector that did not converge within them, or missed the residual
    bound, was finished by Noda's iteration.  `dense` says which of the two
    Noda's iteration handed to the dense eigensolve, its last resort.  The
    package's one-norm certificates ask the private `_perron` for one vector
    only: the other is then None with 0 steps, and `alpha` is the Rayleigh
    quotient of the one vector, less the shift.
    """

    alpha: float
    right: np.ndarray
    left: np.ndarray
    delta_used: float
    irreducible: bool
    steps: tuple[int, int]
    dense: tuple[bool, bool]


def _power_vector(N: np.ndarray, lo: int, hi: int) -> tuple[list, list[int], list[bool]]:
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

    A row stops when its step max|y - x| falls below POWER_TOL, or after
    POWER_MAXITER steps; the other row goes on alone.

    Returns ([right, left], [steps of each], [converged, for each]): the
    converged vector of a row that stopped below POWER_TOL, the last
    iterate (unit sum and positive) of one that ran out of steps, and None
    with 0 steps for a row not asked for.
    """
    n = N.shape[0]
    mats = (N, N.T)
    X, Y = np.full((2, n), 1.0 / n), np.empty((2, n))
    xs, ys = tuple(X), tuple(Y)  # row views
    x, y = X[lo:hi], Y[lo:hi]  # the rows still iterating
    vectors = [None, None]
    steps = [POWER_MAXITER if lo <= i < hi else 0 for i in range(2)]
    for step in range(1, POWER_MAXITER + 1):
        for i in range(lo, hi):
            np.matmul(mats[i], xs[i], out=ys[i])
        y /= y.sum(axis=1, keepdims=True)
        x -= y  # the step y - x up to its sign, which rounds alike
        np.abs(x, out=x)
        rows = lo, hi
        for i, change in enumerate(x.max(axis=1).tolist(), lo):
            if change < POWER_TOL:
                vectors[i] = ys[i].copy()
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
    converged = [v is not None for v in vectors]
    for i in range(lo, hi):  # out of steps: the last iterate, swapped into X
        vectors[i] = xs[i]
    return vectors, steps, converged


def _noda_vector(S: np.ndarray) -> np.ndarray:
    """Right Perron vector of an irreducible Metzler matrix S, strictly
    positive with largest entry 1, by :func:`_noda` from the ones vector."""
    return _noda(S)[0]


def _noda(S: np.ndarray, x: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Right Perron vector of an irreducible Metzler matrix S, strictly
    positive with largest entry 1, by Noda's inverse iteration; and whether
    the dense eigensolve was taken.

    From x = 1, or from a given positive start rescaled to largest entry 1,
    each step takes the Collatz-Wielandt bounds lo = min q and hi = max q of
    q = (S x) / x, which bracket alpha(S), and stops once
    hi - lo <= NODA_RTOL * (1 + max|S| + |hi|).  Otherwise it solves
    (hi I - S) z = x, a nonsingular M-matrix system with a positive solution,
    and rescales z to largest entry 1.  The shift converges quadratically to
    alpha(S).  An iterate that is not finite and positive, a bracket that
    stops shrinking, or NODA_MAXITER solves without convergence hands the
    vector to one dense eigensolve.

    At the stop every |(S x)_i - lam x_i| <= (hi - lo) x_i <= hi - lo for the
    Rayleigh quotient lam, which lies in [lo, hi].  As RESIDUAL_RTOL is
    1000 * NODA_RTOL, that meets RESIDUAL_RTOL * (1 + max|S|) whenever
    |hi| <= 999 * (1 + max|S|).  The bracket holds alpha(S), which is at
    most n * max|S| in modulus, so this covers every n below 999; `_perron`
    checks the residual of what it returns either way.
    """
    n = S.shape[0]
    size = 1.0 + float(np.max(np.abs(S)))
    eye = np.eye(n)
    x = np.ones(n) if x is None else x / np.max(x)
    width = np.inf
    for solves in range(NODA_MAXITER + 1):
        q = (S @ x) / x
        lo, hi = float(q.min()), float(q.max())
        if hi - lo <= NODA_RTOL * (size + abs(hi)):
            return x, False
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
    return x, True


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
    the rows asked for are computed; a row not asked for is None in the
    pair, with 0 steps.  Each asked row is power-iterated, and one that did
    not converge within POWER_MAXITER steps or misses the residual bound is
    finished by :func:`_noda` from its last iterate, and rescaled to
    unit sum.  `alpha` is the mean of the asked rows' Rayleigh quotients,
    less the shift: one vector's own quotient when one is asked.

    Raises NumericalError, before any iteration, if the shifted matrix or a
    power step's sum (at most n times its largest entry) would overflow, and
    after it if a vector misses the residual bound or is not positive.
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

    vectors, steps, converged = _power_vector(N, lo, hi)
    bound = RESIDUAL_RTOL * scale
    dense, lams = [False, False], []
    for i in range(lo, hi):
        B, x = (N, N.T)[i], vectors[i]
        if converged[i]:
            lam, residual = _rayleigh(B, x)
        if not converged[i] or residual > bound:
            x, dense[i] = _noda(B, x)
            vectors[i] = x = x / x.sum()
            lam, residual = _rayleigh(B, x)
            if residual > bound:
                raise NumericalError("Perron eigenvector residual check failed")
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

    Raises ValueError for a non-Metzler M or a delta that is not a real
    number (a bool included), negative or not finite, and NumericalError,
    before any iteration, if the shifted matrix or a power step's sum (at
    most n times its largest entry) would overflow.
    """
    M = as_matrix(M)
    if not is_metzler(M):
        raise ValueError("perron_pair requires a Metzler matrix")
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real):
        raise ValueError(f"delta must be a real number, got {delta!r}")
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
    reciprocal of this vector to :func:`mucert.lognorm.muinf`.  Raises
    ValueError for any other p, True included.
    """
    if isinstance(p, (bool, np.bool_)) or p != 1 and p not in (math.inf, "inf"):
        raise ValueError(f"p must be 1 or inf, got {p!r}")
    pair = perron_pair(M, delta)
    return pair.left if p == 1 else 1.0 / pair.right
