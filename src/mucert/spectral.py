"""Eigenvalue machinery: spectral abscissa, irreducibility, Perron vectors.

Each quantity has one route, and the Perron route takes no dense
eigensolve.  The spectral abscissa of a general matrix comes from the dense
eigensolver (:func:`spectral_abscissa`, which classify reads).  The dominant
left and right eigenvectors of an irreducible Metzler matrix (its Perron
pair) come from power iteration on a diagonal shift N that makes the
matrix nonnegative, one loop per vector, within POWER_MAXITER steps.  A
vector that has not converged by then, or that misses the residual bound, is
finished from its last power iterate by Noda's inverse iteration (T. Noda,
Numer. Math. 17, 1971; L. Elsner, Linear Algebra Appl. 15, 1976) on N for
the right vector or N.T for the left one, within NODA_MAXITER solves; if
Noda's iteration fails, NumericalError is raised.  The weight optimizer
takes the right Perron vector of an irreducible row selection from the same
iteration, started at the ones vector.

A reducible Metzler matrix has more than one strongly connected block
(:func:`mucert.matrices.strong_blocks`; the same search decides
:func:`is_irreducible`).  Its abscissa is the largest of its blocks'
abscissae, each the alpha of the block's own right Perron vector (the
diagonal entry of a 1 x 1 block): `_block_abscissa`.  Its M-matrix
resolvent weights w = (bI - S)^-1 1 above that abscissa (Berman and
Plemmons, Nonnegative Matrices in the Mathematical Sciences) have one entry
point and one solve, `_resolvent_weights`, which solves block by block,
right or left, and checks that w is finite and positive.  The weight
optimizer's reducible row selections, the secular pair below and classify's
diagonal Lyapunov witness call it, and so does `_perron_weights`, which
gives the certificates of :mod:`mucert.networks` their weights: a Perron
vector of an irreducible Metzler matrix, or resolvent weights at
RESOLVENT_SHIFT above the abscissa of a reducible one.  The public
`perron_pair(M, delta > 0)` on a reducible M takes the pair of
M + delta * ones from its secular equation
(`_secular_pair`): (M + delta 11^T) x = rho x with x > 0 exactly when
x is proportional to (rho I - M)^-1 1 and delta 1^T (rho I - M)^-1 1 = 1
with rho > alpha(M), and the left vector is (rho I - M^T)^-1 1.  This is the
secular equation of a rank-one modification (G. H. Golub, "Some modified
matrix eigenvalue problems", SIAM Review 15, 1973; J. R. Bunch, C. P.
Nielsen and D. C. Sorensen, Numer. Math. 31, 1978).  Noda's iteration
cannot finish that pair itself: its vectors have entries of the order of
delta, where rounding in q = (S x) / x keeps the bracket above its stop
test.

The shifted matrix N takes one n x n pass, M + delta, and an in-place add
to its diagonal.  Each vector asked for has a loop of its own,
`_power_vector`, on N for the right vector and on N.T for the left one: a
step is one product and one sum, scale, difference, absolute value and max,
so a vector costs one product per step it takes, and a pair the sum of its
two vectors' steps.  The iterates have unit sum, so no entry exceeds 1 and
the stop test is absolute.  One more product per vector gives both its
Rayleigh quotient and its residual.

Every vector gets the same budget, and no heuristic guesses early which
vectors will not converge.  Two blocks coupled by 1e-9 have dominant
eigenvalues about 1e-9 apart; their power steps fall to a plateau of 1e-12
to 1e-11 by about step 20 and never converge, and a sparse ring whose steps
shrink by about 0.9 each would need some 250.  Noda's shifted solves converge
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
validates its input (square, finite, Metzler, delta), hands a reducible
one to `_secular_pair` and an irreducible one to the private `_perron`,
which takes an already validated C-ordered irreducible Metzler matrix and
steps only the vectors asked for: both for `perron_pair`.  The
certificates in :mod:`mucert.networks` build their Metzler matrix from the
model's validated arrays and hand it to `_perron_weights`, which calls
`_perron` directly on an irreducible one.  A one-norm
certificate steps one vector, the left one for l1 and the right one for
linf, and its abscissa detail is that vector's Rayleigh quotient less the
shift; a certificate in both norms steps both, and its abscissa is the mean
of their two quotients, as in `perron_pair`.  Every vector comes from the
same one-vector loop, so the weights are those of `perron_pair`.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import solve

from .lognorm import L1, LINF
from .matrices import _checked_square, as_matrix, is_metzler, strong_blocks

# Power iteration: vector change below POWER_TOL in every entry (an absolute
# bound: the iterates have unit sum, so no entry exceeds 1) within
# POWER_MAXITER steps.  A vector that has not converged by then, or whose
# vector's residual exceeds RESIDUAL_RTOL * (1 + max|N|), is finished by
# Noda's iteration from its last iterate.  The perfbench certify-perron
# inputs with n >= 64 converged within 44 steps on seeds 1 to 3; a
# near-tied dominant eigenvalue never converges.  The residual bound is the
# contract either way.
POWER_TOL = 1e-13
POWER_MAXITER = 64
RESIDUAL_RTOL = 1e-11

# Noda iteration: stop once the Collatz-Wielandt bracket [lo, hi] at the
# iterate is no wider than NODA_RTOL * (1 + max|S| + |hi|); raise
# NumericalError after NODA_MAXITER solves or as soon as the bracket stops
# shrinking.  The perfbench certify-lp selections (n = 16 to 128) take 5 or
# 6 solves: 435 and 105 of the 540 in 20 s runs of seeds 1 to 3.
# NODA_MAXITER also budgets the Newton steps of `_secular_pair`.
NODA_RTOL = 1e-14
NODA_MAXITER = 20

# Resolvent shift above the abscissa of a reducible Metzler matrix: of a
# certificate's majorant (`_perron_weights`), or of a weight-optimizer row
# selection.  The certified bound, or b_star, then exceeds the optimum by at
# most about this much.
RESOLVENT_SHIFT = 1e-8

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


def _block_abscissa(S: np.ndarray, blocks) -> float:
    """Abscissa of a Metzler S that is already validated and C-ordered: the
    largest over its strongly connected `blocks` of each block's own, the
    diagonal entry of a 1 x 1 block and the `_perron` alpha of the right
    Perron vector of a larger one (irreducible, as its block is strongly
    connected).  Raises NumericalError as `_perron` does."""
    return max(float(S[B[0], B[0]]) if B.size == 1 else _perron(S[np.ix_(B, B)], 0.0, (0,)).alpha
               for B in blocks)


def _resolvent_weights(S: np.ndarray, blocks, b: float, left: bool = False) -> np.ndarray:
    """Weights w = (bI - S)^-1 1 of a Metzler S, solved one strongly
    connected block at a time in the order of `blocks` (that of
    :func:`mucert.matrices.strong_blocks`): w_B = (bI - S_BB)^-1 (1 + S_B w),
    where S_B w reads only blocks solved before.  The left weights
    (bI - S^T)^-1 1 with `left` are solved on S.T with the blocks reversed,
    so that each block again reads only blocks solved before.  This is the
    one resolvent solve: the weight optimizer, the certificates
    (`_perron_weights`), the secular pair and classify's witness all call it.

    One dense solve would square the condition number on tied blocks coupled
    one way (b - alpha is tiny against both).  Block by block, each solve is
    an irreducible system with a right-hand side of at least 1: for b above
    every block's abscissa, bI - S_BB is a nonsingular M-matrix, so w is
    positive and S w = b w - 1 < b w.  A single block is solved as
    (bI - S) w = 1, without the block copies: those are the loop's own
    operands, since 1 + S w = 1 exactly at w = 0.  Raises NumericalError if
    a block solve fails or w is not finite and positive."""
    if left:
        S, blocks = S.T, blocks[::-1]
    n = S.shape[0]
    try:
        if len(blocks) == 1:
            w = solve(b * np.eye(n) - S, np.ones(n))
        else:
            w = np.zeros(n)
            for B in blocks:
                w[B] = solve(b * np.eye(B.size) - S[np.ix_(B, B)], 1.0 + S[B] @ w)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"resolvent weights failed: {exc}") from exc
    if not (w.min() > 0.0 and w.max() < math.inf):  # also true on NaN
        raise NumericalError("resolvent weights have nonpositive entries")
    return w


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue and strictly positive left/right eigenvectors.

    Both eigenvectors are normalized to unit sum.  `alpha` is the spectral
    abscissa of the (possibly delta-perturbed) Metzler input; `delta_used`
    records the rank-one perturbation actually applied.  `steps` holds the
    power steps taken for the (right, left) vectors, at most POWER_MAXITER
    each; a vector that did not converge within them, or missed the residual
    bound, was finished by Noda's iteration.  Each vector has a power loop
    of its own, so a pair's power work is the sum of its two `steps`.  The
    secular route of a delta-perturbed reducible matrix takes no power
    steps: (0, 0).  `dense` is always (False, False), as no vector comes
    from a dense eigensolve; it stays for the API.  The package's one-norm
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


def _power_vector(B: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Power iteration from the uniform vector for the dominant eigenvector
    of B, which is N (the right vector) or N.T (the left one) for a
    nonnegative N with positive diagonal.

    A step is one `np.matmul(B, x, out=y)`, then one sum, scale, difference,
    absolute value and max: six numpy calls.  POWER_TOL bounds the change
    absolutely: B is nonnegative and x positive, and a rounded sum of
    nonnegative numbers is at least each of its terms, so every entry of a
    unit-sum iterate is at most 1.

    Returns (vector, steps, converged): the iterate at the first step whose
    max|y - x| falls below POWER_TOL, or after POWER_MAXITER steps the last
    iterate (unit sum and positive), unconverged.
    """
    n = B.shape[0]
    x, y = np.full(n, 1.0 / n), np.empty(n)
    for step in range(1, POWER_MAXITER + 1):
        np.matmul(B, x, out=y)
        y /= y.sum()
        x -= y  # the step y - x up to its sign, which rounds alike
        np.abs(x, out=x)
        if x.max() < POWER_TOL:
            return y, step, True
        x, y = y, x
    return x, POWER_MAXITER, False


def _noda(S: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """Right Perron vector of an irreducible Metzler matrix S, strictly
    positive with largest entry 1, by Noda's inverse iteration.

    From x = 1, or from a given positive start rescaled to largest entry 1,
    each step takes the Collatz-Wielandt bounds lo = min q and hi = max q of
    q = (S x) / x, which bracket alpha(S), and stops once
    hi - lo <= NODA_RTOL * (1 + max|S| + |hi|).  Otherwise it solves
    (hi I - S) z = x, a nonsingular M-matrix system with a positive solution,
    and rescales z to largest entry 1.  The shift converges quadratically to
    alpha(S).  Once hi is alpha(S) to rounding, the system can be singular
    in floating point, and is then solved at hi + NODA_RTOL * (1 + max|S| +
    |hi|); and its solution can have every entry negative, and is then
    rescaled to largest entry 1 in modulus, like inverse iteration.  A
    singular solve there, an iterate that is not finite and positive, a
    bracket that stops shrinking, or NODA_MAXITER solves without
    convergence raise NumericalError.

    Each hi I - S is written into one buffer per call, as -S with hi added
    to its diagonal: the values of hi I - S, though a zero may differ in
    sign, which no nonzero entry of the solve depends on.  q and the
    rescaled iterate are formed in place.

    At the stop every |(S x)_i - lam x_i| <= (hi - lo) x_i <= hi - lo for the
    Rayleigh quotient lam, which lies in [lo, hi].  As RESIDUAL_RTOL is
    1000 * NODA_RTOL, that meets RESIDUAL_RTOL * (1 + max|S|) whenever
    |hi| <= 999 * (1 + max|S|).  The bracket holds alpha(S), which is at
    most n * max|S| in modulus, so this covers every n below 999; `_perron`
    checks the residual of what it returns either way.
    """
    n = S.shape[0]
    size = 1.0 + float(np.max(np.abs(S)))
    shifted = np.empty_like(S)
    x = np.ones(n) if x is None else x / np.max(x)
    width = np.inf
    for solves in range(NODA_MAXITER + 1):
        q = S @ x
        q /= x
        lo, hi = float(q.min()), float(q.max())
        if hi - lo <= NODA_RTOL * (size + abs(hi)):
            return x
        if solves == NODA_MAXITER or not hi - lo < width:
            break
        width = hi - lo
        for b in (hi, hi + NODA_RTOL * (size + abs(hi))):
            np.negative(S, out=shifted)
            shifted.flat[:: n + 1] += b
            try:
                z = solve(shifted, x)
                break
            except np.linalg.LinAlgError:
                z = None
        if z is None:
            break
        top = z[np.argmax(np.abs(z))]
        if not abs(top) < np.inf:  # also true on NaN
            break
        x = np.divide(z, top, out=z)
        if not x.min() > 0.0:
            break
    raise NumericalError(f"Noda iteration failed after {solves} solves, "
                         f"bracket width {hi - lo:.3g}")


def _rayleigh(N: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient lam of v under N and the residual max|N v - lam v|,
    both from one product N v."""
    Nv = N @ v
    lam = float(v @ Nv / (v @ v))
    return lam, float(np.max(np.abs(Nv - lam * v)))


def _shifted(M: np.ndarray, delta: float) -> tuple[np.ndarray, float, float]:
    """(N, shift, scale): N = M + delta * ones + shift * I, nonnegative for a
    Metzler M, at shift = 1 + max|diag(M + delta * ones)|, and
    scale = 1 + max|N|.  Raises NumericalError if N or a power step's sum
    (at most n times its largest entry) would overflow.

    N is the one n x n array written: M + delta in one pass (C-ordered, as
    M is), then the shift added to its diagonal in place.  max|N| is read as
    max(max N, -min N), the same number (a NaN propagates to both), without
    the n x n array |N|."""
    # Adding delta + 0.0 makes every -0.0 +0.0, also for delta = -0.0.
    with np.errstate(over="ignore"):  # an overflow makes `scale` infinite
        N = np.add(M, delta + 0.0)
        shift = 1.0 + float(np.max(np.abs(np.diag(N))))
        N.flat[:: N.shape[0] + 1] += shift
    scale = 1.0 + max(float(N.max()), -float(N.min()))
    # A unit-sum iterate's product sums to at most n * scale.
    if not N.shape[0] * scale < math.inf:
        raise NumericalError("shifted matrix overflows float64; rescale the input")
    return N, shift, scale


def _perron(M: np.ndarray, delta: float, rows: tuple[int, ...]) -> PerronPair:
    """Perron vectors of M + delta * ones for an irreducible Metzler M that
    is already validated, finite and C-ordered, and a finite delta >= 0: of
    the right one (0) and the left one (1), those in `rows`.  A vector not
    asked for is None in the pair, with 0 steps.  Each asked vector has its
    own :func:`_power_vector` run, and one that did not converge within
    POWER_MAXITER steps or misses the residual bound is finished by
    :func:`_noda` from its last iterate, and rescaled to unit sum.  `alpha`
    is the mean of the asked vectors' Rayleigh quotients, less the shift:
    one vector's own quotient when one is asked.

    Raises NumericalError, before any iteration, if the shifted matrix or a
    power step's sum (at most n times its largest entry) would overflow, and
    after it if Noda's iteration fails or a vector misses the residual bound
    or is not positive.
    """
    N, shift, scale = _shifted(M, delta)
    bound = RESIDUAL_RTOL * scale
    vectors, steps, lams = [None, None], [0, 0], []
    for i in rows:
        B = (N, N.T)[i]
        x, steps[i], converged = _power_vector(B)
        if converged:
            lam, residual = _rayleigh(B, x)
        if not converged or residual > bound:
            x = _noda(B, x)
            x = x / x.sum()
            lam, residual = _rayleigh(B, x)
            if residual > bound:
                raise NumericalError("Perron eigenvector residual check failed")
        vectors[i] = x
        lams.append(lam)
    if any(np.any(vectors[i] <= 0.0) for i in rows):
        raise NumericalError(
            "Perron eigenvector has nonpositive entries; the matrix is too close "
            "to reducible, retry with a larger delta"
        )
    return PerronPair(alpha=sum(lams) / len(lams) - shift, right=vectors[0], left=vectors[1],
                      delta_used=delta, irreducible=True, steps=tuple(steps), dense=(False, False))


# The Perron vectors that a certificate in each norm carries, as `_perron`'s
# rows: the left one (1) for l1, the right one (0) for linf, both for None.
_PERRON_ROWS = {L1: (1,), LINF: (0,), None: (0, 1)}


def _perron_weights(M, family=None):
    """(right, left, alpha, shift) for a Metzler matrix M: only the weight
    vector that a `family` certificate carries (both for None; the other is
    None), the abscissa alpha of M and the shift above it.  An irreducible M
    gives its Perron vectors, the `alpha` of their pair and shift 0.  A
    reducible M gives the right and left `_resolvent_weights` at
    alpha + RESOLVENT_SHIFT, each scaled to unit sum, and shift
    RESOLVENT_SHIFT: the weighted log norm of M at either is at most
    alpha + shift.  alpha is taken once, from M's blocks, whichever vectors
    are wanted, so each weight vector is the same bits in every family.  M
    is checked to be finite before its blocks are searched, so an M that
    overflowed when it was built raises ValueError."""
    rows = _PERRON_ROWS[family]
    blocks = strong_blocks(_checked_square(M))
    if len(blocks) == 1:
        pair = _perron(M, 0.0, rows)
        return pair.right, pair.left, pair.alpha, 0.0
    vectors, alpha = [None, None], _block_abscissa(M, blocks)
    for i in rows:
        w = _resolvent_weights(M, blocks, alpha + RESOLVENT_SHIFT, left=i == 1)
        vectors[i] = w / w.sum()
    return *vectors, alpha, RESOLVENT_SHIFT


def _secular_pair(M: np.ndarray, delta: float, blocks) -> PerronPair:
    """Perron pair of M + delta * ones for a reducible Metzler M that is
    already validated, finite and C-ordered, with strongly connected
    `blocks` (in the order of :func:`mucert.matrices.strong_blocks`), and a
    finite delta > 0, from its secular equation delta 1^T x = 1 with
    x = (rho I - S)^-1 1 (see the module docstring), solved on the diagonal
    shift S = M + shift * I of `_shifted`: on M itself, rho could not
    resolve a root within delta of a large abscissa.

    With rho = alpha + t over alpha = `_block_abscissa` of S, Newton's method
    runs on g = log(delta 1^T x) against log t, from t = delta * n, the root
    for S = 0.  Both solves are `_resolvent_weights` calls, x and the left
    y = (rho I - S^T)^-1 1, and they give the slope
    dg/d(log t) = -t y^T x / 1^T x, since dx/drho = -(rho I - S)^-1 x.
    Each step multiplies t by a positive factor, so rho stays above alpha.
    The iteration stops at a step no larger than 4 ulp(rho), or at one that
    does not shrink, within NODA_MAXITER steps, and returns rho - shift and
    the vectors x and y of its last solves, scaled to unit sum.

    Raises NumericalError, before any solve, if the shifted matrix of
    `_shifted` would overflow, and after it if a solve fails as
    `_resolvent_weights` says, or a vector misses the residual bound
    RESIDUAL_RTOL * (1 + max|N|) under S + delta * ones (also when it is not
    finite).
    """
    shift, scale = _shifted(M, delta)[1:]  # N itself is not kept
    S = M.copy()
    S.flat[:: S.shape[0] + 1] += shift
    alpha = _block_abscissa(S, blocks)
    t, last = delta * S.shape[0], math.inf
    for _ in range(NODA_MAXITER):
        rho = alpha + t
        x, y = _resolvent_weights(S, blocks, rho), _resolvent_weights(S, blocks, rho, left=True)
        total = float(x.sum())
        step = t * math.expm1(math.log(delta * total) * total / (t * float(y @ x)))
        if not abs(step) > 4.0 * math.ulp(rho) or not abs(step) < last:  # also stops on NaN
            break
        t, last = t + step, abs(step)
    right, left = x / total, y / y.sum()
    for B, v in ((S, right), (S.T, left)):  # the residual under S + delta * ones
        if not np.max(np.abs(B @ v + delta * v.sum() - rho * v)) <= RESIDUAL_RTOL * scale:
            raise NumericalError("Perron eigenvector residual check failed")
    return PerronPair(alpha=rho - shift, right=right, left=left, delta_used=delta,
                      irreducible=False, steps=(0, 0), dense=(False, False))


def perron_pair(M, delta: float = 0.0) -> PerronPair:
    """Dominant eigenvalue with strictly positive right and left eigenvectors
    of the Metzler matrix M + delta * ones.

    With delta=0 the input must be irreducible; for reducible input pass a
    small finite delta > 0.  The returned `alpha` is then the abscissa of the
    perturbed matrix, which is not O(delta) close to the unperturbed one in
    general: on two nearly tied diagonal blocks coupled one way, delta = 1e-8
    moved it by 1.6e-3 at n = 256.  Take the unperturbed abscissa from
    :func:`spectral_abscissa`.

    For reducible input the pair comes from the secular equation of the
    rank-one perturbation (see the module docstring), and `alpha` is its
    root rho.

    Raises ValueError for a non-Metzler M or a delta that is not a real
    number (a bool included), negative or not finite, and NumericalError,
    before any iteration, if the shifted matrix or a power step's sum (at
    most n times its largest entry) would overflow, and after it if an
    iteration fails or a vector misses the residual bound.
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
    blocks = strong_blocks(M)
    if len(blocks) == 1:
        return _perron(M, delta, (0, 1))
    if delta == 0.0:
        raise ReducibleMatrixError(
            "matrix is reducible; pass delta > 0 to perturb it into irreducibility"
        )
    return _secular_pair(M, delta, blocks)


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
