"""Weight optimization by spectral policy iteration.

The optimal diagonal weight minimizes the largest weighted l1 or linf log
norm over a few matrices.  At weight w both log norms are row quotients of
Metzler majorants: muinf(A, w) = max_i (M w)_i / w_i with M the majorant of
A, and mu1 is the same with M transposed.  So the problem is the least level
b at which some w > 0 satisfies M_k w <= b w for every k.

Each row of that system may take any of the K matrices independently, a
product family with row uncertainty.  For such families the least level is
the largest spectral abscissa over the K^n row selections, attained at the
right Perron vector of a maximizing selection (Blondel & Nesterov, SIAM J.
Matrix Anal. Appl. 31(3), 2009; Protasov, "Spectral simplex method", Math.
Program., 2016).  The solver starts at the greedy selection for uniform
weights, each row i taken from the lowest-index matrix with the largest row
sum (M_k 1)_i, and repeats: compute the right Perron vector v of the
selection, move each row i to the lowest-index matrix that strictly increases
(M_k v)_i, and stop when no row moves.  That start is the row moves' own
choice at w = 1.  On the envelope pairs of the network models it is usually
optimal already, so one Perron vector settles the optimization.

The Perron vector of an irreducible selection comes from Noda's inverse
iteration, one LU solve per step within a budget of NODA_MAXITER solves
(see `spectral._noda`; T. Noda, Numer. Math. 17, 1971; L. Elsner, Linear
Algebra Appl. 15, 1976).  It starts from a fixed number of power steps on
the selection shifted just enough to be nonnegative, with no convergence
test of their own: Noda's bracket is the test.  Its shifted solves converge
quadratically once the shift is near the Perron root, and from the ones
vector the first two or three solves were spent getting there, so the
warm start takes a selection from 5 or 6 solves to 1 or 2 at every size.
It is the same routine that finishes the Perron vectors power iteration
leaves unconverged; if it fails, NumericalError is raised.

A reducible selection may have a Perron vector with zero entries.  It takes
the resolvent weights w = (bI - S)^-1 1 at b = alpha(S) + shift instead, from
`spectral._resolvent_weights`, the one place a Metzler matrix's resolvent
weights are solved, with alpha(S) the largest of its strongly connected
blocks' Perron abscissae: then S w = b w - 1 < b w, and the row switching
runs at w.  The certificates of :mod:`mucert.networks` take their weights
from `spectral._perron_weights`, which calls the same routine on a reducible
majorant at shift RESOLVENT_SHIFT.  Both solvers turn every failed solve
into NumericalError.

The returned level `b_star` is evaluated at the returned weights, so it is
attained there, up to rounding, by construction.
"""

from dataclasses import dataclass

import numpy as np

from .matrices import (_check_integers, _checked_square, _float_or_nan, _floats, _majorant,
                       as_matrix, is_metzler, strong_blocks)
from .lognorm import L1, LINF
from .spectral import RESOLVENT_SHIFT, _block_abscissa, _noda, _resolvent_weights

# Work budget: the number of row selections whose weights are computed.
MAX_SELECTIONS = 100
# Rounding allowance relative to the magnitudes compared: a row moves only if
# it gains more than this, so rounding noise cannot make tied rows move back
# and forth, and feasible_weights accepts a level this far above b.
ROUNDING_RTOL = 1e-12

STATUS_OPTIMAL = "optimal"
STATUS_TOLERANCE = "tolerance-reached"


@dataclass(frozen=True)
class FeasibilityProblem:
    """Constraint matrices (each Metzler) and the level b being tested, a
    finite number, stored as a float."""

    matrices: tuple
    b: float

    def __post_init__(self):
        mats = tuple(as_matrix(M) for M in self.matrices)
        if len(mats) == 0:
            raise ValueError("need at least one constraint matrix")
        n = mats[0].shape[0]
        if any(M.shape[0] != n for M in mats):
            raise ValueError("constraint matrices must share one dimension")
        if any(not is_metzler(M) for M in mats):
            raise ValueError("constraint matrices must be Metzler (pass majorants)")
        object.__setattr__(self, "b", _float_or_nan(self.b))
        if not np.isfinite(self.b):
            raise ValueError("level b must be finite")
        object.__setattr__(self, "matrices", mats)


@dataclass(frozen=True)
class BisectResult:
    """Level `b_star` attained at the weights `eta_star` (least entry 1); it
    is the optimum when `status` is "optimal".  `iterations` counts the row
    selections visited."""

    b_star: float
    eta_star: np.ndarray
    iterations: int
    status: str


def _selection_weights(S: np.ndarray, shift: float) -> np.ndarray:
    """Right Perron vector of an irreducible Metzler S, or the resolvent
    weights of `spectral._resolvent_weights` for a reducible one."""
    blocks = strong_blocks(S)
    if len(blocks) == 1:
        return _noda(S)
    return _resolvent_weights(S, blocks, _block_abscissa(S, blocks) + shift)


def _policy_iteration(stack: np.ndarray, tol: float, max_iter: int) -> BisectResult:
    """Least b with M_k w <= b w for all k over w > 0, for the Metzler
    matrices M_k of a (k, n, n) stack.  The stack's strides set the order in
    which its products read it, so they set the last bits of the result."""
    n = stack.shape[1]
    rows = np.arange(n)
    # |M_k| = M_k - 2 min(diag M_k, 0) on the diagonal of a Metzler M_k, so
    # max_k (|M_k| w)_i, the scale of row i's move test, is read off the
    # products M_k w plus this (k, n) term times w, with no n x n |M_k|.
    # Either way the scale carries a relative rounding error of at most
    # gamma_{n+2}, about (n + 2) * 2**-53: the threshold ROUNDING_RTOL * scale
    # moves by that fraction of itself (1.4e-14 at n = 128), far below the
    # gains the test separates from rounding noise.
    leak = np.minimum(stack.diagonal(0, 1, 2), 0.0) * -2.0
    selection = np.argmax(stack @ np.ones(n), axis=0)
    best_level, best_w = np.inf, None
    status = STATUS_TOLERANCE
    for it in range(1, max_iter + 1):
        w = _selection_weights(stack[selection, rows], tol)
        values = stack @ w
        top = np.max(values, axis=0)
        level = float(np.max(top / w))
        if level < best_level:
            best_level, best_w = level, w
        gain = top - values[selection, rows]
        moves = gain > ROUNDING_RTOL * np.max(values + leak * w, axis=0)
        if not moves.any():
            status = STATUS_OPTIMAL
            break
        selection = np.where(moves, np.argmax(values, axis=0), selection)
    eta = best_w / np.min(best_w)
    b_star = float(np.max(np.max(stack @ eta, axis=0) / eta))
    return BisectResult(b_star, eta, it, status)


def feasible_weights(problem: FeasibilityProblem) -> np.ndarray | None:
    """Optimal weights w (least entry 1) if they satisfy M w <= b w for every
    constraint matrix up to rounding, else None: the system is infeasible, or
    feasible only within the solver's resolvent shift of its optimum."""
    res = _policy_iteration(np.stack(problem.matrices), RESOLVENT_SHIFT, MAX_SELECTIONS)
    scale = max(float(np.max(np.abs(M))) for M in problem.matrices)
    if res.b_star > problem.b + ROUNDING_RTOL * scale:
        return None
    return res.eta_star


def bisect_min_mu(
    matrices,
    family: str,
    tol: float = RESOLVENT_SHIFT,
    max_iter: int = MAX_SELECTIONS,
) -> BisectResult:
    """Minimize, over positive diagonal weights, the max weighted log norm of
    the given matrices by spectral policy iteration.

    The matrices are preprocessed internally: Metzler majorants are taken, and
    transposed for the l1 family (the l1 log norm of A at weight w is the
    least b with majorant(A)^T w <= b w).  The inputs are checked in place,
    not copied, and each majorant is written once into one (k, n, n) stack;
    the l1 family reads that stack's transposed view, the layout that
    stacking the transposed majorants would give.  `tol` is the resolvent
    shift used on reducible selections and `max_iter` bounds the selections
    visited; status "tolerance-reached" means the budget ran out before no
    row moved.  Either way b_star is the level evaluated at eta_star.  Raises
    ValueError, before any work, unless `tol` is a finite positive number
    and `max_iter` an integer of at least 1 (a bool or a string is neither),
    and, before any solve, unless every matrix is a finite square array of
    numbers (`matrices._floats`).
    """
    if family not in (L1, LINF):
        raise ValueError("weight optimization is defined for l1/linf only")
    if not 0.0 < _float_or_nan(tol) < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    _check_integers(("max_iter", max_iter, 1))
    mats = [_checked_square(_floats(M, "matrix", copy=False)) for M in matrices]
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    if any(M.shape[0] != n for M in mats):
        raise ValueError("matrices must share one dimension")
    stack = np.empty((len(mats), n, n))
    for A, M in zip(mats, stack):
        _majorant(A, out=M)
    return _policy_iteration(stack.transpose(0, 2, 1) if family == L1 else stack, tol, max_iter)
