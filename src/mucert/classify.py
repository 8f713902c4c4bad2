"""Membership tests for stability classes of square matrices and the pruning /
edge-removal robustness probes.

Class predicates declare negativity of a spectral abscissa only below a strict
threshold (-1e-12); values inside the +/-1e-12 band are flagged as marginal in
the report instead of being silently classified either way.

Subset enumerations (totally-Hurwitz, pruning) solve the principal
submatrices of one size together: one stacked dense eigensolve per at most
SUBSET_BATCH submatrices, the same LAPACK routine that spectral_abscissa runs
on each of them alone, so every abscissa is bit-identical to the per-subset
value.

classify_matrix takes alpha(A) and alpha(maj(A)) from one stacked eigensolve
on the (2, n, n) stack of A and its majorant, bit-identical to
spectral_abscissa of each, the sign of a zero included.  They decide Hurwitz
and M-Hurwitz, and the M-Hurwitz flag decides totally Hurwitz on M-Hurwitz
input.  Quasidominance (-A M-Hurwitz) needs no eigensolve when A has a
diagonal entry <= 1e-12: a Metzler M has alpha(M) >= max M_ii (Berman and
Plemmons, Nonnegative Matrices in the Mathematical Sciences), so
max M_ii >= -1e-12 already decides "not Hurwitz" (see _metzler_hurwitz).
Only an input whose diagonal is above 1e-12 throughout takes a second
eigensolve.

The diagonal Lyapunov witness of an M-Hurwitz matrix is y/x from two linear
solves on its Metzler majorant M, x = -M^-1 1 and y = -M^-T 1 (see
mh_lds_witness), the right and left resolvent weights at b = 0 of
`spectral._resolvent_weights`: no eigenvector, perturbation or
irreducibility is needed, and a construction that fails gives no witness
rather than an error.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .matrices import (
    _check_integers,
    _float_or_nan,
    _majorant,
    as_matrix,
    as_weights,
    metzler_majorant,
    strong_blocks,
)
from .lognorm import _mu2, mu2
from .spectral import NumericalError, _resolvent_weights, spectral_abscissa

STRICT_TOL = 1e-12

TOTALLY_HURWITZ_MAX_DIM = 20
PRUNING_MAX_DIM = 12

# Submatrices per stacked eigensolve: at n = 20 a batch of 10x10 submatrices
# holds 3.3 MB, where one batch per size would hold 148 MB.
SUBSET_BATCH = 4096


def _strictly_negative(x: float) -> bool:
    return x < -STRICT_TOL


def is_hurwitz(A) -> bool:
    """True iff the spectral abscissa of A is (strictly) negative."""
    return _strictly_negative(spectral_abscissa(A))


def is_m_hurwitz(A) -> bool:
    """True iff the Metzler majorant of A is Hurwitz, by
    :func:`_metzler_hurwitz`.  A diagonal entry of A at or above -1e-12
    answers False without an eigensolve, since alpha(maj(A)) >= max A_ii;
    otherwise the dense abscissa of the majorant decides.  Where dense
    rounding puts that abscissa below -1e-12 although max A_ii >= -1e-12,
    the diagonal answer is the true one.  :func:`classify_matrix` reads its
    M-Hurwitz flag off the reported `alpha_majorant` instead."""
    return _metzler_hurwitz(metzler_majorant(A))


def _metzler_hurwitz(M: np.ndarray) -> bool:
    """True iff the validated Metzler matrix M is Hurwitz: False at once
    when max M_ii >= -STRICT_TOL, since alpha(M) >= max M_ii; otherwise
    alpha(M) from the dense eigensolver.  The one rule of is_m_hurwitz,
    is_quasidominant and classify_matrix's quasidominance."""
    if np.any(np.diag(M) >= -STRICT_TOL):
        return False
    return _strictly_negative(spectral_abscissa(M))


def _stacked_abscissae(stack: np.ndarray) -> np.ndarray:
    """Spectral abscissa of each matrix in a (k, r, r) stack, by the LAPACK
    routine that spectral.eigenvalues runs on one matrix.  A zero one takes
    its sign from the first eigenvalue in spectral.eigenvalues order (real
    part, then imaginary part, descending), as spectral_abscissa does; a
    plain max can differ from it in the sign of that zero."""
    try:
        lam = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    alpha = lam.real.max(axis=-1)
    zero = alpha == 0.0
    if zero.any():
        z = lam[zero]
        alpha[zero] = z.real[np.arange(len(z)), np.lexsort((-z.imag, -z.real))[:, 0]]
    return alpha


def _subset_abscissae(A: np.ndarray):
    """Yield (index tuples, abscissae) over the principal submatrices of A with
    at least 2 rows, in size order and then in itertools.combinations order,
    at most SUBSET_BATCH submatrices per stacked eigensolve."""
    n = A.shape[0]
    for r in range(2, n + 1):
        subsets = itertools.combinations(range(n), r)
        while batch := list(itertools.islice(subsets, SUBSET_BATCH)):
            idx = np.array(batch)
            yield batch, _stacked_abscissae(A[idx[:, :, None], idx[:, None, :]])


def is_totally_hurwitz(A) -> bool:
    """True iff every nonempty principal submatrix of A is Hurwitz.

    Two exact implications answer without enumerating: an M-Hurwitz A
    (alpha(A_S) <= alpha(maj(A)_S) <= alpha(maj(A)) for every index set S),
    and a negative definite symmetric part (mu2(A) < 0), which stays negative
    definite on every principal submatrix.  Otherwise the 2^n - 1 - n
    submatrices with at least 2 rows go to the eigensolver, stacked per size,
    stopping at the first batch that holds a non-Hurwitz one; the 1x1
    submatrices are the diagonal.  A full enumeration at n = 16 (65 519
    submatrices) took 1.2 s with BLAS on one thread (one solve per
    submatrix: 3.7 s).
    """
    return _totally_hurwitz(as_matrix(A), None)


def _totally_hurwitz(A: np.ndarray, m_hurwitz: bool | None) -> bool:
    """:func:`is_totally_hurwitz` of a validated A, given its M-Hurwitz flag
    when the caller has it (None: take the majorant abscissa if needed)."""
    n = A.shape[0]
    if n > TOTALLY_HURWITZ_MAX_DIM:
        raise ValueError(f"totally-Hurwitz check guarded at n <= {TOTALLY_HURWITZ_MAX_DIM}")
    if np.any(np.diag(A) >= -STRICT_TOL):
        return False  # a 1x1 submatrix already fails
    if m_hurwitz is None:
        m_hurwitz = _metzler_hurwitz(_majorant(A))
    if m_hurwitz or _strictly_negative(_mu2(A, np.ones(n))):
        return True
    return all(np.all(alphas < -STRICT_TOL) for _, alphas in _subset_abscissae(A))


def is_quasidominant(A) -> bool:
    """Row dominance with positive weights; equivalent to -A being M-Hurwitz,
    decided by :func:`_metzler_hurwitz` on the majorant of -A, as
    :func:`classify_matrix` decides it.  A diagonal entry of A at or below
    1e-12 answers False without an eigensolve, since alpha(maj(-A)) >=
    max(-A_ii); only a diagonal above 1e-12 throughout takes the dense
    abscissa.  Where dense rounding puts that abscissa below -1e-12 although
    some A_ii <= 1e-12, the diagonal answer is the true one."""
    return _metzler_hurwitz(_majorant(-as_matrix(A)))


def lds_certificate(A, weights) -> bool:
    """One-weight witness check for diagonal Lyapunov stability: true iff the
    weighted l2 log norm of A at the supplied diagonal weight is negative.

    This checks a single candidate weight, it is not a full membership test.
    A weight of None (what :func:`mh_lds_witness` gives when it finds none)
    raises ValueError rather than checking the unit weight.
    """
    if weights is None:
        raise ValueError("lds_certificate needs a weight vector, got None")
    return _strictly_negative(mu2(A, weights))


def mh_lds_witness(A) -> np.ndarray | None:
    """A diagonal Lyapunov weight that certifies any M-Hurwitz matrix, or
    None when the construction gives no positive weight.

    With M the Metzler majorant of A, x = -M^-1 1 and y = -M^-T 1, the
    weight is y/x.  For a Hurwitz M, -M is a nonsingular M-matrix, so x and y
    are positive; P = diag(y/x) makes Q = P M + M^T P a symmetric Metzler
    matrix with Q x = -y/x - 1 < 0, hence negative definite, and the
    weighted l2 log norm of A is bounded by the majorant's (Rantzer,
    "Scalable control of positive systems", Eur. J. Control 2015).  No
    irreducibility is needed; see :func:`_mh_witness` for the solves.
    Conversely a positive x with M x = -1 proves M Hurwitz, so None means
    that M is not Hurwitz, up to rounding.
    """
    return _mh_witness(metzler_majorant(A))


def _mh_witness(M: np.ndarray) -> np.ndarray | None:
    """:func:`mh_lds_witness` of a majorant M: x and y are the right and
    left `spectral._resolvent_weights` of M at b = 0, solved one strongly
    connected block at a time, so that each block's right-hand side is at
    least 1.  One solve over all of a reducible M can give nonpositive
    entries on blocks coupled one way; an irreducible M is one block.  A
    solve that fails there, or a weight y/x that is not finite and
    positive, gives None."""
    blocks = strong_blocks(M)
    try:
        x = _resolvent_weights(M, blocks, 0.0)
        y = _resolvent_weights(M, blocks, 0.0, left=True)
    except NumericalError:
        return None
    with np.errstate(over="ignore", under="ignore"):
        w = y / x
    return w if w.min() > 0.0 and w.max() < np.inf else None


@dataclass(frozen=True)
class ClassReport:
    hurwitz: bool
    totally_hurwitz: bool
    m_hurwitz: bool
    quasidominant: bool
    lds_certified_at: np.ndarray | None
    alpha: float
    alpha_majorant: float
    marginal: tuple = field(default_factory=tuple)


def classify_matrix(A, lds_weights=None) -> ClassReport:
    """Full class report for A.

    A is validated and its Metzler majorant M formed once.  One stacked
    eigensolve on (A, M) gives alpha and alpha_majorant, which decide
    Hurwitz and M-Hurwitz; the M-Hurwitz flag is passed on to the
    totally-Hurwitz test.  Quasidominance takes a second eigensolve only
    when every diagonal entry of A exceeds 1e-12 (see
    :func:`is_quasidominant`).
    For M-Hurwitz input M goes to the witness of :func:`mh_lds_witness`.
    If `lds_weights` is given, it is checked as the diagonal Lyapunov
    witness instead.  `lds_certified_at` carries the
    weight only when the witness check :func:`lds_certificate` passes, and
    is None otherwise, also when the construction gives no weight.
    """
    A = as_matrix(A)
    M = _majorant(A)
    alpha, alpha_maj = _stacked_abscissae(np.stack((A, M))).tolist()
    mh = _strictly_negative(alpha_maj)

    witness = None
    candidate = None
    if lds_weights is not None:
        candidate = as_weights(lds_weights, A.shape[0])
    elif mh:
        candidate = _mh_witness(M)
    if candidate is not None and _strictly_negative(_mu2(A, candidate)):
        witness = candidate

    marginal = []
    if abs(alpha) <= STRICT_TOL:
        marginal.append("hurwitz")
    if abs(alpha_maj) <= STRICT_TOL:
        marginal.append("m_hurwitz")

    return ClassReport(
        hurwitz=_strictly_negative(alpha),
        totally_hurwitz=_totally_hurwitz(A, mh),
        m_hurwitz=mh,
        quasidominant=_metzler_hurwitz(_majorant(-A)),
        lds_certified_at=witness,
        alpha=alpha,
        alpha_majorant=alpha_maj,
        marginal=tuple(marginal),
    )


@dataclass(frozen=True)
class PruningEntry:
    indices: tuple
    m_hurwitz: bool
    alpha_majorant: float


@dataclass(frozen=True)
class PruningReport:
    entries: tuple
    all_m_hurwitz: bool


def pruning_robustness(A) -> PruningReport:
    """M-Hurwitz status and majorant abscissa of every nonempty principal
    submatrix (0-based index tuples, by size and then in
    itertools.combinations order).  For M-Hurwitz input every entry is true.

    The majorant of a principal submatrix is the principal submatrix of the
    majorant, so the majorant is taken once.  The 1x1 entries are its
    diagonal; the other 2^n - 1 - n submatrices go to the eigensolver,
    stacked per size.  n = 12 (4 083 submatrices) took 67 ms with BLAS on one
    thread (one solve per submatrix: 300 ms).
    """
    A = as_matrix(A)
    n = A.shape[0]
    if n > PRUNING_MAX_DIM:
        raise ValueError(f"pruning report guarded at n <= {PRUNING_MAX_DIM}")
    M = _majorant(A)
    found = [((i,), a) for i, a in enumerate(np.diag(M).tolist())]
    for subsets, alphas in _subset_abscissae(M):
        found += zip(subsets, alphas.tolist())
    entries = tuple(PruningEntry(idx, _strictly_negative(a), a) for idx, a in found)
    return PruningReport(entries, all(e.m_hurwitz for e in entries))


def edge_removal_check(A, zeroed, shift: float = 0.0) -> tuple[bool, bool]:
    """Hurwitz status of shift*I + A before and after zeroing the listed
    off-diagonal positions (0-based (row, col) pairs).  A row or column that
    is not an integer >= 0 by `matrices._check_integers` (a bool, a float
    such as 1.0 or a string is not one) raises ValueError, and one of n or
    more IndexError.  A shift that is not
    finite is refused before any work: inf * 0 off the diagonal would make
    NaNs.  A finite one whose sum with the diagonal overflows is refused
    as a matrix entry that is not finite, with no numpy warning."""
    if not np.isfinite(_float_or_nan(shift)):
        raise ValueError(f"shift must be finite, got {shift!r}")
    A = as_matrix(A)
    n = A.shape[0]
    removed = A.copy()
    for pos in zeroed:
        i, j = pos
        _check_integers(("row", i, 0), ("col", j, 0))
        if i == j:
            raise ValueError(f"only off-diagonal entries may be removed, got ({i}, {j})")
        if not (i < n and j < n):
            raise IndexError(f"position ({i}, {j}) out of range for dimension {n}")
        removed[i, j] = 0.0
    S = shift * np.eye(n)
    with np.errstate(over="ignore"):  # an overflowed sum is refused as not finite
        return is_hurwitz(S + A), is_hurwitz(S + removed)
