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
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .matrices import as_matrix, as_weights, metzler_majorant
from .lognorm import mu2
from .spectral import (
    DEFAULT_DELTA,
    NumericalError,
    ReducibleMatrixError,
    perron_pair,
    spectral_abscissa,
)

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
    """True iff the Metzler majorant of A is Hurwitz."""
    return _strictly_negative(spectral_abscissa(metzler_majorant(A)))


def _stacked_abscissae(stack: np.ndarray) -> np.ndarray:
    """Spectral abscissa of each matrix in a (k, r, r) stack."""
    try:
        lam = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    return lam.real.max(axis=-1)


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
        m_hurwitz = is_m_hurwitz(A)
    if m_hurwitz or _strictly_negative(mu2(A)):
        return True
    return all(np.all(alphas < -STRICT_TOL) for _, alphas in _subset_abscissae(A))


def is_quasidominant(A) -> bool:
    """Row dominance with positive weights; equivalent to -A being M-Hurwitz."""
    return is_m_hurwitz(-as_matrix(A))


def lds_certificate(A, weights) -> bool:
    """One-weight witness check for diagonal Lyapunov stability: true iff the
    weighted l2 log norm of A at the supplied diagonal weight is negative.

    This checks a single candidate weight, it is not a full membership test.
    """
    return _strictly_negative(mu2(A, weights))


def mh_lds_witness(A, delta: float = DEFAULT_DELTA) -> np.ndarray:
    """A diagonal Lyapunov weight that certifies any M-Hurwitz matrix.

    Built as w/v from the dominant left and right eigenvectors of the Metzler
    majorant: with that weight, diag(w/v) M + M^T diag(w/v) is a symmetric
    Metzler matrix whose product with v is 2*alpha*w < 0, hence negative
    definite, and the weighted l2 log norm of A is bounded by the majorant's.
    """
    M = metzler_majorant(A)
    try:
        pair = perron_pair(M)
    except ReducibleMatrixError:
        pair = perron_pair(M, delta)
    return as_weights(pair.left / pair.right)


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

    If `lds_weights` is given, it is checked as the diagonal Lyapunov witness;
    otherwise, for M-Hurwitz input the constructive witness from
    :func:`mh_lds_witness` is tried.  `lds_certified_at` carries the weight
    only when the witness check passes.
    """
    A = as_matrix(A)
    alpha = spectral_abscissa(A)
    alpha_maj = spectral_abscissa(metzler_majorant(A))
    mh = _strictly_negative(alpha_maj)

    witness = None
    candidate = None
    if lds_weights is not None:
        candidate = as_weights(lds_weights, A.shape[0])
    elif mh:
        candidate = mh_lds_witness(A)
    if candidate is not None and lds_certificate(A, candidate):
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
        quasidominant=is_quasidominant(A),
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
    M = metzler_majorant(A)
    found = [((i,), a) for i, a in enumerate(np.diag(M).tolist())]
    for subsets, alphas in _subset_abscissae(M):
        found += zip(subsets, alphas.tolist())
    entries = tuple(PruningEntry(idx, _strictly_negative(a), a) for idx, a in found)
    return PruningReport(entries, all(e.m_hurwitz for e in entries))


def edge_removal_check(A, zeroed, shift: float = 0.0) -> tuple[bool, bool]:
    """Hurwitz status of shift*I + A before and after zeroing the listed
    off-diagonal positions (0-based (row, col) pairs)."""
    A = as_matrix(A)
    n = A.shape[0]
    removed = A.copy()
    for pos in zeroed:
        i, j = int(pos[0]), int(pos[1])
        if i == j:
            raise ValueError(f"only off-diagonal entries may be removed, got ({i}, {j})")
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"position ({i}, {j}) out of range for dimension {n}")
        removed[i, j] = 0.0
    S = shift * np.eye(n)
    return is_hurwitz(S + A), is_hurwitz(S + removed)
