"""Per-model one-sided Lipschitz constants and contraction certificates for
continuous-time neural network models.

Every certificate reports the one-sided Lipschitz bound actually certified at
the weight vector it carries (`osl`), so the guarantee
``||x(t) - y(t)|| <= exp(-rate * t) ||x(0) - y(0)||`` in the carried weighted
norm is checkable by evaluation.  A model is declared contracting only when
the certified bound clears a strict margin below zero.

Weight conventions follow :mod:`mucert.lognorm`: an ``l1`` certificate with
weights w refers to the norm sum_i w_i |x_i|; an ``linf`` certificate refers
to max_i |x_i| / w_i.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .matrices import (
    as_matrix,
    as_vector,
    check_diagonal,
    metzler_majorant,
)
from .lognorm import (
    L1,
    LEFT,
    LINF,
    RIGHT,
    PolytopeSpec,
    SlopeInterval,
    envelope_matrices,
    log_norm,
    mu1,
    muinf,
    worst_case_mu,
)
from .optimize import bisect_min_mu
from .spectral import (
    DEFAULT_DELTA,
    NumericalError,
    is_irreducible,
    perron_pair,
    spectral_abscissa,
)

# A model is declared contracting only if the certified bound is at or below
# minus this margin; the underlying strict inequalities must survive floating
# point.
CONTRACTION_MARGIN = 1e-9

# The optimized level and a matching closed form must agree this tightly.
CLOSED_FORM_TOL = 1e-6

MULTILURE_MAX_DIM = 16


def _bounded_slopes(slopes: SlopeInterval, model_name: str) -> SlopeInterval:
    if not slopes.bounded:
        raise ValueError(f"{model_name} requires a finite upper slope bound")
    return slopes


@dataclass(frozen=True, eq=False)
class Hopfield:
    """Membrane-potential model  dx/dt = -C x + A act(x) + u  with diagonal
    C >= 0 and each activation coordinate slope-restricted to `slopes`."""

    C: np.ndarray
    A: np.ndarray
    slopes: SlopeInterval
    u: np.ndarray | None = None

    def __post_init__(self):
        C = check_diagonal(self.C)
        A = as_matrix(self.A)
        if A.shape != C.shape:
            raise ValueError("C and A must share one dimension")
        u = np.zeros(A.shape[0]) if self.u is None else as_vector(self.u, A.shape[0])
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class FiringRate:
    """Firing-rate model  dx/dt = -C x + act(A x + u)  with diagonal C >= 0."""

    C: np.ndarray
    A: np.ndarray
    slopes: SlopeInterval
    u: np.ndarray | None = None

    def __post_init__(self):
        C = check_diagonal(self.C)
        A = as_matrix(self.A)
        if A.shape != C.shape:
            raise ValueError("C and A must share one dimension")
        u = np.zeros(A.shape[0]) if self.u is None else as_vector(self.u, A.shape[0])
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class Persidskii:
    """Activation-only model  dx/dt = A act(x)  with strictly positive lower
    slope bound."""

    A: np.ndarray
    slopes: SlopeInterval

    def __post_init__(self):
        A = as_matrix(self.A)
        slopes = _bounded_slopes(self.slopes, "Persidskii")
        if slopes.d1 <= 0:
            raise ValueError("Persidskii model requires d1 > 0")
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class AxMinusCPhi:
    """Model  dx/dt = A x - C act(x)  with diagonal C >= 0."""

    A: np.ndarray
    C: np.ndarray
    slopes: SlopeInterval

    def __post_init__(self):
        A = as_matrix(self.A)
        C = check_diagonal(self.C)
        if A.shape != C.shape:
            raise ValueError("C and A must share one dimension")
        _bounded_slopes(self.slopes, "AxMinusCPhi")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class Entrywise:
    """Entrywise-coupled model  dx_i/dt = sum_j A_ij act_ij(x_j)  where every
    scalar activation shares the slope interval (d1 > 0)."""

    A: np.ndarray
    slopes: SlopeInterval

    def __post_init__(self):
        A = as_matrix(self.A)
        slopes = _bounded_slopes(self.slopes, "Entrywise")
        if slopes.d1 <= 0:
            raise ValueError("Entrywise model requires d1 > 0")
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class Lure:
    """Scalar-feedback loop  dx/dt = A x + b act(c^T x)."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    slopes: SlopeInterval

    def __post_init__(self):
        A = as_matrix(self.A)
        b = as_vector(self.b, A.shape[0])
        c = as_vector(self.c, A.shape[0])
        _bounded_slopes(self.slopes, "Lure")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class MultiLure:
    """Multivariable feedback loop  dx/dt = A x + B act(C x)  with
    B in R^(n x m) and C in R^(m x n)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    slopes: SlopeInterval

    def __post_init__(self):
        A = as_matrix(self.A)
        B = np.array(self.B, dtype=float)
        C = np.array(self.C, dtype=float)
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must be {n} x m, got shape {B.shape}")
        m = B.shape[1]
        if C.shape != (m, n):
            raise ValueError(f"C must be {m} x {n}, got shape {C.shape}")
        if not (np.all(np.isfinite(B)) and np.all(np.isfinite(C))):
            raise ValueError("matrix entries must be finite")
        _bounded_slopes(self.slopes, "MultiLure")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


NetworkModel = (
    Hopfield | FiringRate | Persidskii | AxMinusCPhi | Entrywise | Lure | MultiLure
)


@dataclass(frozen=True, eq=False)
class ContractionCertificate:
    """Result of a contraction analysis.

    `osl` is the one-sided Lipschitz bound certified at `weights` in the
    `family` norm; `margin` is its distance below zero (negative when the
    model was not certified).  `tight` records whether the bound equals the
    minimal one-sided Lipschitz constant or is only an upper bound.  Some
    analyses certify a second norm simultaneously (`alt_family`,
    `alt_weights`) at the same rate.
    """

    contracting: bool
    rate: float
    family: str
    weights: np.ndarray | None
    theorem: str
    tight: bool
    osl: float
    margin: float
    alt_family: str | None = None
    alt_weights: np.ndarray | None = None
    details: dict = field(default_factory=dict)


def _certificate(osl, family, weights, theorem, tight, alt_family=None,
                 alt_weights=None, **details) -> ContractionCertificate:
    contracting = osl <= -CONTRACTION_MARGIN
    return ContractionCertificate(
        contracting=contracting,
        rate=-osl if contracting else 0.0,
        family=family,
        weights=None if weights is None else np.asarray(weights, dtype=float),
        theorem=theorem,
        tight=bool(tight),
        osl=float(osl),
        margin=float(-osl),
        alt_family=alt_family,
        alt_weights=None if alt_weights is None else np.asarray(alt_weights, dtype=float),
        details=details,
    )


def _jacobian_polytope(model) -> PolytopeSpec:
    """Polytope swept by the model Jacobian as the activation slopes vary."""
    if isinstance(model, Hopfield):
        return PolytopeSpec(model.A, -np.diag(model.C), model.slopes, RIGHT)
    if isinstance(model, FiringRate):
        return PolytopeSpec(model.A, -np.diag(model.C), model.slopes, LEFT)
    raise TypeError(f"no slope polytope for {type(model).__name__}")


def _perron_weight_pair(M):
    """Perron pair of a Metzler matrix with automatic delta fallback for
    reducible input.  Returns (pair, perturbed flag)."""
    irr = is_irreducible(M)
    pair = perron_pair(M, 0.0 if irr else DEFAULT_DELTA)
    return pair, not irr


def osl_hopfield(model: Hopfield, family: str, weights=None) -> float:
    """Exact minimal one-sided Lipschitz constant of a Hopfield model at a
    fixed weight vector (all-ones by default)."""
    if not model.slopes.bounded:
        raise ValueError(
            "slope interval is unbounded; use certify_unbounded_slope instead"
        )
    return worst_case_osl(model, family, weights)


def osl_firing_rate(model: FiringRate, family: str, weights=None) -> tuple[float, bool]:
    """Fixed-weight one-sided Lipschitz constant of a firing-rate model.

    The value is exact iff A is invertible (the slope polytope is then fully
    swept by the Jacobian); otherwise it is an upper bound, and the returned
    flag is False.
    """
    if not model.slopes.bounded:
        raise ValueError(
            "slope interval is unbounded; use certify_unbounded_slope instead"
        )
    value = worst_case_osl(model, family, weights)
    tight = int(np.linalg.matrix_rank(model.A)) == model.n
    return value, tight


def worst_case_osl(model, family: str, weights=None) -> float:
    return worst_case_mu(_jacobian_polytope(model), family, weights)


def _invertible(A: np.ndarray) -> bool:
    return int(np.linalg.matrix_rank(A)) == A.shape[0]


def optimal_certificate(model, family: str) -> ContractionCertificate:
    """Weight-optimized contraction certificate for a Hopfield or firing-rate
    model with bounded slopes.

    The optimum is found by :func:`mucert.optimize.bisect_min_mu` over the two
    envelope matrices of the Jacobian polytope.  When the leak matrix is
    scalar with d1 >= 0, or d1 = 0 with strictly positive leak, the optimal
    weight has a dominant-eigenvector closed form; that weight is used and
    cross-checked against the optimized level.  Reducible majorants take a
    perturbed dominant eigenvector and the certificate is marked non-tight.
    """
    if isinstance(model, Hopfield):
        kind = "hopfield"
        exact = True
    elif isinstance(model, FiringRate):
        kind = "firing-rate"
        exact = _invertible(model.A)
    else:
        raise TypeError("optimal_certificate expects a Hopfield or FiringRate model")
    if not model.slopes.bounded:
        raise ValueError(
            "slope interval is unbounded; use certify_unbounded_slope instead"
        )

    spec = _jacobian_polytope(model)
    M1, M2 = envelope_matrices(spec, family)
    res = bisect_min_mu([M1, M2], family)
    weights = res.eta_star
    theorem = f"{kind}/{family}/weight-lp"
    tight = exact
    details = {"b_star": res.b_star}

    closed_family = L1 if kind == "hopfield" else LINF
    if family == closed_family:
        d1, d2 = model.slopes.d1, model.slopes.d2
        cdiag = np.diag(model.C)
        Mzr = metzler_majorant(model.A)
        target = None
        if d1 == 0.0 and d2 > 0.0 and np.all(cdiag > 0.0):
            target = -model.C + d2 * Mzr
            closed_value = max(float(np.max(-cdiag)), spectral_abscissa(target))
        elif d1 >= 0.0 and np.all(cdiag == cdiag[0]):
            target = Mzr
            a_m = spectral_abscissa(Mzr)
            closed_value = -float(cdiag[0]) + max(d1 * a_m, d2 * a_m)
        if target is not None:
            pair, perturbed = _perron_weight_pair(target)
            weights = pair.left if family == L1 else pair.right
            if abs(res.b_star - closed_value) > CLOSED_FORM_TOL:
                raise NumericalError(
                    f"closed-form optimum {closed_value} disagrees with the optimized "
                    f"level {res.b_star}"
                )
            theorem = f"{kind}/{family}/perron"
            tight = exact and not perturbed
            details.update(closed_form=closed_value, delta=pair.delta_used)

    osl = max(log_norm(M1, family, weights), log_norm(M2, family, weights))
    return _certificate(osl, family, weights, theorem, tight, **details)


def certify_unbounded_slope(kind: str, C, A, d1: float) -> ContractionCertificate:
    """Contraction certificate for Hopfield / firing-rate models whose
    activations have slopes in [d1, inf).

    Requires the log norm m(w) of the Metzler majorant of A at the carried
    weights w to be negative (m(w) = alpha(majorant) unless the majorant is
    reducible) and the resulting decay bound
    -(alpha(-C) + max(d1, 0) m(w) - (|d1| - d1) min_i A_ii)  to be positive;
    this is the bound the proof of the statement actually yields (the
    certificate records the alternative sign arrangement under
    ``statement_rate`` for comparison).  Hopfield models are certified in the
    weighted l1 norm at the majorant's left dominant eigenvector, firing-rate
    models in the weighted linf norm at the right one.
    """
    if kind not in ("hopfield", "firing_rate"):
        raise ValueError(f"kind must be 'hopfield' or 'firing_rate', got {kind!r}")
    C = check_diagonal(C)
    A = as_matrix(A)
    if A.shape != C.shape:
        raise ValueError("C and A must share one dimension")
    d1 = float(d1)
    if not np.isfinite(d1):
        raise ValueError("d1 must be finite")

    Mzr = metzler_majorant(A)
    pair, perturbed = _perron_weight_pair(Mzr)
    a_m = spectral_abscissa(Mzr)
    a_mc = float(np.max(-np.diag(C)))
    min_diag = float(np.min(np.diag(A)))

    family = L1 if kind == "hopfield" else LINF
    weights = pair.left if kind == "hopfield" else pair.right
    theorem = f"{kind.replace('_', '-')}/{family}/unbounded-slope"

    # The bound holds with the majorant's log norm at the carried weights.
    # It equals a_m only for an irreducible majorant; a reducible one gets
    # weights from its delta-perturbed pair, which can miss a_m by O(sqrt(delta)).
    m_w = (mu1 if family == L1 else muinf)(Mzr, weights)
    majorant_hurwitz = m_w < -CONTRACTION_MARGIN
    rate = -(a_mc + max(d1, 0.0) * m_w - (abs(d1) - d1) * min_diag)
    statement_rate = -a_mc + max(d1, 0.0) * a_m + (abs(d1) - d1) * min_diag
    details = {
        "statement_rate": statement_rate,
        "mh_sufficient": d1 >= 0.0,
        "alpha_majorant": a_m,
    }
    if not majorant_hurwitz:
        details["violated"] = "majorant-not-hurwitz"
        return _certificate(np.inf, family, None, theorem, False, **details)
    if rate <= CONTRACTION_MARGIN:
        details["violated"] = "decay-bound-not-positive"
        return _certificate(np.inf, family, None, theorem, False, **details)
    return _certificate(-rate, family, weights, theorem, not perturbed, **details)


def certify_persidskii(model: Persidskii) -> ContractionCertificate:
    """Certificate for dx/dt = A act(x): contracting iff the Metzler majorant
    of A is Hurwitz, with rate d1 * |alpha(majorant)| in the weighted l1 norm
    at the majorant's left dominant eigenvector."""
    Mzr = metzler_majorant(model.A)
    pair, perturbed = _perron_weight_pair(Mzr)
    w = pair.left
    m = mu1(model.A, w)
    osl = max(model.slopes.d1 * m, model.slopes.d2 * m)
    return _certificate(
        osl, L1, w, "persidskii/l1/perron", not perturbed,
        alpha_majorant=spectral_abscissa(Mzr),
    )


def certify_hopfield_mh(C, A, d2: float) -> ContractionCertificate:
    """Certificate for the Hopfield model with d1 = 0 and strictly positive
    diagonal leak: contracting iff -C + d2 A has a Hurwitz Metzler majorant,
    with rate -max(alpha(-C), alpha(-C + d2 majorant(A)))."""
    C = check_diagonal(C)
    if np.any(np.diag(C) <= 0.0):
        raise ValueError("leak matrix must have strictly positive diagonal")
    A = as_matrix(A)
    if A.shape != C.shape:
        raise ValueError("C and A must share one dimension")
    d2 = float(d2)
    if not (np.isfinite(d2) and d2 >= 0.0):
        raise ValueError("d2 must be finite and nonnegative")

    T = -C + d2 * metzler_majorant(A)
    pair, perturbed = _perron_weight_pair(T)
    w = pair.left
    osl = max(mu1(-C, w), mu1(-C + d2 * A, w))
    return _certificate(
        osl, L1, w, "hopfield-mh/l1/perron", not perturbed,
        alpha_shifted_majorant=spectral_abscissa(T),
    )


def certify_ax_minus_cphi(model: AxMinusCPhi) -> ContractionCertificate:
    """Certificate for dx/dt = A x - C act(x): contracting iff A - d1 C has a
    Hurwitz Metzler majorant, with rate -alpha(majorant(A) - d1 C) in the
    weighted l1 norm at that matrix's left dominant eigenvector."""
    d1 = model.slopes.d1
    T = metzler_majorant(model.A) - d1 * model.C
    pair, perturbed = _perron_weight_pair(T)
    w = pair.left
    osl = mu1(model.A - d1 * model.C, w)
    return _certificate(
        osl, L1, w, "ax-minus-cphi/l1/perron", not perturbed,
        alpha_shifted_majorant=spectral_abscissa(T),
    )


def entrywise_envelope(model: Entrywise) -> np.ndarray:
    """The matrix d2 A - (d2 - d1)(I o A) whose Metzler majorant dominates
    every Jacobian majorant of the entrywise-coupled model."""
    d1, d2 = model.slopes.d1, model.slopes.d2
    return d2 * model.A - (d2 - d1) * np.diag(np.diag(model.A))


def certify_entrywise(model: Entrywise) -> ContractionCertificate:
    """Certificate for the entrywise-coupled model: contracting iff the
    envelope matrix is M-Hurwitz; the rate holds simultaneously in the
    weighted l1 and linf norms at the envelope majorant's dominant left and
    right eigenvectors.  The bound is an entrywise-domination upper bound,
    never claimed exact."""
    B = entrywise_envelope(model)
    MzrB = metzler_majorant(B)
    pair, perturbed = _perron_weight_pair(MzrB)
    osl = max(mu1(B, pair.left), muinf(B, pair.right))
    return _certificate(
        osl, L1, pair.left, "entrywise/coupling-bound", False,
        alt_family=LINF, alt_weights=pair.right,
        alpha_envelope=spectral_abscissa(MzrB), delta=pair.delta_used,
    )


def certify_lure(model: Lure, family: str) -> ContractionCertificate:
    """Weight-optimized certificate for the scalar-feedback loop.

    The closed-loop Jacobian is A + s b c^T with the scalar slope s in
    [d1, d2]; convexity of the log norm in s puts the worst case at an
    endpoint, so the weight optimization runs over the two endpoint matrices.
    """
    rank_one = np.outer(model.b, model.c)
    M1 = model.A + model.slopes.d1 * rank_one
    M2 = model.A + model.slopes.d2 * rank_one
    res = bisect_min_mu([M1, M2], family)
    w = res.eta_star
    osl = max(log_norm(M1, family, w), log_norm(M2, family, w))
    return _certificate(
        osl, family, w, f"lure/{family}/weight-lp", True, b_star=res.b_star
    )


def multilure_coupling_bound(model: MultiLure) -> np.ndarray:
    """Metzler matrix dominating the Metzler majorant of every closed-loop
    Jacobian A + B diag(d) C with d in [d1, d2]^m (requires d1 >= 0).

    Diagonal entries add the best-signed slope extremes of the loop gains
    B_ik C_ki; off-diagonal entries take the larger of the two signed
    combinations, which majorizes |(B diag(d) C)_ij| over the slope box.
    """
    d1, d2 = model.slopes.d1, model.slopes.d2
    if d1 < 0.0:
        raise ValueError("coupling bound requires d1 >= 0")
    # T[i, k, j] = B[i, k] * C[k, j]
    T = model.B[:, :, None] * model.C[None, :, :]
    pos = np.clip(T, 0.0, None).sum(axis=1)
    neg = np.clip(T, None, 0.0).sum(axis=1)
    hi = d2 * pos + d1 * neg
    lo = d1 * pos + d2 * neg
    F = np.abs(model.A) + np.maximum(hi, -lo)
    np.fill_diagonal(F, np.diag(model.A) + np.diag(hi))
    return F


def certify_multilure(model: MultiLure) -> ContractionCertificate:
    """Certificate for the multivariable feedback loop via the coupling bound
    matrix: contracting iff that matrix is M-Hurwitz, with the rate holding in
    both the weighted l1 and linf norms at its dominant eigenvectors."""
    F = multilure_coupling_bound(model)
    MzrF = metzler_majorant(F)
    pair, perturbed = _perron_weight_pair(MzrF)
    osl = max(mu1(F, pair.left), muinf(F, pair.right))
    return _certificate(
        osl, L1, pair.left, "multilure/coupling-bound", False,
        alt_family=LINF, alt_weights=pair.right,
        alpha_coupling=spectral_abscissa(MzrF), delta=pair.delta_used,
    )


def osl_multilure_linf(model: MultiLure, weights=None) -> tuple[float, bool]:
    """Exact maximum over the slope box of the weighted linf log norm of
    A + B diag(d) C, by enumerating the active row and the off-diagonal sign
    pattern; for each fixed pattern the objective is linear in d, so every
    slope sits at an interval endpoint.

    The value equals the model's minimal one-sided Lipschitz constant iff C is
    full-rank with m >= n (second return value); otherwise it is an upper
    bound.  Guarded at n <= 16 (n * 2^(n-1) patterns).
    """
    n, m = model.n, model.m
    if n > MULTILURE_MAX_DIM:
        raise ValueError(f"exact solver guarded at n <= {MULTILURE_MAX_DIM}")
    w = np.ones(n) if weights is None else as_vector(weights, n)
    if np.any(w <= 0):
        raise ValueError("weight vector entries must be strictly positive")
    A, B, C = model.A, model.B, model.C
    d1, d2 = model.slopes.d1, model.slopes.d2

    best = -np.inf
    for i in range(n):
        others = [j for j in range(n) if j != i]
        ratio = w[others] / w[i]
        if others:
            signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n - 1)))
            const = A[i, i] + signs @ (A[i, others] * ratio)
            # coef[p, k] = B[i, k] * (C[k, i] + sum_j signs[p, j] C[k, j] w_j / w_i)
            coef = B[i, :] * (C[:, i] + (signs @ (C[:, others] * ratio).T))
        else:
            const = np.array([A[i, i]])
            coef = (B[i, :] * C[:, i])[None, :]
        vals = const + d2 * np.clip(coef, 0.0, None).sum(axis=1) \
            + d1 * np.clip(coef, None, 0.0).sum(axis=1)
        best = max(best, float(np.max(vals)))

    tight = m >= n and int(np.linalg.matrix_rank(C)) == n
    return best, tight


def fixed_weight_osl(model, family: str, weights=None) -> tuple[float, bool]:
    """One-sided Lipschitz bound of any supported model at a fixed weight.

    Returns (value, exact flag).  Exact wherever the slope polytope is fully
    swept by the Jacobian; entrywise and multivariable-loop models only admit
    domination bounds (and the latter is linf-only).
    """
    if isinstance(model, Hopfield):
        return osl_hopfield(model, family, weights), True
    if isinstance(model, FiringRate):
        return osl_firing_rate(model, family, weights)
    if isinstance(model, Persidskii):
        spec = PolytopeSpec(model.A, np.zeros(model.n), model.slopes, RIGHT)
        return worst_case_mu(spec, family, weights), True
    if isinstance(model, AxMinusCPhi):
        shifted = model.A - model.slopes.d1 * model.C
        return log_norm(shifted, family, weights), True
    if isinstance(model, Entrywise):
        return log_norm(entrywise_envelope(model), family, weights), False
    if isinstance(model, Lure):
        rank_one = np.outer(model.b, model.c)
        vals = [
            log_norm(model.A + d * rank_one, family, weights)
            for d in (model.slopes.d1, model.slopes.d2)
        ]
        return max(vals), True
    if isinstance(model, MultiLure):
        if family != LINF:
            raise ValueError("multivariable loop bounds are linf-only")
        return osl_multilure_linf(model, weights)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def certify(model, family: str | None = None) -> ContractionCertificate:
    """Dispatch a model to its certificate analysis.

    `family` selects the norm for Hopfield (default l1), firing-rate (default
    linf) and scalar-loop (default l1) models; the remaining analyses fix
    their own norms.  Unbounded slopes route Hopfield / firing-rate models to
    the unbounded-slope certificate.
    """
    if isinstance(model, (Hopfield, FiringRate)):
        kind = "hopfield" if isinstance(model, Hopfield) else "firing_rate"
        default = L1 if kind == "hopfield" else LINF
        fam = default if family is None else family
        if not model.slopes.bounded:
            if fam != default:
                raise ValueError(
                    f"unbounded-slope certificates for {kind} are {default}-only"
                )
            return certify_unbounded_slope(kind, model.C, model.A, model.slopes.d1)
        return optimal_certificate(model, fam)
    if isinstance(model, Lure):
        return certify_lure(model, L1 if family is None else family)
    if isinstance(model, Persidskii):
        cert = certify_persidskii(model)
    elif isinstance(model, AxMinusCPhi):
        cert = certify_ax_minus_cphi(model)
    elif isinstance(model, Entrywise):
        cert = certify_entrywise(model)
    elif isinstance(model, MultiLure):
        cert = certify_multilure(model)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if family is not None and family not in (cert.family, cert.alt_family):
        raise ValueError(
            f"{type(model).__name__} certificates fix their norm family "
            f"({cert.family}{' and ' + cert.alt_family if cert.alt_family else ''})"
        )
    return cert
