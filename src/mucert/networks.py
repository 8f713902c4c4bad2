"""Continuous-time neural network models, their one-sided Lipschitz constants
and their contraction certificates.

Each model class owns its behaviour: `tag` names it in model files, `field`
and `jacobian` evaluate its vector field, `fixed_weight_osl` bounds its
one-sided Lipschitz constant at a given weight, and `certificate` returns its
contraction certificate.  The module-level functions (`certify`,
`fixed_weight_osl`, `certify_persidskii`, ...) delegate to these methods, and
`MODELS` maps each tag to its class.

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
    ReducibleMatrixError,
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


def _perron_weight_pair(M):
    """(Perron pair, spectral abscissa) of a Metzler matrix: both from one
    pair if it is irreducible, else the pair of its DEFAULT_DELTA perturbation
    and the unperturbed abscissa, which the perturbation can move far more."""
    try:
        pair = perron_pair(M)
    except ReducibleMatrixError:
        return perron_pair(M, DEFAULT_DELTA), spectral_abscissa(M)
    return pair, pair.alpha


def _coupling_certificate(B, theorem, alpha_key) -> ContractionCertificate:
    """Certificate from a matrix B whose Metzler majorant dominates every
    Jacobian majorant: one rate in the weighted l1 and linf norms at the
    majorant's left and right dominant eigenvectors, never claimed exact."""
    pair, alpha = _perron_weight_pair(metzler_majorant(B))
    osl = max(mu1(B, pair.left), muinf(B, pair.right))
    return _certificate(
        osl, L1, pair.left, theorem, False,
        alt_family=LINF, alt_weights=pair.right,
        delta=pair.delta_used, **{alpha_key: alpha},
    )


class _Model:
    """Behaviour shared by every network model.

    A subclass sets the class attribute `tag` and defines `field(act)` (the
    right-hand side over column-stacked states (n, k)), `jacobian(act, x)`
    and `fixed_weight_osl(family, weights)` (a (value, exact) pair).  Models
    whose analysis fixes its own norm define `_certify()`; the others
    override `certificate`.
    """

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def _require_bounded(self):
        if not self.slopes.bounded:
            raise ValueError(f"{type(self).__name__} requires a finite upper slope bound")

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        cert = self._certify()
        if family is not None and family not in (cert.family, cert.alt_family):
            raise ValueError(
                f"{type(self).__name__} certificates fix their norm family "
                f"({cert.family}{' and ' + cert.alt_family if cert.alt_family else ''})"
            )
        return cert


@dataclass(frozen=True, eq=False)
class _Leaky(_Model):
    """Leaky network  dx/dt = -C x + ...  with diagonal C >= 0, coupling A and
    input u (zero when omitted); the base of Hopfield and FiringRate.

    A subclass sets `side`, the side of the slope polytope that its Jacobian
    sweeps, and `family`, its default norm and the one in which its optimal
    weight has a dominant-eigenvector closed form.  Unbounded slopes are
    certified by :func:`certify_unbounded_slope` only.

    The fields scale rows by the diagonal of C, which for finite states is
    C @ X entry for entry, without the n x n product.
    """

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
    def kind(self) -> str:
        return self.tag.replace("_", "-")

    @property
    def exact(self) -> bool:
        """Whether the fixed-weight bound is the minimal one-sided Lipschitz
        constant: the Jacobian sweeps a right-side polytope in full, and a
        left-side one (slopes taken at A x + u) iff A is invertible."""
        return self.side == RIGHT or int(np.linalg.matrix_rank(self.A)) == self.n

    def polytope(self) -> PolytopeSpec:
        """Polytope swept by the model Jacobian as the activation slopes vary."""
        if not self.slopes.bounded:
            raise ValueError(
                "fixed-weight and optimized bounds need a finite upper slope bound d2"
            )
        return PolytopeSpec(self.A, -np.diag(self.C), self.slopes, self.side)

    def fixed_weight_osl(self, family: str, weights=None) -> tuple[float, bool]:
        return worst_case_mu(self.polytope(), family, weights), self.exact

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        fam = self.family if family is None else family
        if self.slopes.bounded:
            return self.optimal_certificate(fam)
        if fam != self.family:
            raise ValueError(
                f"unbounded-slope certificates for {self.tag} are {self.family}-only"
            )
        return self._unbounded_certificate()

    def optimal_certificate(self, family: str) -> ContractionCertificate:
        spec = self.polytope()
        M1, M2 = envelope_matrices(spec, family)
        res = bisect_min_mu([M1, M2], family)
        weights = res.eta_star
        theorem = f"{self.kind}/{family}/weight-lp"
        tight = self.exact
        details = {"b_star": res.b_star}

        if family == self.family:
            d1, d2 = self.slopes.d1, self.slopes.d2
            cdiag = np.diag(self.C)
            Mzr = metzler_majorant(self.A)
            closed_value = None
            if d1 == 0.0 and d2 > 0.0 and np.all(cdiag > 0.0):
                pair, a_t = _perron_weight_pair(-self.C + d2 * Mzr)
                closed_value = max(float(np.max(-cdiag)), a_t)
            elif d1 >= 0.0 and np.all(cdiag == cdiag[0]):
                pair, a_m = _perron_weight_pair(Mzr)
                closed_value = -float(cdiag[0]) + max(d1 * a_m, d2 * a_m)
            if closed_value is not None:
                weights = pair.left if family == L1 else pair.right
                if abs(res.b_star - closed_value) > CLOSED_FORM_TOL:
                    raise NumericalError(
                        f"closed-form optimum {closed_value} disagrees with the optimized "
                        f"level {res.b_star}"
                    )
                theorem = f"{self.kind}/{family}/perron"
                tight = tight and pair.irreducible
                details.update(closed_form=closed_value, delta=pair.delta_used)

        osl = max(log_norm(M1, family, weights), log_norm(M2, family, weights))
        return _certificate(osl, family, weights, theorem, tight, **details)

    def _unbounded_certificate(self) -> ContractionCertificate:
        family, d1 = self.family, self.slopes.d1
        Mzr = metzler_majorant(self.A)
        pair, a_m = _perron_weight_pair(Mzr)
        a_mc = float(np.max(-np.diag(self.C)))
        min_diag = float(np.min(np.diag(self.A)))

        weights = pair.left if family == L1 else pair.right
        theorem = f"{self.kind}/{family}/unbounded-slope"

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
        return _certificate(-rate, family, weights, theorem, pair.irreducible, **details)


class Hopfield(_Leaky):
    """Membrane-potential model  dx/dt = -C x + A act(x) + u  with diagonal
    C >= 0 and each activation coordinate slope-restricted to `slopes`.
    Certified in the weighted l1 norm by default."""

    tag = "hopfield"
    side = RIGHT
    family = L1

    def field(self, act):
        c, A, u = np.diag(self.C)[:, None], self.A, self.u[:, None]
        return lambda X: -c * X + A @ act(X) + u

    def jacobian(self, act, x) -> np.ndarray:
        return -self.C + self.A * act.deriv(x)[None, :]


class FiringRate(_Leaky):
    """Firing-rate model  dx/dt = -C x + act(A x + u)  with diagonal C >= 0.
    Certified in the weighted linf norm by default."""

    tag = "firing_rate"
    side = LEFT
    family = LINF

    def field(self, act):
        c, A, u = np.diag(self.C)[:, None], self.A, self.u[:, None]
        return lambda X: -c * X + act(A @ X + u)

    def jacobian(self, act, x) -> np.ndarray:
        return -self.C + act.deriv(self.A @ x + self.u)[:, None] * self.A


@dataclass(frozen=True, eq=False)
class Persidskii(_Model):
    """Activation-only model  dx/dt = A act(x)  with strictly positive lower
    slope bound.

    Contracting iff the Metzler majorant of A is Hurwitz, with rate
    d1 * |alpha(majorant)| in the weighted l1 norm at the majorant's left
    dominant eigenvector."""

    tag = "persidskii"

    A: np.ndarray
    slopes: SlopeInterval

    def __post_init__(self):
        A = as_matrix(self.A)
        self._require_bounded()
        if self.slopes.d1 <= 0:
            raise ValueError(f"{type(self).__name__} model requires d1 > 0")
        object.__setattr__(self, "A", A)

    def field(self, act):
        A = self.A
        return lambda X: A @ act(X)

    def jacobian(self, act, x) -> np.ndarray:
        return self.A * act.deriv(x)[None, :]

    def fixed_weight_osl(self, family: str, weights=None) -> tuple[float, bool]:
        spec = PolytopeSpec(self.A, np.zeros(self.n), self.slopes, RIGHT)
        return worst_case_mu(spec, family, weights), True

    def _certify(self) -> ContractionCertificate:
        pair, alpha = _perron_weight_pair(metzler_majorant(self.A))
        w = pair.left
        m = mu1(self.A, w)
        osl = max(self.slopes.d1 * m, self.slopes.d2 * m)
        return _certificate(
            osl, L1, w, "persidskii/l1/perron", pair.irreducible,
            alpha_majorant=alpha,
        )


@dataclass(frozen=True, eq=False)
class AxMinusCPhi(_Model):
    """Model  dx/dt = A x - C act(x)  with diagonal C >= 0.

    Contracting iff A - d1 C has a Hurwitz Metzler majorant, with rate
    -alpha(majorant(A) - d1 C) in the weighted l1 norm at that matrix's left
    dominant eigenvector."""

    tag = "ax_minus_cphi"

    A: np.ndarray
    C: np.ndarray
    slopes: SlopeInterval

    def __post_init__(self):
        A = as_matrix(self.A)
        C = check_diagonal(self.C)
        if A.shape != C.shape:
            raise ValueError("C and A must share one dimension")
        self._require_bounded()
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)

    def field(self, act):
        A, c = self.A, np.diag(self.C)[:, None]
        return lambda X: A @ X - c * act(X)

    def jacobian(self, act, x) -> np.ndarray:
        return self.A - self.C * act.deriv(x)[None, :]

    def fixed_weight_osl(self, family: str, weights=None) -> tuple[float, bool]:
        return log_norm(self.A - self.slopes.d1 * self.C, family, weights), True

    def _certify(self) -> ContractionCertificate:
        d1 = self.slopes.d1
        pair, alpha = _perron_weight_pair(metzler_majorant(self.A) - d1 * self.C)
        w = pair.left
        osl = mu1(self.A - d1 * self.C, w)
        return _certificate(
            osl, L1, w, "ax-minus-cphi/l1/perron", pair.irreducible,
            alpha_shifted_majorant=alpha,
        )


@dataclass(frozen=True, eq=False)
class Entrywise(_Model):
    """Entrywise-coupled model  dx_i/dt = sum_j A_ij act_ij(x_j)  where every
    scalar activation shares the slope interval (d1 > 0).  Simulation uses
    one activation for every entry.

    Contracting iff the envelope matrix is M-Hurwitz; the rate holds
    simultaneously in the weighted l1 and linf norms at the envelope
    majorant's dominant left and right eigenvectors.  The bound is an
    entrywise-domination upper bound, never claimed exact."""

    tag = "entrywise"

    A: np.ndarray
    slopes: SlopeInterval

    __post_init__ = Persidskii.__post_init__
    field = Persidskii.field
    jacobian = Persidskii.jacobian

    def envelope(self) -> np.ndarray:
        """The matrix d2 A - (d2 - d1)(I o A) whose Metzler majorant dominates
        every Jacobian majorant of the model."""
        d1, d2 = self.slopes.d1, self.slopes.d2
        return d2 * self.A - (d2 - d1) * np.diag(np.diag(self.A))

    def fixed_weight_osl(self, family: str, weights=None) -> tuple[float, bool]:
        return log_norm(self.envelope(), family, weights), False

    def _certify(self) -> ContractionCertificate:
        return _coupling_certificate(
            self.envelope(), "entrywise/coupling-bound", "alpha_envelope"
        )


@dataclass(frozen=True, eq=False)
class Lure(_Model):
    """Scalar-feedback loop  dx/dt = A x + b act(c^T x).

    The closed-loop Jacobian is A + s b c^T with the scalar slope s in
    [d1, d2]; convexity of the log norm in s puts the worst case at an
    endpoint, so the weight optimization (l1 by default) runs over the two
    endpoint matrices."""

    tag = "lure"

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    slopes: SlopeInterval

    def __post_init__(self):
        A = as_matrix(self.A)
        b = as_vector(self.b, A.shape[0])
        c = as_vector(self.c, A.shape[0])
        self._require_bounded()
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def field(self, act):
        A, b, c = self.A, self.b[:, None], self.c
        return lambda X: A @ X + b * act(c @ X)[None, :]

    def jacobian(self, act, x) -> np.ndarray:
        return self.A + float(act.deriv(self.c @ x)) * np.outer(self.b, self.c)

    def endpoints(self) -> list[np.ndarray]:
        rank_one = np.outer(self.b, self.c)
        return [self.A + d * rank_one for d in (self.slopes.d1, self.slopes.d2)]

    def fixed_weight_osl(self, family: str, weights=None) -> tuple[float, bool]:
        return max(log_norm(M, family, weights) for M in self.endpoints()), True

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        family = L1 if family is None else family
        mats = self.endpoints()
        res = bisect_min_mu(mats, family)
        w = res.eta_star
        osl = max(log_norm(M, family, w) for M in mats)
        return _certificate(
            osl, family, w, f"lure/{family}/weight-lp", True, b_star=res.b_star
        )


@dataclass(frozen=True, eq=False)
class MultiLure(_Model):
    """Multivariable feedback loop  dx/dt = A x + B act(C x)  with
    B in R^(n x m) and C in R^(m x n).

    Certified via the coupling bound matrix: contracting iff that matrix is
    M-Hurwitz, with the rate holding in both the weighted l1 and linf norms
    at its dominant eigenvectors.  Fixed-weight bounds are linf-only."""

    tag = "multilure"

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
        self._require_bounded()
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def field(self, act):
        A, B, C = self.A, self.B, self.C
        return lambda X: A @ X + B @ act(C @ X)

    def jacobian(self, act, x) -> np.ndarray:
        return self.A + self.B @ (act.deriv(self.C @ x)[:, None] * self.C)

    def fixed_weight_osl(self, family: str, weights=None) -> tuple[float, bool]:
        if family != LINF:
            raise ValueError("multivariable loop bounds are linf-only")
        return osl_multilure_linf(self, weights)

    def _certify(self) -> ContractionCertificate:
        return _coupling_certificate(
            multilure_coupling_bound(self), "multilure/coupling-bound", "alpha_coupling"
        )


# A new model is one class above plus its member here.
NetworkModel = (
    Hopfield | FiringRate | Persidskii | AxMinusCPhi | Entrywise | Lure | MultiLure
)

# Model-file tag -> model class.
MODELS = {cls.tag: cls for cls in NetworkModel.__args__}


def check_model(model):
    """Return `model` if it is a network model; raise TypeError otherwise."""
    if not isinstance(model, _Model):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return model


def osl_hopfield(model: Hopfield, family: str, weights=None) -> float:
    """Exact minimal one-sided Lipschitz constant of a Hopfield model at a
    fixed weight vector (all-ones by default)."""
    return model.fixed_weight_osl(family, weights)[0]


def osl_firing_rate(model: FiringRate, family: str, weights=None) -> tuple[float, bool]:
    """Fixed-weight one-sided Lipschitz constant of a firing-rate model.

    The value is exact iff A is invertible (the slope polytope is then fully
    swept by the Jacobian); otherwise it is an upper bound, and the returned
    flag is False.
    """
    return model.fixed_weight_osl(family, weights)


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
    if not isinstance(model, _Leaky):
        raise TypeError("optimal_certificate expects a Hopfield or FiringRate model")
    return model.optimal_certificate(family)


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
    return MODELS[kind](C, A, SlopeInterval(d1, np.inf)).certificate()


def certify_persidskii(model: Persidskii) -> ContractionCertificate:
    """Certificate of a Persidskii model; the class docstring states it."""
    return model.certificate()


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

    pair, alpha = _perron_weight_pair(-C + d2 * metzler_majorant(A))
    w = pair.left
    osl = max(mu1(-C, w), mu1(-C + d2 * A, w))
    return _certificate(
        osl, L1, w, "hopfield-mh/l1/perron", pair.irreducible,
        alpha_shifted_majorant=alpha,
    )


def certify_ax_minus_cphi(model: AxMinusCPhi) -> ContractionCertificate:
    """Certificate of an AxMinusCPhi model; the class docstring states it."""
    return model.certificate()


def certify_entrywise(model: Entrywise) -> ContractionCertificate:
    """Certificate of an Entrywise model; the class docstring states it."""
    return model.certificate()


def certify_lure(model: Lure, family: str) -> ContractionCertificate:
    """Weight-optimized certificate of a Lure model in the `family` norm."""
    return model.certificate(family)


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
    """Certificate of a MultiLure model; the class docstring states it."""
    return model.certificate()


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
    return check_model(model).fixed_weight_osl(family, weights)


def certify(model, family: str | None = None) -> ContractionCertificate:
    """The model's contraction certificate.

    `family` selects the norm for Hopfield (default l1), firing-rate (default
    linf) and scalar-loop (default l1) models; the remaining analyses fix
    their own norms.  Unbounded slopes route Hopfield / firing-rate models to
    the unbounded-slope certificate.
    """
    return check_model(model).certificate(family)
