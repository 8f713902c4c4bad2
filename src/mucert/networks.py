"""Continuous-time neural network models, their one-sided Lipschitz constants
and their contraction certificates.

Each model class owns its behaviour: `tag` names it in model files,
`euler_map` builds its one statement of the dynamics, the map x X + h F(X)
with h folded into its matrices (the forward-Euler step that verification
runs at x = 1, the vector field F that integration runs at h = 1 and
x = 0), `jacobians` evaluates its Jacobians, `witnesses(family)` lists the
few matrices whose largest weighted log norm bounds its one-sided Lipschitz
constant, and `certificate` returns its contraction certificate.  The leaky
models share one code path, `_Leaky`: Hopfield, FiringRate, and Persidskii,
which is Hopfield with C = 0 and u = 0.
Entrywise is a Persidskii model with its own witness and certificate.  The
module-level functions (`certify`, `fixed_weight_osl`, ...) delegate to these
methods; `certify_persidskii` and the other per-model certify names are
aliases of `certify`.  `MODELS` maps each tag to its class.

Every certificate reports the one-sided Lipschitz bound actually certified at
the weight vector it carries (`osl`), the fixed-weight bound there, so the
guarantee ``||x(t) - y(t)|| <= exp(-rate * t) ||x(0) - y(0)||`` in the carried
weighted norm is checkable by evaluation.  `_certificate` declares a model
contracting only when that bound clears a strict margin below zero.

Weight conventions follow :mod:`mucert.lognorm`: an ``l1`` certificate with
weights w refers to the norm sum_i w_i |x_i|; an ``linf`` certificate refers
to max_i |x_i| / w_i.
"""

from dataclasses import dataclass, field

import numpy as np

from .matrices import (
    _checked_square,
    _majorant,
    _weights_or_ones,
    as_matrix,
    as_vector,
    check_diagonal,
    strong_blocks,
)
from .lognorm import (
    L1,
    LEFT,
    LINF,
    RIGHT,
    SlopeInterval,
    _envelope,
    _vertex_max,
    kernels,
)
from .optimize import RESOLVENT_SHIFT, bisect_min_mu
from .spectral import _block_abscissa, _perron, _resolvent_weights

# A model is declared contracting only if the certified bound is at or below
# minus this margin; the underlying strict inequalities must survive floating
# point.
CONTRACTION_MARGIN = 1e-9


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


def _slope_rows(act, X) -> np.ndarray:
    """The activation slopes at the columns of X as a C-contiguous (k, 1, n)
    stack of rows.  A strided one would give a strided Jacobian stack, which
    sends the log-norm kernels' batched products off BLAS and changes their
    last bits."""
    return np.ascontiguousarray(act.deriv(X).T)[:, None, :]


def _witness_osl(mats, family, weights) -> float:
    """The largest weighted log norm of the witness matrices `mats`: every
    fixed-weight bound and every certificate's `osl` is this number.

    The weights are validated once.  The witnesses are built C-ordered from
    the model's validated matrices, so each is only checked to be finite
    before the `family` kernel reads it: a witness that overflowed raises
    ValueError, as :func:`mucert.lognorm.log_norm` would.
    """
    mu = kernels(family)[0]
    w = _weights_or_ones(weights, mats[0].shape[0])
    return max(float(mu(_checked_square(M), w)) for M in mats)


# Rows of the Perron pair that a certificate in each norm carries: (lo, hi)
# of spectral._perron, the left vector for l1 and the right one for linf.
_PERRON_ROWS = {L1: (1, 2), LINF: (0, 1), None: (0, 2)}


def _perron_weights(M, family=None):
    """(right, left, alpha, shift) for a Metzler matrix M: only the weight
    vector that a `family` certificate carries (both for None; the other is
    None), the abscissa alpha of M and the shift above it.  An irreducible M
    gives its Perron vectors, the `alpha` of their pair and shift 0.  A
    reducible M gives the resolvent weights of
    `spectral._resolvent_weights` at alpha + RESOLVENT_SHIFT, on M for the
    right vector and on M.T for the left one, each scaled to unit sum, and
    shift RESOLVENT_SHIFT: the weighted log norm of M at either is at most
    alpha + shift.  alpha is taken once, from M's blocks, whichever vectors
    are wanted, so each weight vector is the same bits in every family.  M
    is checked to be finite before its blocks are searched, so an M that
    overflowed when it was built raises ValueError."""
    lo, hi = _PERRON_ROWS[family]
    blocks = strong_blocks(_checked_square(M))
    if len(blocks) == 1:
        pair = _perron(M, 0.0, lo, hi)
        return pair.right, pair.left, pair.alpha, 0.0
    vectors, alpha = [None, None], _block_abscissa(M, blocks)
    for i in range(lo, hi):
        w = _resolvent_weights((M, M.T)[i], (blocks, blocks[::-1])[i], alpha + RESOLVENT_SHIFT)
        vectors[i] = w / w.sum()
    return *vectors, alpha, RESOLVENT_SHIFT


def _perron_certificate(model, metzler, family, theorem, key,
                        level=lambda alpha: alpha) -> ContractionCertificate:
    """Certificate in the weighted `family` norm at the dominant eigenvector
    of the Metzler matrix `metzler`, left for l1 and right for linf, or at
    its resolvent weights if `metzler` is reducible (see `_perron_weights`).
    Only that vector is computed, and `details[key]` is `level` of the
    abscissa of `metzler`.  `metzler` and the witnesses come from the
    model's validated matrices and are not validated again.
    `details.delta` > 0 marks a reducible matrix and holds the resolvent
    shift; the bound is then not tight."""
    right, left, alpha, shift = _perron_weights(metzler, family)
    weights = left if family == L1 else right
    return _certificate(
        _witness_osl(model.witnesses(family), family, weights), family, weights, theorem,
        model.exact and shift == 0.0, **{key: level(alpha)}, delta=shift,
    )


def _coupling_certificate(model, theorem, alpha_key) -> ContractionCertificate:
    """Certificate from the one witness, the same in both norms, whose Metzler
    majorant dominates every Jacobian majorant: one rate in the weighted l1 and
    linf norms at its left and right dominant eigenvectors (resolvent
    weights if it is reducible), never exact."""
    mats = model.witnesses(L1)
    right, left, alpha, shift = _perron_weights(_majorant(mats[0]))
    osl = max(_witness_osl(mats, L1, left), _witness_osl(mats, LINF, right))
    return _certificate(
        osl, L1, left, theorem, False,
        alt_family=LINF, alt_weights=right,
        delta=shift, **{alpha_key: alpha},
    )


def _shifted(A, h, x) -> np.ndarray:
    """h A plus x I, the identity added only where x is nonzero: so the map
    at h = 1 and x = 0 takes A itself."""
    M = h * A
    if x:
        M += x * np.eye(len(A))
    return M


class _Model:
    """Behaviour shared by every network model.

    A subclass sets the class attribute `tag` and defines
    `euler_map(act, h, k, x)` (the map x X + h F(X) of (n, k) stacks, F being
    the model's vector field: the forward-Euler step at x = 1, F itself at
    h = 1 and x = 0, with no 0 I or 0 X term added; built once per run: a
    pair (step, summands).
    `step(X, out)` writes the map of the C-ordered stack X into `out`, a
    C-ordered (n, k) array other than X, in the order its docstring gives,
    from matrices with h folded in and (n, 1) columns repeated to (n, k)
    once, through scratch buffers allocated with it and no other temporary.
    `summands(S)` returns, for an (m, n, k) stack S, the magnitudes of the
    terms that step adds into each entry of its result, entry by entry, from
    which verification estimates the rounding of the step),
    `jacobians(act, X)` (the Jacobians at the columns of an (n, k) stack X as
    one C-contiguous (k, n, n) stack, each slice bit-identical to the
    Jacobian at its state alone; so pre-activations such as A x + u are taken
    by the batched product np.matmul(A, X.T[:, :, None]), which keeps each
    column's bits of A @ x where A @ X can differ from them in the last bits),
    `diagonal_floor()` (the least Jacobian diagonal over the
    slope box, -inf where it is unbounded below) and `witnesses(family)`:
    matrices whose largest `family` log norm at any weights is the
    fixed-weight bound there (`exact` if minimal; MultiLure's is its exact
    linf solver instead) and every certificate's `osl`.  A model whose
    Jacobian is a diagonal plus the off-diagonal part of A, scaled by the
    activation slopes on one `side` or not at all (`side` None), also defines
    `_slope_form(act, X)`, from which the sampled log norm whose sums run
    along the scaled lines takes O(n) work per state.  Models whose
    analysis fixes its own norm define `_certify()`, which `certificate`
    calls; the others (the leaky models and Lure) override `certificate` to
    call `optimal_certificate`, which takes `_closed_form` where it applies,
    reporting its level under `_closed_form_key`, and the optimizer only
    where it does not.
    """

    exact = True

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def jacobian(self, act, x) -> np.ndarray:
        """The Jacobian at the single state x."""
        return self.jacobians(act, np.asarray(x, dtype=float)[:, None])[0]

    # `_slope_form(act, X)`, where a model defines it, gives the Jacobians at
    # the columns of the (n, k) stack X as (s, d): the slopes s and the
    # Jacobian diagonals d as (n, k) stacks, column j for state j.  Off the
    # diagonal, the Jacobian at state j is A's entries scaled by that state's
    # slopes on the model's `side`: column l by s[l, j] (RIGHT), row i by
    # s[i, j] (LEFT), or not at all (None).  Each d is the diagonal that
    # `jacobians` computes, bit for bit.
    _slope_form = None

    @property
    def kind(self) -> str:
        return self.tag.replace("_", "-")

    def _require_bounded(self):
        if not self.slopes.bounded:
            raise ValueError(f"{type(self).__name__} requires a finite upper slope bound")

    def fixed_weight_osl(self, family: str, weights=None) -> tuple[float, bool]:
        return _witness_osl(self.witnesses(family), family, weights), self.exact

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        cert = self._certify()
        if family is not None and family not in (cert.family, cert.alt_family):
            raise ValueError(
                f"{type(self).__name__} certificates fix their norm family "
                f"({cert.family}{' and ' + cert.alt_family if cert.alt_family else ''})"
            )
        return cert

    def optimal_certificate(self, family: str) -> ContractionCertificate:
        """Certificate at the weights minimizing the largest witness log norm:
        the closed-form ones where `_closed_form` gives them, else the
        optimizer's.  Only one of the two runs."""
        closed = self._closed_form(family)
        if closed is not None:
            metzler, level = closed
            return _perron_certificate(self, metzler, family, f"{self.kind}/{family}/perron",
                                       self._closed_form_key, level)
        mats = self.witnesses(family)
        res = bisect_min_mu(mats, family)
        return _certificate(
            _witness_osl(mats, family, res.eta_star), family, res.eta_star,
            f"{self.kind}/{family}/weight-lp", self.exact, b_star=res.b_star,
        )

    def _closed_form(self, family):
        """(Metzler matrix, rule from its abscissa to the optimal level) where
        the optimal weight is that matrix's dominant eigenvector; else None."""
        return None

    # The details key under which a closed-form certificate reports its level.
    _closed_form_key = "closed_form"


@dataclass(frozen=True, eq=False)
class _Leaky(_Model):
    """Leaky network  dx/dt = -C x + ...  with diagonal C >= 0, coupling A and
    input u (zero when omitted); the base of Hopfield, FiringRate and
    Persidskii (C = 0, u = 0).

    A subclass sets `side`, the side of the slope polytope that its Jacobian
    sweeps, and `family`, its default norm and the one in which its optimal
    weight has a dominant-eigenvector closed form.  It defines
    `_input_max(S)`, the largest activation input of each coordinate over an
    (m, n, k) stack of states; at the slopes there, `diagonal_floor(cap)` is
    the floor that verification checks its Euler steps against.  Unbounded
    slopes are certified by :func:`certify_unbounded_slope` only.

    The maps scale rows by the diagonal of C, which for finite states is
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
    def exact(self) -> bool:
        """Whether the fixed-weight bound is the minimal one-sided Lipschitz
        constant: the Jacobian sweeps a right-side polytope in full, and a
        left-side one (slopes taken at A x + u) iff A is invertible."""
        return self.side == RIGHT or int(np.linalg.matrix_rank(self.A)) == self.n

    def witnesses(self, family: str) -> list[np.ndarray]:
        """The envelope pair of the slope polytope the Jacobian sweeps."""
        if not self.slopes.bounded:
            raise ValueError(
                "fixed-weight and optimized bounds need a finite upper slope bound d2"
            )
        return list(_envelope(self.A, -np.diag(self.C), self.slopes, self.side, family))

    def diagonal_floor(self, cap=None) -> np.ndarray:
        """The least Jacobian diagonal -c_i + s a_ii over the slope box, or,
        given `cap`, over slopes s in [d1, cap_i] for each coordinate i;
        0 * inf counts as 0, as in `SlopeInterval.least_product`."""
        a = np.diag(self.A)
        top = self.slopes.d2 if cap is None else cap
        return -np.diag(self.C) + np.where(a < 0.0, top, self.slopes.d1) * a

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        fam = self.family if family is None else family
        if self.slopes.bounded:
            return self.optimal_certificate(fam)
        if fam != self.family:
            raise ValueError(
                f"unbounded-slope certificates for {self.tag} are {self.family}-only"
            )
        return self._unbounded_certificate()

    def _closed_form(self, family):
        """In the model's norm with bounded slopes: -C + d2 maj(A) at level
        max(alpha(-C), a) for d1 = 0 and positive leak, else maj(A) at level
        -c + max(d1 a, d2 a) for scalar leak c I and d1 >= 0 (a: abscissa)."""
        if family != self.family or not self.slopes.bounded:
            return None
        d1, d2 = self.slopes.d1, self.slopes.d2
        cdiag = np.diag(self.C)
        if d1 == 0.0 and d2 > 0.0 and np.all(cdiag > 0.0):
            floor = float(np.max(-cdiag))
            return -self.C + d2 * _majorant(self.A), lambda a: max(floor, a)
        if d1 >= 0.0 and np.all(cdiag == cdiag[0]):
            return _majorant(self.A), lambda a: -float(cdiag[0]) + max(d1 * a, d2 * a)
        return None

    def _unbounded_certificate(self) -> ContractionCertificate:
        family, d1 = self.family, self.slopes.d1
        Mzr = _majorant(self.A)
        right, left, a_m, shift = _perron_weights(Mzr, family)
        a_mc = float(np.max(-np.diag(self.C)))
        min_diag = float(np.min(np.diag(self.A)))

        weights = left if family == L1 else right
        theorem = f"{self.kind}/{family}/unbounded-slope"

        # The bound holds with the majorant's log norm at the carried weights.
        # It equals a_m only for an irreducible majorant; at a reducible one's
        # resolvent weights it lies between a_m and a_m + shift.
        m_w = _witness_osl([Mzr], family, weights)
        majorant_hurwitz = m_w < -CONTRACTION_MARGIN
        rate = -(a_mc + max(d1, 0.0) * m_w - (abs(d1) - d1) * min_diag)
        statement_rate = -a_mc + max(d1, 0.0) * a_m + (abs(d1) - d1) * min_diag
        details = {
            "statement_rate": statement_rate,
            "mh_sufficient": d1 >= 0.0,
            "alpha_majorant": a_m,
            "delta": shift,
        }
        if not majorant_hurwitz:
            details["violated"] = "majorant-not-hurwitz"
            return _certificate(np.inf, family, None, theorem, False, **details)
        if rate <= CONTRACTION_MARGIN:
            details["violated"] = "decay-bound-not-positive"
            return _certificate(np.inf, family, None, theorem, False, **details)
        return _certificate(-rate, family, weights, theorem, shift == 0.0, **details)


class Hopfield(_Leaky):
    """Membrane-potential model  dx/dt = -C x + A act(x) + u  with diagonal
    C >= 0 and each activation coordinate slope-restricted to `slopes`.
    Certified in the weighted l1 norm by default."""

    tag = "hopfield"
    side = RIGHT
    family = L1

    def euler_map(self, act, h, k, x):
        """The map (hA) act(X) + (x - hc) X + hu; a leak column of ones adds X
        itself, and one of zeros, like a zero u, is left out."""
        c, u = np.diag(self.C)[:, None], self.u[:, None]
        hA, leak, hu = h * self.A, x - h * c, h * u
        L, U = np.repeat(leak, k, axis=1), np.repeat(hu, k, axis=1)
        ones, leaky, driven = bool(np.all(leak == 1.0)), bool(leak.any()), bool(u.any())
        Sg, T = np.empty((self.n, k)), np.empty((self.n, k))

        def step(X, out):
            np.matmul(hA, act(X, out=Sg), out=out)
            if ones:
                out += X
            elif leaky:
                out += np.multiply(L, X, out=T)
            if driven:
                out += U

        def summands(S):
            M = np.matmul(np.abs(hA), np.abs(act(S)))
            M += np.abs(leak) * np.abs(S)
            M += np.abs(hu)
            return M

        return step, summands

    def jacobians(self, act, X) -> np.ndarray:
        return -self.C + self.A * _slope_rows(act, X)

    def _slope_form(self, act, X):
        s = act.deriv(X)
        return s, -np.diag(self.C)[:, None] + np.diag(self.A)[:, None] * s

    def _input_max(self, S) -> np.ndarray:
        """The largest activation input of each coordinate over the states of
        an (m, n, k) stack: the states themselves."""
        return S.max(axis=0).max(axis=1)


class FiringRate(_Leaky):
    """Firing-rate model  dx/dt = -C x + act(A x + u)  with diagonal C >= 0.
    Certified in the weighted linf norm by default."""

    tag = "firing_rate"
    side = LEFT
    family = LINF

    def euler_map(self, act, h, k, x):
        """The map (x - hc) X + h act(AX + u)."""
        c, u = np.diag(self.C)[:, None], self.u[:, None]
        A, leak = self.A, x - h * c
        L, U = np.repeat(leak, k, axis=1), np.repeat(u, k, axis=1)
        P, Q = np.empty((self.n, k)), np.empty((self.n, k))

        def step(X, out):
            np.matmul(A, X, out=P)
            np.add(P, U, out=P)
            np.multiply(act(P, out=Q), h, out=Q)
            np.add(np.multiply(L, X, out=out), Q, out=out)

        def summands(S):
            M = np.abs(act(np.matmul(A, S) + u))
            M *= h
            M += np.abs(leak) * np.abs(S)
            return M

        return step, summands

    def _preactivation_slopes(self, act, X) -> np.ndarray:
        """The slopes at A x + u for the columns x of X, as a (k, n) stack.
        One batched product takes A x column by column, as A @ x would."""
        return act.deriv(np.matmul(self.A, X.T[:, :, None])[:, :, 0] + self.u)

    def jacobians(self, act, X) -> np.ndarray:
        return -self.C + self._preactivation_slopes(act, X)[:, :, None] * self.A

    def _slope_form(self, act, X):
        s = self._preactivation_slopes(act, X).T
        return s, -np.diag(self.C)[:, None] + s * np.diag(self.A)[:, None]

    def _input_max(self, S) -> np.ndarray:
        """The largest activation input of each coordinate over the states of
        an (m, n, k) stack: the pre-activations A x + u, by one batched
        product.  Rounding is monotone, so adding u after the max gives the
        max of A x + u."""
        return np.matmul(self.A, S).max(axis=0).max(axis=1) + self.u


@dataclass(frozen=True, eq=False)
class Persidskii(_Leaky):
    """Activation-only model  dx/dt = A act(x)  with strictly positive lower
    slope bound: the leaky model with C = 0 and u = 0.  The constructor takes
    A and the slopes only; C and u hold those zeros, and model files carry
    neither.

    Contracting iff the Metzler majorant of A is Hurwitz, with rate
    d1 * |alpha(majorant)| in the weighted l1 norm at the majorant's left
    dominant eigenvector: Hopfield's scalar-leak closed form at leak 0, whose
    abscissa the certificate reports as `alpha_majorant`.  In the weighted
    linf norm the optimizer finds its weights, as for Hopfield."""

    tag = "persidskii"
    side = RIGHT
    family = L1
    _closed_form_key = "alpha_majorant"

    C: np.ndarray = field(init=False)
    u: np.ndarray = field(init=False)

    # Hopfield's at C = 0 and u = 0.
    euler_map = Hopfield.euler_map
    jacobians = Hopfield.jacobians
    _slope_form = Hopfield._slope_form

    def __post_init__(self):
        A = as_matrix(self.A)
        self._require_bounded()
        if self.slopes.d1 <= 0:
            raise ValueError(f"{type(self).__name__} model requires d1 > 0")
        object.__setattr__(self, "A", A)
        # A read-only zero matrix that holds no n x n buffer.
        object.__setattr__(self, "C", np.broadcast_to(0.0, A.shape))
        object.__setattr__(self, "u", np.zeros(A.shape[0]))

    def _closed_form(self, family):
        """The majorant of A, whose abscissa is the reported level, in l1."""
        return (_majorant(self.A), lambda a: a) if family == L1 else None


@dataclass(frozen=True, eq=False)
class AxMinusCPhi(_Model):
    """Model  dx/dt = A x - C act(x)  with diagonal C >= 0.

    Contracting iff A - d1 C has a Hurwitz Metzler majorant, with rate
    -alpha(majorant(A) - d1 C) in the weighted l1 norm at that matrix's left
    dominant eigenvector."""

    tag = "ax_minus_cphi"
    side = None

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

    def euler_map(self, act, h, k, x):
        """The map (xI + hA) X - (hc) act(X)."""
        M, hc = _shifted(self.A, h, x), h * np.diag(self.C)[:, None]
        HC, Sg = np.repeat(hc, k, axis=1), np.empty((self.n, k))

        def step(X, out):
            np.matmul(M, X, out=out)
            out -= np.multiply(act(X, out=Sg), HC, out=Sg)

        def summands(S):
            T = np.matmul(np.abs(M), np.abs(S))
            T += np.abs(hc) * np.abs(act(S))
            return T

        return step, summands

    def jacobians(self, act, X) -> np.ndarray:
        return self.A - self.C * _slope_rows(act, X)

    def _slope_form(self, act, X):
        s = act.deriv(X)
        return s, np.diag(self.A)[:, None] - np.diag(self.C)[:, None] * s

    def diagonal_floor(self) -> np.ndarray:
        return np.diag(self.A) - np.diag(self.C) * self.slopes.d2

    def witnesses(self, family: str) -> list[np.ndarray]:
        return [self.A - self.slopes.d1 * self.C]

    def _certify(self) -> ContractionCertificate:
        return _perron_certificate(
            self, _majorant(self.A) - self.slopes.d1 * self.C, L1,
            "ax-minus-cphi/l1/perron", "alpha_shifted_majorant",
        )


class Entrywise(Persidskii):
    """Entrywise-coupled model  dx_i/dt = sum_j A_ij act_ij(x_j)  where every
    scalar activation shares the slope interval (d1 > 0).  Simulation uses
    one activation for every entry, which makes it a Persidskii model; only
    its certificate differs.

    Contracting iff the envelope matrix is M-Hurwitz; the rate holds
    simultaneously in the weighted l1 and linf norms at the envelope
    majorant's dominant left and right eigenvectors.  The bound is an
    entrywise-domination upper bound, never claimed exact."""

    tag = "entrywise"
    exact = False
    certificate = _Model.certificate

    def envelope(self) -> np.ndarray:
        """The matrix d2 A - (d2 - d1)(I o A) whose Metzler majorant dominates
        every Jacobian majorant of the model."""
        d1, d2 = self.slopes.d1, self.slopes.d2
        return d2 * self.A - (d2 - d1) * np.diag(np.diag(self.A))

    def witnesses(self, family: str) -> list[np.ndarray]:
        return [self.envelope()]

    def _certify(self) -> ContractionCertificate:
        return _coupling_certificate(self, "entrywise/coupling-bound", "alpha_envelope")


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

    def euler_map(self, act, h, k, x):
        """The map (xI + hA) X + (hb) act(c^T X)."""
        M, hb, c = _shifted(self.A, h, x), h * self.b[:, None], self.c
        HB, p, s, T = np.repeat(hb, k, axis=1), np.empty(k), np.empty(k), np.empty((self.n, k))

        def step(X, out):
            np.matmul(M, X, out=out)
            # Each row of T holds act(c^T X); a broadcast product would take
            # numpy's buffered loop, which allocates.
            np.copyto(T, act(np.matmul(c, X, out=p), out=s))
            out += np.multiply(T, HB, out=T)

        def summands(S):
            T = np.matmul(np.abs(M), np.abs(S))
            T += np.abs(hb) * np.abs(act(np.matmul(c, S)))[..., None, :]
            return T

        return step, summands

    def jacobians(self, act, X) -> np.ndarray:
        s = act.deriv(np.matmul(self.c[None, :], X.T[:, :, None])[:, 0, 0])
        return self.A + s[:, None, None] * np.outer(self.b, self.c)

    def diagonal_floor(self) -> np.ndarray:
        return np.diag(self.A) + self.slopes.least_product(self.b * self.c)

    def witnesses(self, family: str) -> list[np.ndarray]:
        """The loop matrices at the two slope endpoints."""
        rank_one = np.outer(self.b, self.c)
        return [self.A + d * rank_one for d in (self.slopes.d1, self.slopes.d2)]

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        return self.optimal_certificate(L1 if family is None else family)


@dataclass(frozen=True, eq=False)
class MultiLure(_Model):
    """Multivariable feedback loop  dx/dt = A x + B act(C x)  with
    B in R^(n x m) and C in R^(m x n).

    Certified via the coupling bound matrix: contracting iff that matrix is
    M-Hurwitz, with the rate holding in both the weighted l1 and linf norms
    at its dominant eigenvectors.  Fixed-weight bounds are linf-only, by
    enumeration of the 2^m slope vertices (:func:`osl_multilure_linf`)."""

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

    def euler_map(self, act, h, k, x):
        """The map (xI + hA) X + (hB) act(CX)."""
        M, hB, C = _shifted(self.A, h, x), h * self.B, self.C
        P, Q, T = np.empty((self.m, k)), np.empty((self.m, k)), np.empty((self.n, k))

        def step(X, out):
            np.matmul(M, X, out=out)
            out += np.matmul(hB, act(np.matmul(C, X, out=P), out=Q), out=T)

        def summands(S):
            T = np.matmul(np.abs(M), np.abs(S))
            T += np.matmul(np.abs(hB), np.abs(act(np.matmul(C, S))))
            return T

        return step, summands

    def jacobians(self, act, X) -> np.ndarray:
        P = np.matmul(self.C, X.T[:, :, None])[:, :, 0]
        return self.A + self.B @ (act.deriv(P)[:, :, None] * self.C)

    def diagonal_floor(self) -> np.ndarray:
        return np.diag(self.A) + self.slopes.least_product(self.B * self.C.T).sum(axis=1)

    def witnesses(self, family: str) -> list[np.ndarray]:
        """The coupling bound matrix, the certificate's witness in both norms."""
        return [multilure_coupling_bound(self)]

    def fixed_weight_osl(self, family: str, weights=None) -> tuple[float, bool]:
        if family != LINF:
            raise ValueError("multivariable loop bounds are linf-only")
        return osl_multilure_linf(self, weights)

    def _certify(self) -> ContractionCertificate:
        return _coupling_certificate(self, "multilure/coupling-bound", "alpha_coupling")


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

    When the leak matrix is scalar with d1 >= 0, or d1 = 0 with strictly
    positive leak, the optimal weight is a dominant eigenvector in closed form
    (``.../perron``, ``details.closed_form``) and no optimizer runs; elsewhere
    :func:`mucert.optimize.bisect_min_mu` finds it over the two envelope
    matrices of the Jacobian polytope (``.../weight-lp``, ``details.b_star``).
    A reducible majorant takes its resolvent weights at the shift
    ``details.delta`` above its abscissa, and the certificate is marked
    non-tight.
    """
    if not isinstance(model, (Hopfield, FiringRate)):
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


def certify_hopfield_mh(C, A, d2: float) -> ContractionCertificate:
    """Certificate for the Hopfield model with d1 = 0 and strictly positive
    diagonal leak: contracting iff -C + d2 A has a Hurwitz Metzler majorant,
    with rate -max(alpha(-C), alpha(-C + d2 majorant(A)))."""
    d2 = float(d2)
    if not (np.isfinite(d2) and d2 >= 0.0):
        raise ValueError("d2 must be finite and nonnegative")
    model = Hopfield(C, A, SlopeInterval(0.0, d2))
    if np.any(np.diag(model.C) <= 0.0):
        raise ValueError("leak matrix must have strictly positive diagonal")
    return _perron_certificate(
        model, -model.C + d2 * _majorant(model.A), L1,
        "hopfield-mh/l1/perron", "alpha_shifted_majorant",
    )


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
    # One loop gain B[:, k] C[k] at a time, in k order from the first term:
    # the sums of the middle-axis sum over the (n, m, n) tensor of all m
    # gains, without the tensor.  With m = 0 both sums are zero.
    pos = neg = np.zeros((model.n, model.n))
    for k in range(model.m):
        T = np.outer(model.B[:, k], model.C[k])
        if k == 0:
            pos, neg = np.maximum(T, 0.0), np.minimum(T, 0.0)
        else:
            pos += np.maximum(T, 0.0)
            neg += np.minimum(T, 0.0)
    hi = d2 * pos + d1 * neg
    lo = d1 * pos + d2 * neg
    F = np.abs(model.A) + np.maximum(hi, -lo)
    np.fill_diagonal(F, np.diag(model.A) + np.diag(hi))
    return F


def osl_multilure_linf(model: MultiLure, weights=None) -> tuple[float, bool]:
    """Exact maximum over the slope box of the weighted linf log norm of
    A + B diag(d) C.  The log norm is convex in d, so the maximum sits at a
    vertex; the 2^m vertex matrices A + sum_k d_k B[:, k] C[k] are formed one
    block (one matrix product) at a time and read by the stacked linf kernel.

    The value equals the model's minimal one-sided Lipschitz constant iff C is
    full-rank with m >= n (second return value); otherwise it is an upper
    bound.  Guarded at m <= 20 and 2^m * n^2 <= 2^20 * 20^2.
    """
    n, m = model.n, model.m
    w = _weights_or_ones(weights, n)
    A = model.A
    T = (model.B.T[:, :, None] * model.C[:, None, :]).reshape(m, n * n)  # outer(B[:, k], C[k])
    value = _vertex_max(lambda D: A + (D @ T).reshape(-1, n, n), m, model.slopes, LINF, w)
    tight = m >= n and int(np.linalg.matrix_rank(model.C)) == n
    return value, tight


def fixed_weight_osl(model, family: str, weights=None) -> tuple[float, bool]:
    """One-sided Lipschitz bound of any supported model at a fixed weight: the
    largest log norm of its witnesses there.

    Returns (value, exact flag).  Exact wherever the slope polytope is fully
    swept by the Jacobian; entrywise models only admit a domination bound.
    Multivariable-loop bounds are linf-only and come from
    :func:`osl_multilure_linf`, by slope-vertex enumeration.
    """
    return check_model(model).fixed_weight_osl(family, weights)


def certify(model, family: str | None = None) -> ContractionCertificate:
    """The model's contraction certificate.

    `family` selects the norm for Hopfield (default l1), firing-rate (default
    linf), Persidskii (default l1) and scalar-loop (default l1) models; the
    remaining analyses fix their own norms.  Unbounded slopes route Hopfield /
    firing-rate models to the unbounded-slope certificate.
    """
    return check_model(model).certificate(family)


# Per-model names of `certify`.
certify_persidskii = certify_ax_minus_cphi = certify_entrywise = certify_multilure = certify
