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
which is Hopfield with C = 0 and u = 0.  They and AxMinusCPhi state their
Jacobian once, and `_SlopeScaled` derives their Jacobians, slope form and
diagonal floor from it.
Entrywise is a Persidskii model with its own witnesses, the envelope pair of
its per-entry slope box, and its own certificate.  Lure
steps MultiLure's map at m = 1 and takes its floor.  The
module-level functions (`certify`, `fixed_weight_osl`, ...) delegate to these
methods; `certify_persidskii`, `certify_lure` and the other per-model
certify names are aliases of `certify`.  `MODELS` maps each tag to its class.

Every certificate reports the one-sided Lipschitz bound actually certified at
the weight vector it carries (`osl`), the fixed-weight bound there, so the
guarantee ``||x(t) - y(t)|| <= exp(-rate * t) ||x(0) - y(0)||`` in the carried
weighted norm is checkable by evaluation.  `_certificate` declares a model
contracting only when that bound clears a strict margin below zero.
Every Perron-route certificate takes its weights from
`spectral._perron_weights`: the dominant eigenvector of its Metzler matrix,
or the `spectral._resolvent_weights` of a reducible one.

Weight conventions follow :mod:`mucert.lognorm`: an ``l1`` certificate with
weights w refers to the norm sum_i w_i |x_i|; an ``linf`` certificate refers
to max_i |x_i| / w_i.
"""

from dataclasses import dataclass, field

import numpy as np

from .matrices import (
    _checked_square,
    _float_or_nan,
    _floats,
    _invertible,
    _majorant,
    _weights_or_ones,
    as_matrix,
    as_vector,
    check_diagonal,
)
from .lognorm import (
    L1,
    LEFT,
    LINF,
    RIGHT,
    SlopeInterval,
    _SPLIT_KERNELS,
    _check_slopes,
    _envelope,
    _mu1_split,
    _muinf_split,
    _offdiag_abs,
    _vertex_max,
    kernels,
)
from .optimize import bisect_min_mu
from .spectral import _perron_weights

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


def _split(M) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal magnitudes) of a witness M built C-ordered
    from the model's validated matrices, the magnitudes written over M
    itself.  Only finiteness is checked, on the diagonal and the largest
    magnitude: a witness that overflowed when it was built raises
    ValueError, as :func:`mucert.lognorm.log_norm` would."""
    d = np.diagonal(M).copy()
    off = _offdiag_abs(M, out=M)
    if not (np.isfinite(d).all() and np.isfinite(off.max())):
        raise ValueError("matrix entries must be finite")
    return d, off


def _witness_osl(mats, family, weights) -> float:
    """The largest weighted log norm of the witness matrices `mats`: every
    fixed-weight bound and every certificate's `osl` is this number.

    The weights are validated once.  The witnesses are built for this one
    call: on l1 and linf, each is split by `_split` and so overwritten with
    its off-diagonal magnitudes, and the log norm takes no n x n temporary.
    """
    mu = kernels(family)[0]
    w = _weights_or_ones(weights, mats[0].shape[0])
    split = _SPLIT_KERNELS.get(family)
    if split is None:  # l2 reads the signs
        return max(float(mu(_checked_square(M), w)) for M in mats)
    return max(float(split(*_split(M), w)) for M in mats)


def _perron_certificate(model, family, theorem, metzler, key,
                        level=lambda alpha: alpha) -> ContractionCertificate:
    """Certificate in the weighted `family` norm at the dominant eigenvector
    of the Metzler matrix that `metzler()` builds, left for l1 and right for
    linf, or at its resolvent weights if that matrix is reducible (see
    `spectral._perron_weights`).  Only that vector is computed, and
    `details[key]` is `level` of the abscissa of the matrix.  The matrix and
    the witnesses come from the model's validated matrices and are not
    validated again.
    `details.delta` > 0 marks a reducible matrix and holds the resolvent
    shift; the bound is then not tight.

    The matrix lives only while its weights are taken, and `_witness_osl`
    writes each witness's magnitudes over the witness: so at most the
    matrix and the prescaled copy that `spectral._perron` steps on
    (`spectral._prescale`), or the witnesses, are live n x n arrays at
    once.  The abscissa is the Rayleigh quotient on the matrix itself, with
    no shift taken off."""
    right, left, alpha, shift = _perron_weights(metzler(), family)
    weights = left if family == L1 else right
    return _certificate(
        _witness_osl(model.witnesses(family), family, weights), family, weights, theorem,
        model.exact and shift == 0.0, **{key: level(alpha)}, delta=shift,
    )


def _coupling_certificate(W, theorem, alpha_key) -> ContractionCertificate:
    """Certificate from a model's coupling matrix W (MultiLure's one coupling
    bound, the entrywise maximum of Entrywise's envelope pair), the same in
    both norms, whose Metzler majorant dominates every Jacobian majorant: one
    rate in the weighted l1 and linf norms at its left and right dominant
    eigenvectors (resolvent weights if it is reducible), never exact.

    W is the one n x n array: it is turned into its majorant in place for
    the Perron weights, then into its off-diagonal magnitudes, by zeroing
    that diagonal, for both log norms."""
    d = np.diagonal(W).copy()
    np.fill_diagonal(np.abs(W, out=W), d)
    right, left, alpha, shift = _perron_weights(W)
    np.fill_diagonal(W, 0.0)
    osl = max(float(_mu1_split(d, W, left)), float(_muinf_split(d, W, right)))
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


def _less_diagonal(M, v) -> np.ndarray:
    """M - diag(v), written over M: v is subtracted from the diagonal only,
    since off it the full product subtracts zeros.  Each diagonal entry is
    the same IEEE expression; each off-diagonal entry is left as it was,
    where subtracting a signed zero (d C for d < 0 has -0.0 entries) can
    turn -0.0 into +0.0."""
    diag = np.einsum("ii->i", M)  # a writable view
    diag -= v
    return M


def _fixed_norms(model, family, *families):
    """Refuse, before any work, a `family` other than the norms that the
    model's analysis fixes."""
    if family is not None and family not in families:
        raise ValueError(f"{type(model).__name__} certificates fix their norm family "
                         f"({' and '.join(families)})")


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
    linf solver instead) and every certificate's `osl`.  The slope-scaled
    models (`_SlopeScaled`) state their Jacobian once and take `jacobians`,
    `diagonal_floor` and the `_slope_form` of the sampled log norm from it;
    Lure takes MultiLure's map and floor.  `certificate(family)` is the one
    certify hook: here it takes `_closed_form(family)` where that gives a
    Metzler matrix and the details key of its level, and the optimizer only
    where it does not, in the class's default norm `family` when none is
    given.  The analyses that fix their norms (AxMinusCPhi, Entrywise,
    MultiLure) override it and refuse any other family through
    `_fixed_norms` before any work.
    """

    exact = True
    family = L1  # the default norm
    _slope_form = None  # dense Jacobians only; see `_SlopeScaled`

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def jacobian(self, act, x) -> np.ndarray:
        """The Jacobian at the single state x, a vector of n numbers, read
        without a copy: a copy in another layout could change its bits."""
        x = _floats(x, "vector", copy=False)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got shape {x.shape}")
        return self.jacobians(act, x[:, None])[0]

    @property
    def kind(self) -> str:
        return self.tag.replace("_", "-")

    def _require_bounded(self):
        """Raise TypeError unless the slopes are a SlopeInterval, and
        ValueError unless it is bounded."""
        if not _check_slopes(self.slopes).bounded:
            raise ValueError(f"{type(self).__name__} requires a finite upper slope bound")

    def fixed_weight_osl(self, family: str, weights=None) -> tuple[float, bool]:
        return _witness_osl(self.witnesses(family), family, weights), self.exact

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        """Certificate in the `family` norm (the model's `family` by default)
        at the weights minimizing the largest witness log norm: the
        closed-form ones where `_closed_form` gives them, else the
        optimizer's.  Only one of the two runs."""
        family = self.family if family is None else family
        closed = self._closed_form(family)
        if closed is not None:
            return _perron_certificate(self, family, f"{self.kind}/{family}/perron", *closed)
        mats = self.witnesses(family)
        res = bisect_min_mu(mats, family)
        return _certificate(
            _witness_osl(mats, family, res.eta_star), family, res.eta_star,
            f"{self.kind}/{family}/weight-lp", self.exact, b_star=res.b_star,
        )

    def _closed_form(self, family):
        """(builder of a Metzler matrix, the details key of the level, rule
        from the matrix's abscissa to the optimal level) where the optimal
        weight is that matrix's dominant eigenvector; else None.  The
        builder is called once, by `_perron_certificate`."""
        return None


class _SlopeScaled(_Model):
    """A model whose Jacobian at a state is A - C, C diagonal, with the
    activation slopes s there scaling one of the two: A's columns (`side`
    RIGHT, A diag(s)), its rows (LEFT, diag(s) A) or C (None, C diag(s),
    so the off-diagonal part of A is not scaled at all).  That one
    statement and the slopes of `_preactivation_slopes` give the Jacobians,
    their diagonal floor and their slope form: the base of the leaky models
    and of AxMinusCPhi.

    `_slope_form(act, X)` gives the Jacobians at the columns of an (n, k)
    stack X as (s, d), the slopes and the Jacobian diagonals as (n, k)
    stacks, column j for state j, each d the diagonal that `jacobians`
    computes, bit for bit: the sampled log norm whose sums run along the
    scaled lines takes O(n) work per state from it.  No method takes an
    n x n temporary beyond the Jacobians themselves.  Each Jacobian is
    computed as A diag(s) - C (or diag(s) A - C), which is -C + A diag(s)
    bit for bit: x - c is x + (-c).
    """

    def _preactivation_slopes(self, act, X) -> np.ndarray:
        """The slopes at the activation inputs of the columns of X, as a
        (k, n) stack: here the states themselves."""
        return act.deriv(X).T

    def jacobians(self, act, X) -> np.ndarray:
        # C-contiguous slopes: a strided stack would give a strided Jacobian
        # stack, which sends the log-norm kernels' batched products off BLAS
        # and changes their last bits.
        s = np.ascontiguousarray(self._preactivation_slopes(act, X))
        if self.side is None:
            J = self.C * s[:, None, :]
            return np.subtract(self.A, J, out=J)
        J = self.A * (s[:, :, None] if self.side == LEFT else s[:, None, :])
        J -= self.C
        return J

    def _slope_form(self, act, X):
        s = self._preactivation_slopes(act, X).T
        a, c = np.diag(self.A)[:, None], np.diag(self.C)[:, None]
        if self.side is None:
            d = c * s
            return s, np.subtract(a, d, out=d)
        d = a * s
        d -= c
        return s, d

    def diagonal_floor(self, cap=None) -> np.ndarray:
        """The least Jacobian diagonal over the slope box, or, given `cap`,
        over slopes s in [d1, cap_i] for each coordinate i.  With the slopes
        on C it is a_ii - c_i s at the top slope, as C >= 0.  Otherwise it is
        s a_ii - c_i at the top where a_ii < 0 and at d1 elsewhere, so
        0 * inf counts as 0, as in `SlopeInterval.least_product`."""
        a, c = np.diag(self.A), np.diag(self.C)
        top = self.slopes.d2 if cap is None else cap
        if self.side is None:
            return a - c * top
        return np.where(a < 0.0, top, self.slopes.d1) * a - c


@dataclass(frozen=True, eq=False)
class _Leaky(_SlopeScaled):
    """Leaky network  dx/dt = -C x + ...  with diagonal C >= 0, coupling A and
    input u (zero when omitted); the base of Hopfield, FiringRate and
    Persidskii (C = 0, u = 0).

    A subclass sets `side`, the side of A that the slopes scale and so of
    the slope polytope that its Jacobian sweeps (RIGHT or LEFT; see
    `_SlopeScaled`), and `family`, its default norm and the one in which its
    optimal weight has a dominant-eigenvector closed form.  It defines
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
        _check_slopes(self.slopes)
        u = np.zeros(A.shape[0]) if self.u is None else as_vector(self.u, A.shape[0])
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u", u)

    @property
    def exact(self) -> bool:
        """Whether the fixed-weight bound is the minimal one-sided Lipschitz
        constant: the Jacobian sweeps a right-side polytope in full, and a
        left-side one (slopes taken at A x + u) iff A is invertible.  That is
        `matrices._invertible`: a Cholesky factorization of A^T A, scaled by
        a power of two and shifted down by 16 n eps times its largest entry,
        decides it when it succeeds, and `np.linalg.matrix_rank` (an SVD)
        when it does not, so the answer is matrix_rank's.  No LU test:
        numpy exposes no LU pivots, and slogdet gives only their product."""
        return self.side == RIGHT or _invertible(self.A)

    def witnesses(self, family: str) -> list[np.ndarray]:
        """The envelope pair of the slope polytope the Jacobian sweeps."""
        if not self.slopes.bounded:
            raise ValueError(
                "fixed-weight and optimized bounds need a finite upper slope bound d2"
            )
        return list(_envelope(self.A, -np.diag(self.C), self.slopes, self.side, family))

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        if self.slopes.bounded:
            return super().certificate(family)
        if family not in (None, self.family):
            raise ValueError(f"unbounded-slope certificates for {self.tag} are {self.family}-only")
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
            return lambda: self._leak_shifted_majorant(d2), "closed_form", lambda a: max(floor, a)
        if d1 >= 0.0 and np.all(cdiag == cdiag[0]):
            return (lambda: _majorant(self.A), "closed_form",
                    lambda a: -float(cdiag[0]) + max(d1 * a, d2 * a))
        return None

    def _leak_shifted_majorant(self, d2) -> np.ndarray:
        """-C + d2 maj(A), built in one n x n array, each entry the one that
        expression gives: off the diagonal -0.0 + x is x, and on it -c + x
        and x - c round alike."""
        M = _majorant(self.A)
        M *= d2
        return _less_diagonal(M, np.diag(self.C))

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

    C: np.ndarray = field(init=False)
    u: np.ndarray = field(init=False)

    euler_map = Hopfield.euler_map  # Hopfield's at C = 0 and u = 0

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
        if family == L1:
            return lambda: _majorant(self.A), "alpha_majorant", lambda a: a


@dataclass(frozen=True, eq=False)
class AxMinusCPhi(_SlopeScaled):
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

    def witnesses(self, family: str) -> list[np.ndarray]:
        """A - d1 C, in one n x n array."""
        return [_less_diagonal(self.A.copy(), self.slopes.d1 * np.diag(self.C))]

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        _fixed_norms(self, family, L1)
        return super().certificate()

    def _closed_form(self, family):
        """maj(A) - d1 C at its own abscissa, in one n x n array: maj(A) has
        no -0.0 to flip."""
        return (lambda: _less_diagonal(_majorant(self.A), self.slopes.d1 * np.diag(self.C)),
                "alpha_shifted_majorant", lambda a: a)


class Entrywise(Persidskii):
    """Entrywise-coupled model  dx_i/dt = sum_j A_ij act_ij(x_j)  where every
    scalar activation shares the slope interval (d1 > 0).  Simulation uses
    one activation for every entry, which makes it a Persidskii model: its
    Jacobians and slope form are Persidskii's, on side RIGHT; only its
    witnesses and certificate differ.

    Each entry has its own slope, so no line of A is scaled as a whole: the
    witnesses are `_envelope`'s pair of the per-entry box (side None), d2 A
    off the diagonal with d1 a_ii on it in one and d2 a_ii in the other, in
    l1 and linf alike; l2 is refused.  Contracting iff their entrywise
    maximum is M-Hurwitz; the rate holds simultaneously in the weighted l1
    and linf norms at its majorant's dominant left and right eigenvectors.
    The bound is an entrywise-domination upper bound, never claimed exact."""

    tag = "entrywise"
    exact = False

    def witnesses(self, family: str) -> list[np.ndarray]:
        """The envelope pair of the per-entry slope box (side None): d2 A off
        the diagonal, d1 a_ii and d2 a_ii on it; l2 is refused."""
        return list(_envelope(self.A, -np.diag(self.C), self.slopes, None, family))

    def _coupling(self) -> np.ndarray:
        """The entrywise maximum of the two witnesses, in one n x n array.
        They differ only on the diagonal, so it is dbar A with, on its
        diagonal, the larger of their two diagonals, each evaluated as
        `_envelope` evaluates it: the same bits as the n x n maximum."""
        d1, d2 = self.slopes.d1, self.slopes.d2
        dbar = max(abs(d1), abs(d2))
        W, a = dbar * self.A, np.diag(self.A)
        base = np.diag(W) - np.diag(self.C)
        np.fill_diagonal(W, np.maximum(base - (dbar - d1) * a, base - (dbar - d2) * a))
        return W

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        _fixed_norms(self, family, L1, LINF)
        return _coupling_certificate(self._coupling(), "entrywise/coupling-bound",
                                     "alpha_envelope")


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
        B = _floats(self.B, "matrix")
        C = _floats(self.C, "matrix")
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

    def certificate(self, family: str | None = None) -> ContractionCertificate:
        _fixed_norms(self, family, L1, LINF)
        return _coupling_certificate(multilure_coupling_bound(self), "multilure/coupling-bound",
                                     "alpha_coupling")


@dataclass(frozen=True, eq=False)
class Lure(_Model):
    """Scalar-feedback loop  dx/dt = A x + b act(c^T x): the multivariable
    loop at m = 1, whose map and diagonal floor it takes through the views
    B = b[:, None] and C = c[None, :].

    The closed-loop Jacobian is A + s b c^T with the scalar slope s in
    [d1, d2]; convexity of the log norm in s puts the worst case at an
    endpoint, so the weight optimization (l1 by default) runs over the two
    endpoint matrices."""

    tag = "lure"
    m = 1

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

    @property
    def B(self) -> np.ndarray:
        return self.b[:, None]

    @property
    def C(self) -> np.ndarray:
        return self.c[None, :]

    euler_map = MultiLure.euler_map
    diagonal_floor = MultiLure.diagonal_floor

    def jacobians(self, act, X) -> np.ndarray:
        # s (b c^T) rounds differently from MultiLure's B (s C); a test pins
        # this order bit for bit.
        s = act.deriv(np.matmul(self.C, X.T[:, :, None])[:, 0, 0])
        return self.A + s[:, None, None] * np.outer(self.b, self.c)

    def witnesses(self, family: str) -> list[np.ndarray]:
        """The loop matrices at the two slope endpoints."""
        rank_one = np.outer(self.b, self.c)
        return [self.A + d * rank_one for d in (self.slopes.d1, self.slopes.d2)]


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
    return _Model.certificate(model, family)


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
    with rate -max(alpha(-C), alpha(-C + d2 majorant(A))).  A d2 that is not
    a finite number of at least 0 (a bool or a string, say) is refused with
    ValueError before any work."""
    d2 = _float_or_nan(d2)
    if not (np.isfinite(d2) and d2 >= 0.0):
        raise ValueError("d2 must be finite and nonnegative")
    model = Hopfield(C, A, SlopeInterval(0.0, d2))
    if np.any(np.diag(model.C) <= 0.0):
        raise ValueError("leak matrix must have strictly positive diagonal")
    return _perron_certificate(model, L1, "hopfield-mh/l1/perron",
                               lambda: model._leak_shifted_majorant(d2), "alpha_shifted_majorant")


def multilure_coupling_bound(model: MultiLure) -> np.ndarray:
    """Metzler matrix dominating the Metzler majorant of every closed-loop
    Jacobian A + B diag(d) C with d in [d1, d2]^m (requires d1 >= 0).

    Diagonal entries add the best-signed slope extremes of the loop gains
    B_ik C_ki; off-diagonal entries take the larger of the two signed
    combinations, which majorizes |(B diag(d) C)_ij| over the slope box.

    The bound is built in four n x n arrays, each rewritten in place: pos
    and neg sum the gains' positive and negative parts, T holds each gain
    and S is scratch.  Then T becomes hi and pos becomes lo (neg scratch),
    T becomes max(hi, -lo), and S is returned as |A| plus that.  Every
    entry is the IEEE expression of the plain formula, in its order.
    """
    d1, d2 = model.slopes.d1, model.slopes.d2
    if d1 < 0.0:
        raise ValueError("coupling bound requires d1 >= 0")
    n = model.n
    pos, neg, T, S = np.zeros((n, n)), np.zeros((n, n)), np.empty((n, n)), np.empty((n, n))
    # One loop gain B[:, k] C[k] at a time, in k order from the first term:
    # the sums of the middle-axis sum over the (n, m, n) tensor of all m
    # gains, without the tensor.  With m = 0 both sums are zero.
    for k in range(model.m):
        np.outer(model.B[:, k], model.C[k], out=T)
        if k == 0:
            np.maximum(T, 0.0, out=pos)
            np.minimum(T, 0.0, out=neg)
        else:
            pos += np.maximum(T, 0.0, out=S)
            neg += np.minimum(T, 0.0, out=T)
    hi = np.multiply(pos, d2, out=T)
    hi += np.multiply(neg, d1, out=S)
    lo = np.multiply(pos, d1, out=pos)
    lo += np.multiply(neg, d2, out=neg)
    diag = np.diag(model.A) + np.diag(hi)
    F = np.abs(model.A, out=S)
    F += np.maximum(hi, np.negative(lo, out=lo), out=T)
    np.fill_diagonal(F, diag)
    return F


def osl_multilure_linf(model: MultiLure, weights=None) -> tuple[float, bool]:
    """Exact maximum over the slope box of the weighted linf log norm of
    A + B diag(d) C.  The log norm is convex in d, so the maximum sits at a
    vertex; the 2^m vertex matrices A + sum_k d_k B[:, k] C[k] are formed one
    block (one matrix product) at a time and read by the stacked linf kernel.

    The value is claimed equal to the model's minimal one-sided Lipschitz
    constant (second return value) only for a square invertible C (m = n,
    rank C = n), whose C x reaches every slope vertex; otherwise it is an
    upper bound.  For m > n, C x spans at most n of the m dimensions, so
    some vertices are never reached.  Guarded at m <= 20 and
    2^m * n^2 <= 2^20 * 20^2.
    """
    n, m = model.n, model.m
    w = _weights_or_ones(weights, n)
    A = model.A
    T = (model.B.T[:, :, None] * model.C[:, None, :]).reshape(m, n * n)  # outer(B[:, k], C[k])
    value = _vertex_max(lambda D: A + (D @ T).reshape(-1, n, n), m, model.slopes, LINF, w)
    tight = m == n and _invertible(model.C)
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
certify_lure = certify
