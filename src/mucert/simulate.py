"""Activation functions, fixed-step integration of the network models, and
empirical verification of contraction certificates.

Each model states its dynamics once, as the map x X + h F(X) of
column-stacked states with h folded into its matrices (`euler_map`, built
once per run): verification steps it at x = 1, the forward-Euler map, and
integration takes the vector field F from it at h = 1 and x = 0.  With the
model's Jacobians (`jacobians`, over a column stack of states), this module
only steps, samples and measures.

Verification steps random trajectory pairs by the forward-Euler map
E(x) = x + h F(x) and checks the exact discrete bound ``||E^k(x) - E^k(y)||
<= (1 - h rate)^k ||x - y||`` in the certificate's weighted l1 or linf norm,
which holds for every pair of a certified model once h * max_i(-floor_i) < 1,
floor being the model's `diagonal_floor` (Jafarpour, Davydov, Proskurnikov
and Bullo, NeurIPS 2021; Davydov, Jafarpour, Proskurnikov and Bullo, CDC
2022): there ``||I + h J|| = 1 + h mu(J)`` whenever every ``1 + h J_ii >=
0``.  A step that breaks the condition is halved until it meets it; a -inf
slope-box floor under a bounded activation is taken over the activation's
own slopes.  Under rect_poly (unbounded, with a nondecreasing derivative)
each state block checks the condition at ``-c_i + min(d1 a_ii, cap_i
a_ii)``, cap_i being the slope at the largest input of coordinate i (the
state, or A x + u for FiringRate) over the block's "from" states before any
divergence, and a block that breaks it restarts the run at half the step.
A halving raises ValueError where the runs would hold more than
VERIFY_STEP_BUDGET steps or VERIFY_ENTRY_BUDGET stepped state entries: so a
divergence raises DivergenceError at its first non-finite instant where its
states overflow before the slopes they visit break the condition, and
ValueError once the restarts spend the budget where the slopes break it
first.  l2 certificates have no exact Euler bound and are refused.

The map that runs is each model's fused form, with h folded into its
matrices: (hA) act(x) + (1 - hc) x + hu for Hopfield (and so Persidskii and
Entrywise), (1 - hc) x + h act(Ax + u) for FiringRate, (I + hA) x - (hc)
act(x) for AxMinusCPhi and (I + hA) x + (hB) act(Cx) for MultiLure (and so
for Lure, at B = b and C = c^T), summed in that order; in Hopfield's map a
leak column of ones (a zero C) adds x itself, and one of zeros and a zero
input are left out, which can change only the sign of a zero.  It rounds
each step, so two trajectories at a nonzero equilibrium stall some ulps
apart while the bound keeps falling.  A distance d_k that fails the bound
is checked again net of the rounding allowance
min(k, 1 / (h rate)) * 2 (n + 3) eps (||s(x_{k-1})|| + ||s(y_{k-1})||), s
being the entrywise magnitudes of the summands of the step into instant k
(for Hopfield |hA| |act(x)| + |1 - hc| |x| + |hu|): about 4 gamma_{n+3} of
them per step, as a sum of n + 3 terms rounds by at most gamma_{n+3} of
their magnitudes, summed under the claimed factor.  It is still an estimate,
not a bound: it leaves out the rounding of the activation and of
FiringRate's Ax + u, which no slope bound scales here (rect_poly has none),
and an allowance that overflows nets nothing.  A report that passes without
it is unchanged.  Ratios are taken in log space, so a bound below the
smallest float does not underflow.  Pairs draw from seed-derived substreams.

Cost model of `verify_contraction`: the 2 * pairs trajectories advance as
one (n, 2 * pairs) stack, each step written by the model's fused map
straight into the next slot of a (block + 1, n, 2 * pairs) buffer allocated
once per run, through scratch buffers made with the map and no other
temporary.  A step takes the activation's kernels (1 for relu, tanh and
linear, 2 for leaky_relu and rect_poly, 4 for sigmoid) plus: Hopfield 4 (a
product, the leak's product and add, the input's add), 1 less at a zero leak
and 1 less at a zero input, so Persidskii and Entrywise take 2; FiringRate 5
(two products, the input's add, the leak's product and the add); AxMinusCPhi
3 (two products and the subtraction); MultiLure 4 (three products and the
add), and so Lure, whose map is MultiLure's at m = 1.  A block is DECAY_BLOCK_STEPS steps, or fewer where
it would exceed STATE_BLOCK_ENTRIES entries.  Each block is checked once:
one subtraction, one stacked norm and one finiteness check, then a few numpy
calls for the decay ratios (and, in a block whose ratios fail, the summands
of its steps and their norms for the allowance).  A rect_poly floor of -inf
adds one maximum over the block's inputs (and for FiringRate one batched
product) per block, and each restart runs again at twice the steps.
`integrate` steps one trajectory by classical RK4 through the same buffer:
four calls of the model's map at h = 1 and x = 0 (its field), combined in
place through three stage buffers allocated once per run.  Every
`mu_sample_stride` steps the Jacobian log norms of all trajectories are
taken (`_max_jacobian_mu`): from the slopes at O(n) per state where a
model's slope form scales the lines its norm sums, else from dense
(k, n, n) stacks of at most JACOBIAN_BATCH_ENTRIES entries.
Every reported value is bit-identical to the one-step, one-state
evaluation, except that the slope form's `max_sampled_mu` sums in another
order than the dense log norm and can differ from it in its last bits.
"""

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .lognorm import L1, L2, LINF, SlopeInterval, _offdiag_abs, _scales_summed_lines, kernels
from .matrices import _check_integers, _float_or_nan, _weights_or_ones, as_vector
from .networks import ContractionCertificate, check_model

# Relative headroom on the decay ratio, for rounding only: the Euler bound is
# exact, and distances are checked net of a per-step rounding allowance.
DECAY_RATIO_ALLOWANCE = 1e-3
KINK_NUDGE = 1e-12
# The dense route of the sampled log norms (l2, Lure, MultiLure and a
# slope-form model in the norm its slopes do not match) evaluates
# Jacobians in stacks of at most this many matrix entries (one state at
# n = 128, 16 at n = 32), so their memory does not grow with the number of
# states; at n >= 128 a stack saves nothing over one state.
JACOBIAN_BATCH_ENTRIES = 16_384
# Verification and integration step their state stack into a buffer of at
# most DECAY_BLOCK_STEPS steps and STATE_BLOCK_ENTRIES state entries (256 KB;
# at least one step), so memory is fixed in the horizon, and check each block
# once: its pair distances, finiteness and decay ratios.
DECAY_BLOCK_STEPS = 64
STATE_BLOCK_ENTRIES = 1 << 15
# A verification that halves its step may start runs of at most this many
# steps (the per-step cost of small models) and stepped state entries, steps
# * n * 2 * pairs (the array work of large ones), in total; the README gives
# their measured cost.
VERIFY_STEP_BUDGET = 1 << 15
VERIFY_ENTRY_BUDGET = 1 << 24
# Distances below the smallest normal float carry no relative precision: the
# decay check counts them as 0.
DISTANCE_FLOOR = np.finfo(float).tiny


def _is_finite(v) -> bool:
    """Whether an activation parameter is a finite real number: not a bool,
    nor an integer beyond the float range."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(_float_or_nan(v)))


class DivergenceError(RuntimeError):
    """A trajectory left the representable range; `time` is the first bad instant."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t = {time}")
        self.time = time


@dataclass(frozen=True)
class ActivationSpec:
    """One activation kind, as `Activation` reads it.  Every callable takes
    the `Activation` first, for its parameters: `valid(act)` says whether
    they hold (else ValueError with `error`), `value(act, x, out)` writes
    the activation at the float array x into `out`, by in-place kernels and
    no temporary, and returns `out`, `deriv(act, x)` returns the derivative
    at x (at a kink, the slope left of it) and `slopes(act)` the slope
    interval.  `kinks` are the points where the derivative jumps."""

    value: Callable
    deriv: Callable
    slopes: Callable
    params: tuple = ()  # the `Activation` fields it takes, besides kind
    valid: Callable = lambda act: True
    error: str = ""
    kinks: tuple = ()


def _sigmoid(act, x, out):
    np.exp(np.negative(x, out=out), out=out)
    return np.divide(1.0, np.add(out, 1.0, out=out), out=out)


def _sigmoid_deriv(act, x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 - s)


def _rect_poly(act, x, out):
    np.maximum(x, 0.0, out=out)
    r = int(act.r)  # ** r, which squares for r = 2
    return np.square(out, out=out) if r == 2 else np.power(out, r, out=out)


# Activation kind -> its spec.  The model-file object of an activation holds
# "kind" plus the spec's `params`.
ACTIVATIONS = {
    "relu": ActivationSpec(
        value=lambda act, x, out: np.maximum(x, 0.0, out=out),
        deriv=lambda act, x: np.where(x > 0.0, 1.0, 0.0),
        slopes=lambda act: SlopeInterval(0.0, 1.0),
        kinks=(0.0,),
    ),
    # max(x, a x) is x where x >= 0 and a x below it, as 0 < a < 1.
    "leaky_relu": ActivationSpec(
        value=lambda act, x, out: np.maximum(x, np.multiply(x, act.a, out=out), out=out),
        deriv=lambda act, x: np.where(x > 0.0, 1.0, act.a),
        slopes=lambda act: SlopeInterval(act.a, 1.0),
        params=("a",),
        valid=lambda act: _is_finite(act.a) and 0.0 < act.a < 1.0,
        error="leaky_relu needs a slope parameter a in (0, 1)",
        kinks=(0.0,),
    ),
    "tanh": ActivationSpec(
        value=lambda act, x, out: np.tanh(x, out=out),
        deriv=lambda act, x: 1.0 - np.square(np.tanh(x)),
        slopes=lambda act: SlopeInterval(0.0, 1.0),
    ),
    "sigmoid": ActivationSpec(
        value=_sigmoid,
        deriv=_sigmoid_deriv,
        slopes=lambda act: SlopeInterval(0.0, 0.25),
    ),
    # max(x, 0)^r: unbounded slopes and a nondecreasing derivative.
    "rect_poly": ActivationSpec(
        value=_rect_poly,
        deriv=lambda act, x: int(act.r) * np.maximum(x, 0.0) ** (int(act.r) - 1),
        slopes=lambda act: SlopeInterval(0.0, np.inf),
        params=("r",),
        valid=lambda act: _is_finite(act.r) and act.r == int(act.r) >= 2,
        error="rect_poly needs an integer exponent r >= 2",
    ),
    "linear": ActivationSpec(
        value=lambda act, x, out: np.multiply(x, act.k, out=out),
        deriv=lambda act, x: np.full_like(x, act.k),
        slopes=lambda act: SlopeInterval(act.k, act.k),
        params=("k",),
        valid=lambda act: _is_finite(act.k),
        error="linear needs a finite gain k",
    ),
}


@dataclass(frozen=True)
class Activation:
    """A scalar activation applied coordinatewise, of a kind in `ACTIVATIONS`.

    Kinds and slope intervals:
    relu [0, 1]; leaky_relu(a) [a, 1] with a in (0, 1); tanh [0, 1];
    sigmoid [0, 1/4]; rect_poly(r) [0, inf) for integer r >= 2 (max(0, x)^r);
    linear(k) [k, k].
    """

    kind: str
    a: float | None = None
    r: int | None = None
    k: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in ACTIVATIONS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        spec = ACTIVATIONS[self.kind]
        for name in ("a", "r", "k"):
            if name not in spec.params and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} takes no parameter {name}")
        if not spec.valid(self):
            raise ValueError(spec.error)

    def __call__(self, x, out=None):
        """The activation at every entry of x, written into `out` (a float
        array of x's shape other than x itself) or a fresh array by its
        kind's `value`: one to four in-place kernels and no temporary."""
        x = np.asarray(x, dtype=float)
        return ACTIVATIONS[self.kind].value(self, x, np.empty(x.shape) if out is None else out)

    def deriv(self, x):
        return ACTIVATIONS[self.kind].deriv(self, np.asarray(x, dtype=float))

    def slopes(self) -> SlopeInterval:
        return ACTIVATIONS[self.kind].slopes(self)

    def kinks(self) -> tuple:
        """Points where the derivative jumps (empty for smooth kinds)."""
        return ACTIVATIONS[self.kind].kinks


def slope_bounds(act: Activation) -> SlopeInterval:
    """Slope interval of an activation (difference-quotient bounds)."""
    return act.slopes()


def _check_act(model, act: Activation):
    """Raise TypeError unless `model` is a network model, and ValueError if
    the activation's slopes fall outside its declared interval."""
    if not check_model(model).slopes.contains(act.slopes()):
        raise ValueError(
            f"activation slopes {act.slopes()} fall outside the model's "
            f"declared interval {model.slopes}"
        )


def jacobian(model, act: Activation, x) -> np.ndarray:
    """Model Jacobian at a single state."""
    return check_model(model).jacobian(act, x)


def _max_jacobian_mu(model, act, family, w):
    """A function of an (n, k) state stack: the largest log norm (`family`,
    at weights `w`) of the model's Jacobians at its columns.  Raises
    ValueError on a non-finite Jacobian entry.

    Where a model has a `_slope_form` whose `side` scales the lines that the
    norm sums (columns on l1, rows on linf) or nothing, each log norm is d_i
    plus an off-diagonal sum, |s_i| R_i or R_i, with R = (w @ |A_off|) / w
    on l1 and (|A_off| @ w) / w on linf computed once.  A stack takes the
    dense route instead unless fl(max |A_off| * max |s|) is finite (so are
    the slopes and, rounding being monotone, every off-diagonal product) and
    so is every value (so is every diagonal): the dense route then raises
    exactly where a Jacobian entry is not finite.  Every other case takes
    the dense route, which evaluates the Jacobians in stacks of at most
    JACOBIAN_BATCH_ENTRIES entries."""
    mu = kernels(family)[0]

    def dense(X):
        n, k = X.shape
        width = max(1, JACOBIAN_BATCH_ENTRIES // (n * n))
        best = -np.inf
        for a in range(0, k, width):
            J = model.jacobians(act, X[:, a:a + width])
            if not np.isfinite(J).all():
                raise ValueError("matrix entries must be finite")
            best = max(best, float(mu(J, w).max()))
        return best

    form = model._slope_form
    if family == L2 or form is None or not (
        model.side is None or _scales_summed_lines(model.side, family)
    ):
        return dense
    B = _offdiag_abs(model.A)
    top = float(B.max())
    R = ((B.T if family == L1 else B) @ w)[:, None] / w[:, None]

    def sampled(X):
        if not X.shape[1]:
            return dense(X)
        s, d = form(act, X)
        a = np.abs(s)
        V = d + R if model.side is None else d + a * R
        if math.isfinite(top * float(a.max())) and np.isfinite(V).all():
            return float(V.max())
        return dense(X)

    return sampled


def _rk4_advance(f, h, shape):
    """advance(X, out): the classical RK4 step X + (h/6)(k1 + 2 k2 + 2 k3 +
    k4) of a stack of `shape`, combined in place in that order and written
    to `out`, other than X.  `f(X, out)` writes the vector field at X into
    `out`; the stages run through three buffers allocated here, once."""
    K, J, Y = (np.empty(shape) for _ in range(3))

    def advance(X, out):
        f(X, K)
        np.add(X, np.multiply(K, 0.5 * h, out=Y), out=Y)
        for t in (0.5 * h, h):  # k2, then k3: the next stage's state, then 2 k_j
            f(Y, J)
            np.add(X, np.multiply(J, t, out=Y), out=Y)
            np.add(K, np.multiply(J, 2.0, out=J), out=K)
        f(Y, J)
        np.add(K, J, out=K)
        np.add(np.multiply(K, h / 6.0, out=K), X, out=out)

    return advance


def _block_steps(entries: int) -> int:
    """Steps per state block of a stack of `entries` state entries."""
    return max(1, min(DECAY_BLOCK_STEPS, STATE_BLOCK_ENTRIES // entries))


def _state_blocks(advance, Z, n_steps: int, block: int):
    """Advance the (n, k) stack Z by `n_steps` calls of `advance(X, out)`,
    which writes the states one step after X into `out`, `block` steps at a
    time, into one (block + 1, n, k) buffer allocated once.

    Yields (i, S) per block: slot j of S holds the states at instant i + j,
    slot 0 the last states of the previous block (Z for the first).  The
    next block overwrites S.
    """
    S = np.empty((block + 1,) + Z.shape)
    S[0] = Z
    slots = list(zip(S[:-1], S[1:]))  # (from, to) views, made once
    for i in range(0, n_steps, block):
        m = min(block, n_steps - i)
        for X, out in slots[:m]:
            advance(X, out)
        yield i, S[:m + 1]
        S[0] = S[m]


def _first_nonfinite(S):
    """The first slot j >= 1 of a state block whose states hold a non-finite
    entry, or None: the block's first divergent instant."""
    finite = np.isfinite(S[1:]).reshape(len(S) - 1, -1).all(axis=1)
    return None if finite.all() else 1 + int(np.argmin(finite))


def _step_count(horizon: float, step: float) -> int:
    """Number of whole steps in the horizon; ValueError unless the horizon and
    step are finite and positive and the horizon holds one to finitely many
    steps."""
    n_steps = np.floor(horizon / step) if 0.0 < step < np.inf else np.nan
    if not (0.0 < horizon < np.inf and 1.0 <= n_steps < np.inf):
        raise ValueError(
            f"horizon {horizon} and step {step} must be finite and positive, "
            "with one to finitely many steps in the horizon"
        )
    return int(n_steps)


def integrate(model, act: Activation, x0, horizon: float, step: float):
    """Classical 4th-order fixed-step integration of one trajectory.

    Returns (times, states) with states of shape (steps + 1, n).  Divergence
    (a non-finite state) raises :class:`DivergenceError` carrying the first
    bad time.  The horizon and step must be finite and positive, with at least
    one step in the horizon, and x0 a finite vector of length n.  A
    non-model raises TypeError.
    """
    n_steps = _step_count(horizon, step)
    _check_act(model, act)
    X = as_vector(x0, model.n)[:, None]
    out = np.empty((n_steps + 1, X.shape[0]))
    out[0] = X[:, 0]
    # The model's map at h = 1 and x = 0 is its vector field.
    field = model.euler_map(act, 1.0, 1, 0.0)[0]
    blocks = _state_blocks(_rk4_advance(field, step, X.shape), X, n_steps, _block_steps(X.size))
    # Divergence is detected and reported, so intermediate overflow is expected.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, S in blocks:
            bad = _first_nonfinite(S)
            if bad is not None:
                raise DivergenceError((i + bad) * step)
            out[i + 1:i + len(S)] = S[1:, :, 0]
    return np.arange(n_steps + 1) * step, out


@dataclass(frozen=True)
class SimReport:
    """Empirical check of a decay bound over sampled trajectory pairs.

    `worst_decay_ratio` is the max over pairs and steps k of
    ||difference_k|| / ((1 - step rate)^k ||difference_0||) in the certified
    weighted norm, on forward-Euler trajectories at `step`, the step that
    ran (`scheme` is always ``euler``); `max_sampled_mu` is the largest
    weighted Jacobian log norm seen along the trajectories.
    """

    worst_decay_ratio: float
    max_sampled_mu: float
    pairs: int
    horizon: float
    step: float
    seed: int
    scheme: str

    @property
    def passed(self) -> bool:
        return self.worst_decay_ratio <= 1.0 + DECAY_RATIO_ALLOWANCE


def _draw_pairs(model, act, pairs, seed, scale=3.0):
    """Start states (X0, Y0), each (n, pairs): pair p draws x, then y, from
    the seed's substream p, normal at the given scale."""
    X0, Y0 = XY = np.empty((2, model.n, pairs))
    for p in range(pairs):
        XY[:, :, p] = np.random.default_rng([seed, p]).normal(scale=scale, size=(2, model.n))
    if not act.slopes().bounded:
        # Unbounded slopes: keep starts in the unit inf-ball.
        XY /= np.maximum(1.0, np.abs(XY).max(axis=1, keepdims=True))
    return X0, Y0


def _worst_ratio(dist, log_d0, log_bound) -> float:
    """Largest decay ratio exp(log d - log d0 - log bound) over a block of
    steps: `dist` holds one row of live pair distances per step and
    `log_bound` one value per step.  A distance below DISTANCE_FLOOR counts
    as 0, and a step whose distances all count as 0 reads ratio 0: a zero
    distance meets any bound, even 0.  A NaN bound makes its step's ratio,
    and so the result, NaN."""
    logs = np.where(dist < DISTANCE_FLOOR, -np.inf, np.log(dist) - log_d0)
    top = logs.max(axis=1)
    return float(np.where(top > -np.inf, np.exp(top - log_bound), 0.0).max())


def verify_contraction(
    model,
    act: Activation,
    cert: ContractionCertificate,
    pairs: int = 20,
    horizon: float = 5.0,
    step: float = 1e-3,
    seed: int = 0,
    mu_sample_stride: int = 100,
    initial_pairs=None,
) -> SimReport:
    """Step random trajectory pairs by forward Euler and measure the worst
    decay ratio against the certificate's rate in its weighted l1 or linf
    norm, with the halving, budget and rounding allowance of the module
    docstring; the report carries the step that ran.

    A distance below `DISTANCE_FLOOR` counts as 0, so pairs that start
    that close contribute ratio 0, and so does a zero distance against a zero
    bound.  A claimed per-step factor 1 - step * rate <= 0 reads ratio inf:
    the Euler map's factor is at least 1 + step * min(floor) > 0 there.  The
    report passes iff the worst ratio stays within the allowance of 1; any
    other NaN ratio makes it NaN, which fails.  An activation of unbounded
    slope halves the step and draws its starts in the unit inf-ball.
    `initial_pairs` optionally supplies the endpoints, as two arrays of one
    shape, (n,) or (n, pairs).  A non-finite sampled Jacobian raises
    ValueError, and a divergence DivergenceError (or ValueError, where the
    slopes it visits spend the budget first).  Raises ValueError, before any
    work if `mu_sample_stride` or `pairs` is not an integer of at least 1, or
    `seed` not an integer of at least 0 (a bool is not an integer here), and
    otherwise for an l2 certificate, initial pair arrays of other shapes, a
    halving past the budget, and unless the horizon and step are finite and
    positive, at least one step fits, there is at least one pair, and every
    pair's entries and start distance are finite.  A non-model raises
    TypeError once the integer and certificate checks pass.
    """
    _check_integers(("mu_sample_stride", mu_sample_stride, 1), ("pairs", pairs, 1),
                    ("seed", seed, 0))
    if not cert.contracting:
        raise ValueError("certificate does not assert contraction")
    if cert.family not in (L1, LINF):
        raise ValueError(f"verification checks l1 and linf certificates, not {cert.family}")
    _check_act(model, act)
    if not act.slopes().bounded:
        step = 0.5 * step
    n_steps = _step_count(horizon, step)

    if initial_pairs is not None:
        X0, Y0 = (np.asarray(a, dtype=float) for a in initial_pairs)
        if X0.shape != Y0.shape or X0.ndim not in (1, 2) or X0.shape[0] != model.n:
            raise ValueError(
                f"initial pair arrays must both have shape ({model.n},) or "
                f"({model.n}, pairs), got {X0.shape} and {Y0.shape}"
            )
        X0, Y0 = X0.reshape(model.n, -1), Y0.reshape(model.n, -1)
        pairs = X0.shape[1]
    if pairs < 1:
        raise ValueError(f"need at least one trajectory pair, got {pairs}")
    floor = model.diagonal_floor()
    if np.isneginf(floor).any() and act.slopes().bounded:
        floor = model.diagonal_floor(act.slopes().d2)
    stiffness = float(np.max(-floor))
    # A floor of -inf under an unbounded activation is checked block by block.
    checked = stiffness == math.inf
    if initial_pairs is None:
        X0, Y0 = _draw_pairs(model, act, pairs, seed)
    Z = np.hstack([X0, Y0])  # (n, 2 * pairs)
    w = _weights_or_ones(cert.weights, model.n)
    norm = kernels(cert.family)[1]
    max_jacobian_mu = _max_jacobian_mu(model, act, cert.family, w)
    ratio_limit = 1.0 + DECAY_RATIO_ALLOWANCE
    # The rounding allowance per step and per unit of the norms of the summands.
    rounding = 2 * (model.n + 3) * np.finfo(float).eps
    block = _block_steps(Z.size)
    D = np.empty((block + 1, model.n, pairs))

    def run(step, n_steps):
        """(worst ratio, max sampled mu) of the Euler run at `step`; on a
        `checked` run, None at the first block whose "from" states before any
        divergence break the step condition at the floor of the slopes they
        visit."""
        h_rate = step * cert.rate
        # Log of the claimed per-step factor 1 - step * rate.
        log_factor = -math.inf if h_rate >= 1.0 else math.log1p(-h_rate)
        worst = math.inf if h_rate >= 1.0 else 0.0
        # The claimed factor's powers sum to at most min(k, span) over k steps.
        span = 1.0 / h_rate if h_rate > 0.0 else math.inf
        max_mu = -np.inf
        advance, summands = model.euler_map(act, step, Z.shape[1], 1.0)
        for i, S in _state_blocks(advance, Z, n_steps, block):
            lo = 0 if i == 0 else 1  # instant 0 is checked with the first block
            dist = norm(np.subtract(S[lo:, :, :pairs], S[lo:, :, pairs:], out=D[:len(S) - lo]), w)
            # A non-finite entry of a state makes its pair's distance non-finite.
            diverged = None if np.isfinite(dist).all() else _first_nonfinite(S)
            if checked:
                # The slopes up to those at the largest activation input of
                # the "from" states, as every unbounded kind's derivative is
                # nondecreasing (a test over `ACTIVATIONS` checks it); a NaN
                # or inf floor fails.
                cap = act.deriv(model._input_max(S[:-1 if diverged is None else diverged]))
                if not step * float(np.max(-model.diagonal_floor(cap))) < 1.0:
                    return None
            if diverged is None and log_d0.size:
                t = np.arange(i + lo, i + len(S))
                log_bound = np.where(t > 0, t * log_factor, 0.0)
                ratio = _worst_ratio(dist[:, live], log_d0, log_bound)
                if ratio > ratio_limit:
                    # Each failing distance is checked again net of the
                    # rounding allowance, sized by the summands of the step
                    # into its instant (none into instant 0).
                    d = dist[:, live]
                    fails = np.exp(np.log(d) - log_d0 - log_bound[:, None]) > ratio_limit
                    size = np.pad(norm(summands(S[:-1]), w), ((1 - lo, 0), (0, 0)))
                    noise = (rounding * np.minimum(t, span))[:, None] * (
                        size[:, :pairs] + size[:, pairs:])[:, live]
                    # An allowance that overflowed nets nothing.
                    fails &= np.isfinite(noise)
                    ratio = _worst_ratio(np.where(fails, d - noise, d), log_d0, log_bound)
                    del d, fails, size, noise
                del t, log_bound
                if ratio > worst or math.isnan(ratio):  # NaN sticks and fails
                    worst = ratio
            # Samples run with no block temporaries alive, and only before a
            # divergence, so a non-finite Jacobian there raises first.
            del dist
            for j in range(lo, len(S) if diverged is None else diverged):
                if (i + j) % mu_sample_stride == 0:
                    max_mu = max(max_mu, max_jacobian_mu(S[j]))
            if diverged is not None:
                raise DivergenceError((i + diverged) * step)
        return worst, max_mu

    # Divergence and non-finite start distances are detected and reported, so
    # intermediate overflow is expected; a zero distance has log -inf.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # A non-finite entry makes its pair's start distance non-finite too.
        d0 = norm(X0 - Y0, w)
        bad = np.flatnonzero(~np.isfinite(d0))
        if bad.size:
            raise ValueError(f"pair {bad[0]} has a non-finite entry or start distance")
        live = d0 >= DISTANCE_FLOOR
        log_d0 = np.log(d0[live])
        started = 0  # steps of the runs started so far
        while True:
            if checked or step * stiffness < 1.0:
                started += n_steps
                result = run(step, n_steps)
                if result is not None:
                    break
            step *= 0.5
            n_steps = _step_count(horizon, step)
            total = started + n_steps
            if total > VERIFY_STEP_BUDGET or total * Z.size > VERIFY_ENTRY_BUDGET:
                raise ValueError(
                    f"halving the step to {step} would take verification past its "
                    f"budget of {VERIFY_STEP_BUDGET} steps and {VERIFY_ENTRY_BUDGET} "
                    "state entries; " + ("the slopes the trajectories visit broke the "
                    "step condition at every step tried" if checked else "shorten the horizon"))
    return SimReport(
        worst_decay_ratio=result[0],
        max_sampled_mu=result[1],
        pairs=pairs,
        horizon=horizon,
        step=step,
        seed=seed,
        scheme="euler",
    )


def sample_jacobian_mu(
    model,
    act: Activation,
    samples: int,
    family: str,
    weights=None,
    seed: int = 0,
    scale: float = 3.0,
    with_stats: bool = False,
):
    """Max weighted log norm of the model Jacobian over random states.

    States draw normal entries at the given scale, as one (samples, n) block
    from the seed's generator.  A coordinate landing exactly on an activation
    kink is nudged by 1e-12 rather than skipped; the nudge count is available
    via with_stats=True.  Zero samples return -inf.  Raises ValueError,
    before any work, if `samples` or `seed` is not an integer of at least 0
    (a bool is not an integer here), and TypeError for a non-model.
    """
    _check_integers(("samples", samples, 0), ("seed", seed, 0))
    _check_act(model, act)
    w = _weights_or_ones(weights, model.n)
    max_jacobian_mu = _max_jacobian_mu(model, act, family, w)
    X = np.random.default_rng(seed).normal(scale=scale, size=(samples, model.n))
    nudged = 0
    for kink in act.kinks():
        hit = X == kink
        nudged += int(np.sum(hit))
        X = np.where(hit, X + KINK_NUDGE, X)
    best = max_jacobian_mu(X.T)
    if with_stats:
        return best, nudged
    return best
