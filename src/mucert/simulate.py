"""Activation functions, fixed-step integration of the network models, and
empirical verification of contraction certificates.

Each model supplies its own vector field (`field`, built once per integration
or verification as a closure over column-stacked states) and Jacobians
(`jacobians`, over a column stack of states); this module only steps,
samples and measures.

Verification steps random trajectory pairs and checks a decay bound in the
certificate's weighted norm, by one of two schemes chosen once per run:

* ``euler``: the forward-Euler map E(x) = x + h F(x) at the step h, checked
  against the exact discrete bound ``||E^k(x) - E^k(y)|| <= (1 - h rate)^k
  ||x - y||``.  In a weighted l1 or linf norm, ``||I + h J|| = 1 + h mu(J)``
  whenever ``1 + h J_ii >= 0`` for every i, and F(x) - F(y) is a secant
  matrix of the Jacobian polytope times x - y.  So the bound holds for every
  pair of a certified model once h * max_i(-floor_i) < 1, where floor is the
  model's `diagonal_floor` (Jafarpour, Davydov, Proskurnikov and Bullo,
  "Robust implicit networks via non-Euclidean contractions", NeurIPS 2021;
  Davydov, Jafarpour, Proskurnikov and Bullo, "Non-Euclidean monotone
  operator theory with applications to recurrent neural networks", CDC 2022).
  This scheme runs whenever the certificate family is l1 or linf and that
  step condition holds.  The condition is only needed on the secant
  Jacobians a step meets.  So where the floor is -inf (a Hopfield or
  FiringRate model with unbounded slopes and some a_ii < 0, run with the
  unbounded rect_poly activation), each state block checks it at the floor
  ``-c_i + min(d1 a_ii, cap_i a_ii)``, where cap_i is the activation slope at
  the largest input of coordinate i over the block's "from" states (all but
  its last slot): the state (Hopfield) or A x + u (FiringRate), taken by one
  batched product per block.  rect_poly's derivative is nondecreasing, so
  every secant slope between two inputs at most m is at most its slope at
  m.  If a block breaks the condition (a NaN or inf floor included),
  diverges or samples a non-finite Jacobian, the attempt is discarded and
  the ``rk4`` run starts from the beginning, so its report or error is the
  one that run gives alone.
* ``rk4``: classical RK4 trajectories, checked against
  ``||x(t) - y(t)|| <= exp(-rate t) ||x(0) - y(0)||``.  It runs for l2
  weights, for bounded activations on a floor of -inf, for steps at or
  above 1 / max_i(-floor_i) on a finite floor, and after a discarded euler
  attempt.

Ratios are taken in log space, exp(log d_k - log d_0 - log bound_k), so a
bound far below the smallest float does not underflow.  Pairs draw from
seed-derived substreams, so reports are reproducible at any parallelism.

Cost model of `verify_contraction`: the 2 * pairs trajectories advance as one
(n, 2 * pairs) stack.  Each step makes 1 field evaluation on the stack
(euler) or 4 (rk4).  A floor of -inf adds, per block, one maximum over the
block's inputs (and for FiringRate one batched product) and one floor of n
entries; at worst a discarded euler attempt (a quarter of rk4's field
evaluations) runs before the rk4 run.  A field is built in place from its
first matrix product, combines its (n, 1) leak or input columns with the
stack through copies of the stack's shape made once per shape (the same
IEEE operation per entry, without the cost of a broadcast), and the step's
last in-place add writes straight into the next slot of a
(block + 1, n, 2 * pairs) state buffer allocated once per run.  The
block is DECAY_BLOCK_STEPS steps, or fewer where the buffer would exceed
STATE_BLOCK_ENTRIES entries (or two states, where one is larger), so memory
is fixed in the horizon.  Each block, not each step, is checked once: one
subtraction forms every pair difference, one stacked norm takes all their
distances, and one finiteness check covers them; when it fails, the first
non-finite state in the buffer gives the first divergent instant.  The logs,
the distance floor, the bound and the exp of the decay check then take a few
numpy calls per block.  `integrate` steps one trajectory through the same
state block and the same first-divergence rule.  Every `mu_sample_stride`
steps the Jacobian log norms of all trajectories are taken, after their
block's checks and only at states before a divergence; `sample_jacobian_mu`
draws its states as one block and evaluates them the same way
(`_max_jacobian_mu`).  A model with a slope form (Hopfield, FiringRate,
Persidskii, Entrywise, AxMinusCPhi) takes its log norms from its slopes, at
O(n) per sampled state, in the norm whose sums run along the lines its
slopes scale (l1 for Hopfield, Persidskii and Entrywise, linf for
FiringRate) and in both l1 and linf for AxMinusCPhi, whose slopes scale
only the diagonal.  Every other case (the other norm, l2 certificates, Lure
and MultiLure) builds dense Jacobians, as (k, n, n) stacks of at most
JACOBIAN_BATCH_ENTRIES entries, with one finiteness check and one stacked
log norm per stack.  Every reported value is bit-identical to the one-step,
one-state evaluation, except that the slope form's `max_sampled_mu` sums in
another order than the dense log norm and can differ from it in its last
bits.  The certificate's weights are validated once per run; the step loop
calls the unchecked log-norm kernels.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lognorm import L1, L2, LINF, SlopeInterval, _offdiag_abs, _scales_summed_lines, kernels
from .matrices import _weights_or_ones
from .networks import ContractionCertificate, check_model

# Headroom on the decay bound: integration error on the rk4 scheme; on the
# euler scheme, whose bound is exact, rounding only.
DECAY_RATIO_ALLOWANCE = 1e-3
KINK_NUDGE = 1e-12
# The dense route of the sampled log norms (l2 certificates, Lure, MultiLure
# and a slope-form model in the norm its slopes do not match) evaluates
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
# Distances below the smallest normal float carry no relative precision: the
# decay check counts them as 0.
DISTANCE_FLOOR = np.finfo(float).tiny

# Activation kind -> the parameters it takes: the `Activation` fields that
# its model-file object holds besides "kind".
ACTIVATION_PARAMS = {
    "relu": (),
    "leaky_relu": ("a",),
    "tanh": (),
    "sigmoid": (),
    "rect_poly": ("r",),
    "linear": ("k",),
}


def _is_real(v) -> bool:
    """Whether an activation parameter is a real number (not a bool)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


class DivergenceError(RuntimeError):
    """A trajectory left the representable range; `time` is the first bad instant."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t = {time}")
        self.time = time


@dataclass(frozen=True)
class Activation:
    """A scalar activation applied coordinatewise.

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
        if not isinstance(self.kind, str) or self.kind not in ACTIVATION_PARAMS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        for name in ("a", "r", "k"):
            if name not in ACTIVATION_PARAMS[self.kind] and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} takes no parameter {name}")
        if self.kind == "leaky_relu":
            if not (_is_real(self.a) and 0.0 < self.a < 1.0):
                raise ValueError("leaky_relu needs a slope parameter a in (0, 1)")
        if self.kind == "rect_poly":
            r = self.r
            if not (_is_real(r) and math.isfinite(r) and r == int(r) >= 2):
                raise ValueError("rect_poly needs an integer exponent r >= 2")
        if self.kind == "linear":
            if not (_is_real(self.k) and math.isfinite(self.k)):
                raise ValueError("linear needs a finite gain k")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "leaky_relu":
            return np.where(x >= 0.0, x, self.a * x)
        if self.kind == "tanh":
            return np.tanh(x)
        if self.kind == "sigmoid":
            return 1.0 / (1.0 + np.exp(-x))
        if self.kind == "rect_poly":
            return np.maximum(x, 0.0) ** int(self.r)
        return self.k * x

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "relu":
            return np.where(x > 0.0, 1.0, 0.0)
        if self.kind == "leaky_relu":
            return np.where(x > 0.0, 1.0, self.a)
        if self.kind == "tanh":
            t = np.tanh(x)
            return 1.0 - t * t
        if self.kind == "sigmoid":
            s = 1.0 / (1.0 + np.exp(-x))
            return s * (1.0 - s)
        if self.kind == "rect_poly":
            r = int(self.r)
            return r * np.maximum(x, 0.0) ** (r - 1)
        return np.full_like(x, self.k)

    def slopes(self) -> SlopeInterval:
        if self.kind == "relu":
            return SlopeInterval(0.0, 1.0)
        if self.kind == "leaky_relu":
            return SlopeInterval(self.a, 1.0)
        if self.kind == "tanh":
            return SlopeInterval(0.0, 1.0)
        if self.kind == "sigmoid":
            return SlopeInterval(0.0, 0.25)
        if self.kind == "rect_poly":
            return SlopeInterval(0.0, np.inf)
        return SlopeInterval(self.k, self.k)

    def kinks(self) -> tuple:
        """Points where the derivative jumps (empty for smooth kinds)."""
        if self.kind in ("relu", "leaky_relu"):
            return (0.0,)
        return ()


def slope_bounds(act: Activation) -> SlopeInterval:
    """Slope interval of an activation (difference-quotient bounds)."""
    return act.slopes()


def _check_act(model, act: Activation):
    if not model.slopes.contains(act.slopes()):
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


def _rk4_step(f, X, h, out=None):
    """X + (h/6)(k1 + 2 k2 + 2 k3 + k4), combined in place in that order and
    written to `out` (a fresh array by default); `f` must return a fresh
    array."""
    k1 = f(X)
    k2 = f(X + 0.5 * h * k1)
    k3 = f(X + 0.5 * h * k2)
    k4 = f(X + h * k3)
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= h / 6.0
    return np.add(k1, X, out=k1 if out is None else out)


def _euler_step(f, X, h, out=None):
    """X + h f(X), combined in place and written to `out` (a fresh array by
    default); `f` must return a fresh array."""
    K = f(X)
    K *= h
    return np.add(K, X, out=K if out is None else out)


def _block_steps(entries: int) -> int:
    """Steps per state block of a stack of `entries` state entries."""
    return max(1, min(DECAY_BLOCK_STEPS, STATE_BLOCK_ENTRIES // entries))


def _state_blocks(f, advance, Z, n_steps: int, step: float, block: int):
    """Advance the (n, k) stack Z by `n_steps` steps of `advance`, `block`
    steps at a time, into one (block + 1, n, k) buffer allocated once.

    Yields (i, S) per block: slot j of S holds the states at instant i + j,
    slot 0 the last states of the previous block (Z for the first).  The
    next block overwrites S.
    """
    S = np.empty((block + 1,) + Z.shape)
    S[0] = Z
    for i in range(0, n_steps, block):
        m = min(block, n_steps - i)
        for j in range(m):
            advance(f, S[j], step, out=S[j + 1])
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
    one step in the horizon.
    """
    n_steps = _step_count(horizon, step)
    _check_act(model, act)
    X = np.asarray(x0, dtype=float).reshape(-1, 1)
    out = np.empty((n_steps + 1, X.shape[0]))
    out[0] = X[:, 0]
    blocks = _state_blocks(model.field(act), _rk4_step, X, n_steps, step, _block_steps(X.size))
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
    ||difference_k|| / (bound_k ||difference_0||) in the certified weighted
    norm, where bound_k is (1 - step rate)^k on the ``euler`` scheme and
    exp(-rate k step) on the ``rk4`` scheme (`scheme`); `max_sampled_mu` is
    the largest weighted Jacobian log norm seen along the trajectories.  On
    a floor of -inf, ``euler`` means that every block met the step condition
    at the floor of the slopes it visited; ``rk4`` there reports the rk4 run
    alone, with nothing of the discarded attempt.
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
    n = model.n
    unbounded = not act.slopes().bounded
    cols = []
    for p in range(pairs):
        rng = np.random.default_rng([seed, p])
        x = rng.normal(scale=scale, size=n)
        y = rng.normal(scale=scale, size=n)
        if unbounded:
            # Unbounded slopes: keep starts in the unit inf-ball.
            x = x / max(1.0, np.max(np.abs(x)))
            y = y / max(1.0, np.max(np.abs(y)))
        cols.append((x, y))
    X0 = np.stack([c[0] for c in cols], axis=1)
    Y0 = np.stack([c[1] for c in cols], axis=1)
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


def _check_integers(*checks):
    """Raise ValueError unless the value of each (name, value, least) is an
    integer (a bool is not one here) of at least `least`."""
    for name, value, least in checks:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
    """Step random trajectory pairs and measure the worst decay ratio against
    the certificate's rate, in the certificate's weighted norm, on the
    ``euler`` or ``rk4`` scheme that the module docstring describes.

    A distance below `DISTANCE_FLOOR` counts as 0.  Pairs that start that
    close contribute ratio 0 by convention, and so does a zero distance
    against a zero bound.  On the ``euler`` scheme a claimed per-step factor
    1 - step * rate <= 0 reads ratio inf: the Euler map's factor is at least
    1 + step * min(floor) > 0 there, so no certificate of the model can claim
    it.  The report passes iff the worst ratio stays within the allowance of
    1; any other NaN ratio makes the worst ratio NaN, which fails.  A model
    whose slope-box floor is -inf, run with an unbounded activation in an l1
    or linf certificate, first tries the ``euler`` scheme under the floor of
    the slopes each block visits, and falls back to ``rk4`` from the start
    (see the module docstring): at most one euler attempt on top of the rk4
    run.
    `initial_pairs` optionally supplies the endpoints directly as a pair of
    (n, pairs) arrays instead of drawing them from the seed.  An activation
    of unbounded slope halves the step and draws its starts in the unit
    inf-ball; the report carries the halved step.  Raises
    ValueError, before any work if `mu_sample_stride` or `pairs` is not an
    integer of at least 1, or `seed` not an integer of at least 0 (a bool is
    not an integer here), and otherwise unless the horizon and step are finite and
    positive, at least one step fits, there is at least one pair, and every
    pair's entries and start distance are finite.
    """
    _check_integers(("mu_sample_stride", mu_sample_stride, 1), ("pairs", pairs, 1),
                    ("seed", seed, 0))
    if not cert.contracting:
        raise ValueError("certificate does not assert contraction")
    _check_act(model, act)
    if not act.slopes().bounded:
        step = 0.5 * step
    n_steps = _step_count(horizon, step)

    if initial_pairs is not None:
        X0 = np.asarray(initial_pairs[0], dtype=float).reshape(model.n, -1)
        Y0 = np.asarray(initial_pairs[1], dtype=float).reshape(model.n, -1)
        if X0.shape != Y0.shape:
            raise ValueError("initial pair arrays must have matching shapes")
        pairs = X0.shape[1]
    if pairs < 1:
        raise ValueError(f"need at least one trajectory pair, got {pairs}")
    if initial_pairs is None:
        X0, Y0 = _draw_pairs(model, act, pairs, seed)
    Z = np.hstack([X0, Y0])  # (n, 2 * pairs)
    f = model.field(act)
    w = _weights_or_ones(cert.weights, model.n)
    norm = kernels(cert.family)[1]
    max_jacobian_mu = _max_jacobian_mu(model, act, cert.family, w)
    stiffness = float(np.max(-check_model(model).diagonal_floor()))
    euler = cert.family in (L1, LINF) and step * stiffness < 1.0
    # A floor of -inf (unbounded slopes, some a_ii < 0) first tries the euler
    # scheme under the floor of the slopes that each block visits.
    attempt = (cert.family in (L1, LINF) and stiffness == math.inf
               and not act.slopes().bounded)
    # Log of the claimed per-step factor 1 - step * rate of the euler scheme.
    h_rate = step * cert.rate
    log_factor = -math.inf if h_rate >= 1.0 else math.log1p(-h_rate)
    block = _block_steps(Z.size)
    D = np.empty((block + 1, model.n, pairs))

    def visited(F):
        """Whether step * max_i(-floor_i) < 1 at the floor over the slopes
        up to those at the largest activation input of the "from" states F,
        (m, n, k).  A NaN or inf floor fails."""
        cap = act.deriv(model._input_max(F))
        return step * float(np.max(-model.diagonal_floor(cap))) < 1.0

    def run(euler, checked=False):
        """(worst ratio, max sampled mu) on one scheme.  A `checked` run
        returns None at the first block whose "from" states fail `visited`."""
        worst = math.inf if euler and h_rate >= 1.0 else 0.0
        max_mu = -np.inf
        advance = _euler_step if euler else _rk4_step
        for i, S in _state_blocks(f, advance, Z, n_steps, step, block):
            if checked and not visited(S[:-1]):
                return None
            lo = 0 if i == 0 else 1  # instant 0 is checked with the first block
            dist = norm(np.subtract(S[lo:, :, :pairs], S[lo:, :, pairs:], out=D[:len(S) - lo]), w)
            # A non-finite entry of a state makes its pair's distance non-finite.
            diverged = None if np.isfinite(dist).all() else _first_nonfinite(S)
            if diverged is None and log_d0.size:
                t = np.arange(i + lo, i + len(S))
                if euler:
                    log_bound = np.where(t > 0, t * log_factor, 0.0)
                else:
                    log_bound = -cert.rate * (t * step)
                ratio = _worst_ratio(dist[:, live], log_d0, log_bound)
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
        result = None
        if attempt:
            # A divergence or a non-finite sampled Jacobian discards the
            # attempt too; the rk4 run then raises as it would alone.
            try:
                result = run(True, checked=True)
            except (DivergenceError, ValueError):
                pass
            euler = result is not None
        if result is None:
            result = run(euler)
    return SimReport(
        worst_decay_ratio=result[0],
        max_sampled_mu=result[1],
        pairs=pairs,
        horizon=horizon,
        step=step,
        seed=seed,
        scheme="euler" if euler else "rk4",
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
    (a bool is not an integer here).
    """
    _check_integers(("samples", samples, 0), ("seed", seed, 0))
    _check_act(model, act)
    check_model(model)
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
