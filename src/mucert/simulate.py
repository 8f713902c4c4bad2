"""Activation functions, fixed-step integration of the network models, and
empirical verification of contraction certificates.

Each model supplies its own vector field (`field`, built once per integration
or verification as a closure over column-stacked states) and Jacobian
(`jacobian`); this module only steps, samples and measures.

Verification integrates random trajectory pairs and checks the decay bound
``||x(t) - y(t)|| <= exp(-rate t) ||x(0) - y(0)||`` in the certificate's
weighted norm, with a small allowance for integration error.  Pairs draw from
seed-derived substreams, so reports are reproducible at any parallelism.

Cost model of `verify_contraction`: the 2 * pairs trajectories advance as one
(n, 2 * pairs) stack.  Each RK4 step makes 4 field evaluations on the stack
and one decay-ratio check, one weighted norm per pair, which also detects a
non-finite state.  Every `mu_sample_stride` steps one Jacobian log norm is
taken per trajectory.  The certificate's weights are validated once per run;
the step loop calls the unchecked log-norm kernels.
"""

from dataclasses import dataclass

import numpy as np

from .lognorm import SlopeInterval, kernels
from .matrices import as_weights
from .networks import ContractionCertificate, check_model

DECAY_RATIO_ALLOWANCE = 1e-3  # integration-error headroom on the decay bound
KINK_NUDGE = 1e-12

_KINDS = ("relu", "leaky_relu", "tanh", "sigmoid", "rect_poly", "linear")


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
        if self.kind not in _KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "leaky_relu":
            if self.a is None or not (0.0 < self.a < 1.0):
                raise ValueError("leaky_relu needs a slope parameter a in (0, 1)")
        if self.kind == "rect_poly":
            if self.r is None or int(self.r) < 2 or int(self.r) != self.r:
                raise ValueError("rect_poly needs an integer exponent r >= 2")
        if self.kind == "linear":
            if self.k is None or not np.isfinite(self.k):
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
    return check_model(model).jacobian(act, np.asarray(x, dtype=float))


def _jacobian_mu(model, act, x, mu, w) -> float:
    """Log norm kernel `mu` at weights `w` of the Jacobian at state x."""
    J = model.jacobian(act, x)
    if not np.isfinite(J).all():
        raise ValueError("matrix entries must be finite")
    return mu(J, w)


def _rk4_step(f, X, h):
    """X + (h/6)(k1 + 2 k2 + 2 k3 + k4), combined in place in that order;
    `f` must return a fresh array."""
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
    k1 += X
    return k1


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
    x0 = np.asarray(x0, dtype=float)
    f = model.field(act)
    X = x0.reshape(-1, 1).astype(float)
    out = np.empty((n_steps + 1, x0.size))
    out[0] = X[:, 0]
    # Divergence is detected and reported, so intermediate overflow is expected.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            X = _rk4_step(f, X, step)
            if not np.all(np.isfinite(X)):
                raise DivergenceError(i * step)
            out[i] = X[:, 0]
    return np.arange(n_steps + 1) * step, out


@dataclass(frozen=True)
class SimReport:
    """Empirical check of a decay bound over sampled trajectory pairs.

    `worst_decay_ratio` is the max over pairs and sample times of
    ||difference(t)|| / (exp(-rate t) ||difference(0)||) in the certified
    weighted norm; `max_sampled_mu` is the largest weighted Jacobian log norm
    seen along the trajectories.
    """

    worst_decay_ratio: float
    max_sampled_mu: float
    pairs: int
    horizon: float
    step: float
    seed: int

    @property
    def passed(self) -> bool:
        return self.worst_decay_ratio <= 1.0 + DECAY_RATIO_ALLOWANCE


def _draw_pairs(model, act, pairs, seed, scale=3.0):
    n = model.n
    cols = []
    for p in range(pairs):
        rng = np.random.default_rng([seed, p])
        x = rng.normal(scale=scale, size=n)
        y = rng.normal(scale=scale, size=n)
        if act.kind == "rect_poly":
            # Unbounded slopes: keep starts in the unit inf-ball.
            x = x / max(1.0, np.max(np.abs(x)))
            y = y / max(1.0, np.max(np.abs(y)))
        cols.append((x, y))
    X0 = np.stack([c[0] for c in cols], axis=1)
    Y0 = np.stack([c[1] for c in cols], axis=1)
    return X0, Y0


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
    """Integrate random trajectory pairs and measure the worst decay ratio
    against the certificate's rate, in the certificate's weighted norm.

    Identical endpoints contribute ratio 0 by convention.  The report passes
    iff the worst ratio stays within the integration-error allowance of 1.
    `initial_pairs` optionally supplies the endpoints directly as a pair of
    (n, pairs) arrays instead of drawing them from the seed.  Raises
    ValueError unless the horizon and step are finite and positive, at least
    one step fits, there is at least one pair, and the seed is nonnegative.
    """
    if not cert.contracting:
        raise ValueError("certificate does not assert contraction")
    _check_act(model, act)
    if act.kind == "rect_poly":
        step = 0.5 * step
    n_steps = _step_count(horizon, step)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")

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
    w = np.ones(model.n) if cert.weights is None else as_weights(cert.weights, model.n)
    mu, norm = kernels(cert.family)
    check_model(model)

    d0 = norm(X0 - Y0, w)
    live = d0 > 0.0
    d0_live = d0[live]
    worst = 0.0
    max_mu = -np.inf
    # Divergence is detected and reported, so intermediate overflow is expected.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps + 1):
            if i > 0:
                Z = _rk4_step(f, Z, step)
            nrm = norm(Z[:, :pairs] - Z[:, pairs:], w)
            # A non-finite entry of Z makes its pair's norm non-finite.
            if i > 0 and not np.isfinite(nrm).all() and not np.isfinite(Z).all():
                raise DivergenceError(i * step)
            if d0_live.size:
                ratios = nrm[live] / (np.exp(-cert.rate * (i * step)) * d0_live)
                worst = max(worst, float(ratios.max()))
            if i % mu_sample_stride == 0:
                for x in Z.T:
                    max_mu = max(max_mu, _jacobian_mu(model, act, x, mu, w))
    return SimReport(
        worst_decay_ratio=worst,
        max_sampled_mu=max_mu,
        pairs=pairs,
        horizon=horizon,
        step=step,
        seed=seed,
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

    States draw normal entries at the given scale.  A coordinate landing
    exactly on an activation kink is nudged by 1e-12 rather than skipped; the
    nudge count is available via with_stats=True.  Zero samples return -inf.
    """
    _check_act(model, act)
    check_model(model)
    w = np.ones(model.n) if weights is None else as_weights(weights, model.n)
    mu = kernels(family)[0]
    rng = np.random.default_rng(seed)
    kinks = act.kinks()
    nudged = 0
    best = -np.inf
    for _ in range(samples):
        x = rng.normal(scale=scale, size=model.n)
        for kink in kinks:
            hit = x == kink
            if np.any(hit):
                nudged += int(np.sum(hit))
                x = np.where(hit, x + KINK_NUDGE, x)
        best = max(best, _jacobian_mu(model, act, x, mu, w))
    if with_stats:
        return best, nudged
    return best
