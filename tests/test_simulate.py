import dataclasses
import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mucert import (
    L1,
    L2,
    LINF,
    Activation,
    AxMinusCPhi,
    DivergenceError,
    Entrywise,
    FiringRate,
    Hopfield,
    Lure,
    MultiLure,
    Persidskii,
    SlopeInterval,
    certify,
    fixed_weight_osl,
    integrate,
    jacobian,
    log_norm,
    optimal_certificate,
    sample_jacobian_mu,
    slope_bounds,
    verify_contraction,
    weighted_norm,
)

import mucert.simulate as simulate
from mucert.simulate import ACTIVATIONS, _draw_pairs, _rk4_advance

from helpers import acceptance_fixtures, field_at


def test_slope_bounds_declared_intervals():
    assert slope_bounds(Activation("relu")) == SlopeInterval(0.0, 1.0)
    assert slope_bounds(Activation("leaky_relu", a=0.2)) == SlopeInterval(0.2, 1.0)
    assert slope_bounds(Activation("tanh")) == SlopeInterval(0.0, 1.0)
    assert slope_bounds(Activation("sigmoid")) == SlopeInterval(0.0, 0.25)
    assert slope_bounds(Activation("rect_poly", r=2)) == SlopeInterval(0.0, np.inf)
    assert slope_bounds(Activation("linear", k=-0.7)) == SlopeInterval(-0.7, -0.7)


# Sample values of every parameter that a kind in `ACTIVATIONS` takes.
SAMPLE_PARAMS = {"a": (0.01, 0.3, 0.99), "r": (2, 3, 5), "k": (-2.0, 0.0, 0.5)}


def _every_kind():
    """An `Activation` of every kind in the table at each sample of its parameters."""
    acts = []
    for kind, spec in ACTIVATIONS.items():
        for values in itertools.product(*(SAMPLE_PARAMS[p] for p in spec.params)):
            acts.append(Activation(kind, **dict(zip(spec.params, values))))
    return acts


def test_slope_bounds_match_difference_quotients():
    xs = np.linspace(-6.0, 6.0, 2001)
    acts = (
        Activation("relu"),
        Activation("leaky_relu", a=0.3),
        Activation("tanh"),
        Activation("sigmoid"),
        Activation("rect_poly", r=2),
        Activation("rect_poly", r=3),
        Activation("linear", k=-0.7),
        Activation("linear", k=1.5),
    )
    assert {act.kind for act in acts} == set(ACTIVATIONS)
    for act in acts:
        lo, hi = act.slopes().d1, act.slopes().d2
        vals = act(xs)
        quot = np.diff(vals) / np.diff(xs)
        assert np.all(quot >= lo - 1e-9)
        assert np.all(quot <= hi + 1e-9)
        if act.slopes().bounded:  # rect_poly's interval bounds its quotients only below
            # upper bound is approached somewhere on the grid
            assert np.max(quot) >= hi - 0.05 * max(1.0, hi)
        if act.kind == "linear":
            assert np.allclose(quot, act.k, rtol=1e-9, atol=0.0)


def test_unbounded_kinds_have_nondecreasing_derivatives():
    # verify caps the slopes that an unbounded activation visits by its
    # derivative at the largest input reached: that bounds every slope below
    # it only where the derivative is nondecreasing, which each such kind in
    # the table must keep, over signed zeros, subnormals and overflow.
    tiny = np.finfo(float).tiny
    specials = [-np.inf, -1e308, -1.0, -tiny, -5e-324, -0.0, 0.0, 5e-324, 3e-320, tiny, 1e-10,
                1.0, 1e103, 1e154, 1e308, np.finfo(float).max, np.inf]
    draws = np.random.default_rng(5).normal(scale=4.0, size=200)
    grid = np.sort(np.concatenate([specials, draws]))
    unbounded = [act for act in _every_kind() if not act.slopes().bounded]
    assert unbounded
    with np.errstate(over="ignore"):
        for act in unbounded:
            slope = act.deriv(grid)
            assert np.all(slope[1:] >= slope[:-1]), act


def test_activation_validation():
    with pytest.raises(ValueError):
        Activation("step")
    with pytest.raises(ValueError):
        Activation("leaky_relu", a=1.5)
    with pytest.raises(ValueError):
        Activation("rect_poly", r=1)
    with pytest.raises(ValueError):
        Activation("linear")


def test_activation_rejects_foreign_and_non_numeric_parameters():
    for kind, params, message in (
        ("tanh", {"r": 3, "a": 7.0}, "tanh takes no parameter a"),
        ("relu", {"k": 1.0}, "relu takes no parameter k"),
        ("linear", {"k": 1.0, "r": 2}, "linear takes no parameter r"),
        ("rect_poly", {"r": 2, "a": 0.5}, "rect_poly takes no parameter a"),
        ("leaky_relu", {"a": "0.5"}, "slope parameter a "),
        ("leaky_relu", {"a": True}, "slope parameter a "),
        ("linear", {"k": "0.5"}, "gain k"),
        ("linear", {"k": [0.5]}, "gain k"),
        ("rect_poly", {"r": "2"}, "exponent r "),
    ):
        with pytest.raises(ValueError, match=message):
            Activation(kind, **params)
    assert Activation("linear", k=np.float64(0.5)).k == 0.5
    assert Activation("rect_poly", r=np.int64(3)).r == 3


def _textbook_activation(act, x):
    """Each kind's activation as the plain expression, allocating as it goes."""
    if act.kind == "relu":
        return np.maximum(x, 0.0)
    if act.kind == "leaky_relu":
        return np.where(x >= 0.0, x, act.a * x)
    if act.kind == "tanh":
        return np.tanh(x)
    if act.kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    if act.kind == "rect_poly":
        return np.maximum(x, 0.0) ** int(act.r)
    return act.k * x


def _textbook_deriv(act, x):
    """Each kind's derivative as the plain expression: 1 right of the kink
    (else 0, or a for leaky_relu, NaN included), 1 - tanh^2, s (1 - s) at the
    sigmoid s, r max(x, 0)^(r - 1) and the gain k everywhere."""
    if act.kind == "relu":
        return np.where(x > 0.0, 1.0, 0.0)
    if act.kind == "leaky_relu":
        return np.where(x > 0.0, 1.0, act.a)
    if act.kind in ("tanh", "sigmoid"):
        s = _textbook_activation(act, x)
        return 1.0 - s * s if act.kind == "tanh" else s * (1.0 - s)
    if act.kind == "rect_poly":
        return int(act.r) * np.maximum(x, 0.0) ** (int(act.r) - 1)
    return np.full(x.shape, float(act.k))


def test_activation_kernels_match_the_textbook_expressions_bit_for_bit():
    # The in-place kernels and the derivatives against the plain expressions,
    # sign bits and NaN payloads included (int64 views), on the kinks, signed
    # zeros, subnormals, exp's overflow edge, the largest floats, infinities
    # and NaNs.  leaky_relu is max(x, a x), which is exact for 0 < a < 1.
    tiny = np.finfo(float).tiny
    specials = [0.0, -0.0, 5e-324, -5e-324, 3e-320, -3e-320, tiny, -tiny, 0.5, -0.5, 1.0, -1.0,
                2.0, -2.0, 709.0, -709.0, 710.0, -710.0, 1e308, -1e308, np.finfo(float).max,
                -np.finfo(float).max, np.inf, -np.inf, np.nan, -np.nan]
    grid = np.concatenate([specials, np.random.default_rng(3).normal(scale=4.0, size=100)])
    acts = [Activation("relu"), Activation("tanh"), Activation("sigmoid")]
    acts += [Activation("leaky_relu", a=a) for a in (0.01, 0.3, 0.99)]
    acts += [Activation("rect_poly", r=r) for r in (2, 3, 5)]
    acts += [Activation("linear", k=k) for k in (-2.0, 0.0, 0.5)]
    assert {act.kind for act in acts} == set(ACTIVATIONS)
    with np.errstate(all="ignore"):
        for act in acts:
            for x in (grid, grid.reshape(2, 3, -1)):
                want = _textbook_activation(act, x).view(np.int64)
                out = np.full(x.shape, 7.0)
                assert act(x, out=out) is out
                assert np.array_equal(out.view(np.int64), want), act
                assert np.array_equal(act(x).view(np.int64), want), act
                slope = _textbook_deriv(act, x).view(np.int64)
                assert np.array_equal(act.deriv(x).view(np.int64), slope), act


def test_integrate_linear_decoupled_decay():
    m = Hopfield(np.eye(2), np.zeros((2, 2)), SlopeInterval(0.0, 1.0))
    x0 = np.array([1.0, -2.0])
    ts, xs = integrate(m, Activation("tanh"), x0, horizon=1.0, step=1e-3)
    assert len(ts) == 1001
    np.testing.assert_allclose(xs[-1], np.exp(-1.0) * x0, atol=1e-6)


def test_integrate_holds_equilibrium():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3)) * 0.3
    C = np.diag(rng.uniform(0.5, 1.5, size=3))
    act = Activation("tanh")
    x_star = rng.normal(size=3)
    u = C @ x_star - A @ np.tanh(x_star)
    m = Hopfield(C, A, SlopeInterval(0.0, 1.0), u=u)
    _, xs = integrate(m, act, x_star, horizon=2.0, step=1e-3)
    assert np.max(np.abs(xs - x_star)) <= 1e-9


def test_integrate_fourth_order_convergence():
    m = Hopfield(
        np.eye(2), [[0.0, 0.9], [-0.8, 0.0]], SlopeInterval(0.0, 1.0), u=[0.3, -0.1]
    )
    act = Activation("tanh")
    x0 = np.array([1.2, -0.7])

    def endpoint(h):
        _, xs = integrate(m, act, x0, horizon=1.0, step=h)
        return xs[-1]

    ref = endpoint(0.1 / 8.0)
    err_h = np.linalg.norm(endpoint(0.1) - ref)
    err_h2 = np.linalg.norm(endpoint(0.05) - ref)
    ratio = err_h / err_h2
    assert 10.0 <= ratio <= 25.0  # fourth order gives ~16


def test_integrate_reports_divergence():
    m = Hopfield(
        np.zeros((2, 2)), 5.0 * np.ones((2, 2)), SlopeInterval(0.0, np.inf)
    )
    act = Activation("rect_poly", r=2)
    with pytest.raises(DivergenceError) as info:
        integrate(m, act, [2.0, 2.0], horizon=5.0, step=1e-2)
    assert info.value.time > 0.0


def test_integrate_rejects_slope_mismatch():
    m = Hopfield(np.eye(2), np.zeros((2, 2)), SlopeInterval(0.0, 0.5))
    with pytest.raises(ValueError):
        integrate(m, Activation("tanh"), [1.0, 1.0], horizon=1.0, step=1e-2)


def test_verify_contraction_certified_fixture():
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    cert = optimal_certificate(m, L1)
    report = verify_contraction(m, Activation("tanh"), cert, pairs=10, horizon=3.0, step=1e-3, seed=1)
    assert report.passed
    assert report.worst_decay_ratio <= 1.001
    assert report.max_sampled_mu <= cert.osl + 1e-9
    assert report.seed == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"horizon": -1.0},
        {"horizon": np.inf},
        {"horizon": np.nan},
        {"horizon": 1e-4},  # shorter than one step
        {"step": np.inf},
        {"step": 0.0},
        {"horizon": 1e300, "step": 1e-300},  # more steps than a float can count
        {"pairs": 0},
        {"initial_pairs": (np.zeros((2, 0)), np.zeros((2, 0)))},
        {"seed": -1},
    ],
)
def test_verify_and_integrate_reject_runs_that_simulate_nothing(kwargs):
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    act = Activation("tanh")
    cert = optimal_certificate(m, L1)
    with pytest.raises(ValueError):
        verify_contraction(m, act, cert, **kwargs)
    span = {k: kwargs[k] for k in ("horizon", "step") if k in kwargs}
    if span:
        with pytest.raises(ValueError):
            integrate(m, act, [1.0, 1.0], **{"horizon": 1.0, "step": 1e-3, **span})


@pytest.mark.parametrize("stride", [0, -7, 1.5, True])
def test_verify_rejects_bad_mu_sample_stride_before_any_work(stride, monkeypatch):
    # Stride 0 used to raise ZeroDivisionError mid-run, and a negative stride
    # sampled at its multiples.  The check precedes every other one.
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    cert = dataclasses.replace(optimal_certificate(m, L1), contracting=False)

    def no_work(*args):
        raise AssertionError("verify drew its pairs")

    monkeypatch.setattr(simulate, "_draw_pairs", no_work)
    with pytest.raises(ValueError, match="mu_sample_stride must be an integer >= 1"):
        verify_contraction(m, Activation("tanh"), cert, mu_sample_stride=stride)


@pytest.mark.parametrize("name, value", [("pairs", 2.5), ("pairs", True), ("pairs", 0),
                                         ("seed", True), ("seed", 1.0), ("seed", -1)])
def test_verify_rejects_bad_pairs_and_seed_before_any_work(name, value, monkeypatch):
    # pairs=2.5 used to raise TypeError inside numpy, and seed=True ran as
    # seed 1.  Both now take the mu_sample_stride rule, checked up front.
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    cert = dataclasses.replace(optimal_certificate(m, L1), contracting=False)

    def no_work(*args):
        raise AssertionError("verify drew its pairs")

    monkeypatch.setattr(simulate, "_draw_pairs", no_work)
    with pytest.raises(ValueError, match=f"{name} must be an integer >= {int(name == 'pairs')}"):
        verify_contraction(m, Activation("tanh"), cert, **{name: value})


@pytest.mark.parametrize("name, value", [("samples", 2.5), ("samples", True), ("samples", -1),
                                         ("seed", True), ("seed", -1)])
def test_sample_jacobian_mu_rejects_bad_samples_and_seed_before_any_work(name, value,
                                                                         monkeypatch):
    # samples=2.5 and samples=True used to raise numpy's TypeError, and
    # seed=True ran as seed 1.  They take verify's integer rule, up front.
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))

    def no_work(*args, **kwargs):
        raise AssertionError("sample_jacobian_mu drew its states")

    monkeypatch.setattr(np.random, "default_rng", no_work)
    kwargs = {"samples": 3, "seed": 0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
        sample_jacobian_mu(m, Activation("tanh"), family=L1, **kwargs)


@pytest.mark.parametrize("entry", ["certify", "jacobian", "fixed_weight_osl",
                                   "verify_contraction", "sample_jacobian_mu", "integrate"])
def test_every_entry_point_refuses_a_non_model_with_type_error(entry):
    # verify_contraction, sample_jacobian_mu and integrate used to raise
    # AttributeError ('object' has no attribute 'slopes'); all six refuse a
    # non-model as certify does.
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    act, cert = Activation("tanh"), certify(m, L1)
    call = {
        "certify": lambda model: certify(model),
        "jacobian": lambda model: jacobian(model, act, np.zeros(2)),
        "fixed_weight_osl": lambda model: fixed_weight_osl(model, L1, np.ones(2)),
        "verify_contraction": lambda model: verify_contraction(model, act, cert, pairs=2,
                                                               horizon=0.01),
        "sample_jacobian_mu": lambda model: sample_jacobian_mu(model, act, 3, L1),
        "integrate": lambda model: integrate(model, act, np.zeros(2), 0.01, 1e-3),
    }[entry]
    call(m)
    for bad in (object(), None, {"model": "hopfield"}):
        with pytest.raises(TypeError, match=f"^unsupported model type {type(bad).__name__}$"):
            call(bad)


@pytest.mark.parametrize("shape", [(6, 4), (4, 2, 3), (), (3,), (5, 2)])
def test_verify_rejects_misshapen_initial_pairs_before_any_work(shape, monkeypatch):
    # At n = 4 a pairs-major (6, 4) array, or a (4, 2, 3) one, holds 24
    # entries that a reshape to (4, -1) would scramble into 6 pairs.  Only
    # (n,) and (n, pairs) arrays are start states.
    n = 4
    m = Hopfield(np.eye(n), 0.1 * np.ones((n, n)), SlopeInterval(0.0, 1.0))
    cert = certify(m, L1)
    act = Activation("tanh")
    X = np.arange(n, dtype=float)
    one = verify_contraction(m, act, cert, horizon=0.1, initial_pairs=(X, 0.5 * X))
    assert one == verify_contraction(m, act, cert, horizon=0.1,
                                     initial_pairs=(X[:, None], 0.5 * X[:, None]))

    def no_work(*args):
        raise AssertionError("verify stepped")

    monkeypatch.setattr(simulate, "_state_blocks", no_work)
    bad = np.ones(shape)
    for pair in ((bad, bad), (X, bad), (bad, X)):
        with pytest.raises(ValueError, match=r"initial pair arrays must both have shape \(4,\)"):
            verify_contraction(m, act, cert, initial_pairs=pair)


def test_integrate_rejects_a_start_that_is_not_a_finite_vector_of_length_n():
    # A NaN start is refused up front, not reported as a divergence at
    # t = step, and a wrong length by name, not by numpy's matmul message.
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    for x0, match in (([np.nan, 1.0], "finite"), ([1.0, 2.0, 3.0], "length 2"),
                      (np.ones((2, 1)), "expected a vector")):
        with pytest.raises(ValueError, match=match):
            integrate(m, Activation("tanh"), x0, horizon=1.0, step=1e-2)


def test_integrate_matches_the_rk4_reference_bit_for_bit():
    for model, act in _oracle_cases():
        x0 = _draw_pairs(model, act, 1, 4)[0][:, 0]
        times, xs = integrate(model, act, x0, horizon=0.3, step=1e-3)
        f, want = _reference_field(model, act), [x0[:, None]]
        for _ in range(300):
            want.append(_reference_rk4(f, want[-1], 1e-3))
        assert np.array_equal(times, np.arange(301) * 1e-3)
        assert np.array_equal(xs.view(np.int64), np.hstack(want).T.view(np.int64))


def test_drawn_pairs_match_per_pair_draws_bit_for_bit():
    # Pair p draws x, then y, from substream [seed, p]; under unbounded
    # slopes each start is divided by max(1, its largest magnitude).
    for n, pairs, seed in ((1, 1, 0), (3, 4, 2), (17, 20, 9)):
        model = Hopfield(np.eye(n), np.zeros((n, n)), SlopeInterval(0.0, np.inf))
        for act in (Activation("tanh"), Activation("rect_poly", r=2)):
            X0, Y0 = _draw_pairs(model, act, pairs, seed)
            for p in range(pairs):
                rng = np.random.default_rng([seed, p])
                for got in (X0[:, p], Y0[:, p]):
                    want = rng.normal(scale=3.0, size=n)
                    if not act.slopes().bounded:
                        want = want / max(1.0, np.max(np.abs(want)))
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert X0.shape == Y0.shape == (n, pairs)


def test_verify_contraction_identical_pair_convention():
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    cert = optimal_certificate(m, L1)
    x0 = np.array([[1.0], [2.0]])
    report = verify_contraction(
        m, Activation("tanh"), cert, horizon=0.5, step=1e-2, initial_pairs=(x0, x0)
    )
    assert report.worst_decay_ratio == 0.0


def test_verify_contraction_non_finite_pair_cannot_hide_a_failure():
    # A zero field keeps every pair at its start, so on the euler scheme the
    # decay ratio at step k is (1 - step rate)^-k and one finite pair fails.
    # A second pair at +-1e308 has an infinite start distance; its inf/inf =
    # NaN ratio used to be dropped by max(), hiding the failing pair: the
    # report read 0.0 and passed.
    m = Hopfield(np.zeros((2, 2)), np.zeros((2, 2)), SlopeInterval(0.0, 1.0))
    stable = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    cert = dataclasses.replace(optimal_certificate(stable, L1), rate=1.0)
    act = Activation("tanh")
    X0, Y0 = np.array([[1.0], [0.5]]), np.zeros((2, 1))
    report = verify_contraction(m, act, cert, horizon=1.0, step=1e-2, initial_pairs=(X0, Y0))
    assert report.scheme == "euler"
    assert report.worst_decay_ratio == pytest.approx(0.99**-100, rel=1e-12)
    assert not report.passed
    far = np.array([[1e308], [0.0]])
    for bad in (far, np.array([[np.nan], [0.0]]), np.array([[np.inf], [0.0]])):
        with pytest.raises(ValueError, match="pair 1"):
            verify_contraction(
                m, act, cert, horizon=1.0, step=1e-2,
                initial_pairs=(np.hstack([X0, bad]), np.hstack([Y0, -far])),
            )
    # A NaN ratio fails the report instead of being dropped.
    nan_rate = dataclasses.replace(cert, rate=np.nan)
    report = verify_contraction(m, act, nan_rate, horizon=1.0, step=1e-2, initial_pairs=(X0, Y0))
    assert np.isnan(report.worst_decay_ratio)
    assert not report.passed


def test_verify_contraction_zero_distance_meets_an_underflowed_bound():
    # Step 1e-2 breaks 200 h < 1 and runs at 2.5e-3, where the bound
    # (1 - 0.25)^k d0 falls below the smallest normal float from k = 2462 on.
    # The two trajectories stall one ulp apart at the equilibrium u / 200,
    # within the rounding allowance, so that distance counts as 0.  At step
    # 4e-3 they merge bit for bit by step 27.  A zero distance meets any
    # bound, so either report passes with its t = 0 ratio.
    m = Hopfield(200.0 * np.eye(2), np.zeros((2, 2)), SlopeInterval(0.0, 1.0), u=[1.0, 1.0])
    cert = dataclasses.replace(optimal_certificate(m, L1), rate=100.0)
    X0, Y0 = np.array([[1.0], [0.5]]), np.zeros((2, 1))
    for step, ran in ((1e-2, 2.5e-3), (4e-3, 4e-3)):
        report = verify_contraction(
            m, Activation("tanh"), cert, horizon=10.0, step=step, initial_pairs=(X0, Y0)
        )
        assert report.step == ran
        assert report.worst_decay_ratio == 1.0  # at t = 0
        assert report.passed


def test_verify_contraction_negative_control():
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    cert = optimal_certificate(m, L1)
    doubled = dataclasses.replace(cert, rate=2.0 * cert.rate)
    report = verify_contraction(m, Activation("tanh"), doubled, pairs=10, horizon=3.0, step=1e-3, seed=1)
    assert report.worst_decay_ratio > 1.001


def test_verify_scheme_follows_family_floor_and_step():
    # Every report runs the Euler scheme at a step that meets the floor
    # condition.  The diagonal floor of this model is -1 - 0.2 = -1.2, so
    # alpha* = 1 / 1.2: step 0.8 runs as asked in l1 and linf, and 0.85
    # (0.85 * 1.2 >= 1) is halved to 0.425.  An l2 certificate has no exact
    # Euler bound and is refused before any work.
    m = Hopfield(np.eye(2), [[-0.2, 0.4], [0.3, 0.1]], SlopeInterval(0.0, 1.0))
    act = Activation("tanh")
    l1, linf = certify(m, L1), certify(m, LINF)
    l2 = dataclasses.replace(l1, family=L2, weights=np.ones(2))

    def run(model, act, cert, step):
        report = verify_contraction(model, act, cert, pairs=2, horizon=4.0 * step, step=step)
        assert report.scheme == "euler"
        return report

    for cert, step, ran in ((l1, 0.8, 0.8), (linf, 0.8, 0.8), (l1, 0.85, 0.425)):
        report = run(m, act, cert, step)
        assert report.step == ran and report.passed
    with pytest.raises(ValueError, match="l1 and linf"):
        run(m, act, l2, 0.8)
    # Unbounded slopes: a negative a_ii has box floor -inf, so each block
    # checks the floor of the slopes it visits, -c_i + a_ii * 2 max(x_i, 0)
    # for rect_poly(2).  Starts in the unit inf-ball meet it at the default
    # step.  Starts at x <= 0 stay there (the field is -C x) and visit slope
    # 0: the halved step 0.45 gives 0.45 * 2 < 1.  A start at x_2 = 0.5
    # visits slope 1: 0.45 * (2 + 0.5) >= 1, so the run restarts at 0.225.
    poly = Activation("rect_poly", r=2)
    unbounded = SlopeInterval(0.0, np.inf)
    model = Hopfield(np.diag([1.0, 2.0]), [[-0.5, 0.3], [0.3, -0.5]], unbounded)
    cert = certify(model)
    assert verify_contraction(model, poly, cert, pairs=2).step == 5e-4
    Y0 = np.array([[-0.5], [-0.5]])
    for x2, ran in ((-1.0, 0.45), (0.5, 0.225)):
        X0 = np.array([[-1.0], [x2]])
        report = verify_contraction(model, poly, cert, horizon=3.6, step=0.9,
                                    initial_pairs=(X0, Y0))
        assert (report.scheme, report.step) == ("euler", ran) and report.passed
    # A zero a_ii has floor -c_i (0 * inf = 0).  rect_poly halves the step,
    # and the floor rule takes the halved step from there: 0.9 / 2 * 2 < 1,
    # and 1.0 / 2 * 2 >= 1 runs at 0.25.
    model = Hopfield(np.diag([1.0, 2.0]), [[0.0, 0.3], [0.3, 0.0]], unbounded)
    assert run(model, poly, l1, 0.9).step == 0.45
    assert run(model, poly, l1, 1.0).step == 0.25


def test_verify_euler_scheme_passes_a_stiff_certificate():
    # Perron l1 certificate of rate 199.65 on a floor of -200.  At step 1e-3
    # the claimed factor is 1 - 0.19965 per step, and by horizon 5 the bound
    # (1 - h rate)^k d0 lies far below the smallest float; distances below the
    # smallest normal float count as 0.  Step 1e-2 breaks 200 h < 1 and runs
    # at 2.5e-3.
    m = Hopfield(200.0 * np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    cert = certify(m, L1)
    assert cert.rate == pytest.approx(199.65, abs=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for horizon, step, ran in ((1.0, 1e-3, 1e-3), (5.0, 1e-3, 1e-3), (5.0, 1e-2, 2.5e-3)):
            report = verify_contraction(m, Activation("tanh"), cert, horizon=horizon,
                                        step=step)
            assert (report.scheme, report.step) == ("euler", ran)
            assert report.passed, (horizon, step)


def test_verify_rounding_allowance_passes_a_stiff_certificate_at_a_nonzero_equilibrium():
    # With u = [1, 1] the states settle at an equilibrium near u / 200, where
    # each step rounds at the scale of the states, and the pair distances
    # stop following (1 - h rate)^k d0 within about 170 steps: without the
    # rounding allowance the true certificate read worst ratio 31.0 at
    # horizon 0.2 and step 1e-3.
    # A distance that fails the bound is checked again net of the allowance;
    # then every report passes (at step 1e-3 the worst ratio, 1.00078, is a
    # distance within the relative headroom), and overclaims by 1e-2 and 1e-3
    # of the rate still fail, on distances far above the allowance.
    m = Hopfield(200.0 * np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0),
                 u=[1.0, 1.0])
    cert = certify(m, L1)
    act = Activation("tanh")
    for horizon, step in ((0.2, 1e-3), (0.5, 1e-3), (5.0, 1e-2)):
        assert verify_contraction(m, act, cert, horizon=horizon, step=step).passed
        for factor in (1.01, 1.001):
            overclaim = dataclasses.replace(cert, rate=factor * cert.rate)
            assert not verify_contraction(m, act, overclaim, horizon=horizon, step=step).passed


def test_verify_euler_scheme_fails_a_small_overclaim():
    # An n = 16 Hopfield model with A >= 0 and its Perron l1 certificate.
    # Starts near 0 along the right Perron vector with x - y >= 0 see the
    # linearisation -I + A, whose weighted l1 log norm is the certified osl, so
    # a 1e-2 relative overclaim of the rate shows on the exact euler bound.
    rng = np.random.default_rng(8)
    n = 16
    P = rng.uniform(size=(n, n))
    A = 0.5 * P / np.max(np.abs(np.linalg.eigvals(P)))
    m = Hopfield(np.eye(n), A, SlopeInterval(0.0, 1.0))
    cert = certify(m, L1)
    assert cert.theorem == "hopfield/l1/perron"
    vals, vecs = np.linalg.eig(A)
    v = np.abs(vecs[:, np.argmax(vals.real)].real)
    X0 = np.outer(v, [1e-3, 1e-4, 1e-6])
    Y0 = 0.5 * X0
    act = Activation("tanh")
    report = verify_contraction(m, act, cert, horizon=1.0, step=1e-3, initial_pairs=(X0, Y0))
    assert report.scheme == "euler" and report.passed
    over = dataclasses.replace(cert, rate=1.01 * cert.rate)
    report = verify_contraction(m, act, over, horizon=1.0, step=1e-3, initial_pairs=(X0, Y0))
    assert report.scheme == "euler" and not report.passed


def test_rounding_allowance_follows_the_summands_of_each_step():
    # The inputs u = -A act(0) 1 cancel at the equilibrium 0, where each step
    # adds summands of size h 300 = 0.3 to states near 0.  An allowance that
    # scaled with max |x_k| read worst ratio 5.1e7 at horizon 1 and 6.6e96 at
    # horizon 5 on this true certificate; one sized by the summands passes
    # both, and a 1.01x overclaim still fails, on distances far above it.
    m = Hopfield(200.0 * np.eye(2), [[0.0, 600.0], [600.0, 0.0]], SlopeInterval(0.0, 0.25),
                 u=[-300.0, -300.0])
    cert = certify(m, L1)
    assert cert.rate == 50.0
    act = Activation("sigmoid")
    over = dataclasses.replace(cert, rate=1.01 * cert.rate)
    for horizon in (1.0, 5.0):
        assert verify_contraction(m, act, cert, pairs=20, horizon=horizon, step=1e-3).passed
        assert not verify_contraction(m, act, over, pairs=20, horizon=horizon, step=1e-3).passed


def test_verify_euler_scheme_fails_a_claimed_factor_at_or_below_zero():
    # Floor -1 and step 1/4: the Euler map is (3/4) I + A / 4, which sends the
    # difference (1, -1) to exactly 0.  A claimed factor 1 - step * rate <= 0
    # is impossible below alpha*, so it fails even when every distance
    # collapses to 0, and it reads inf, not NaN.
    m = Hopfield(np.eye(2), [[0.0, 3.0], [3.0, 0.0]], SlopeInterval(1.0, 1.0))
    act = Activation("linear", k=1.0)
    stable = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    cert = certify(stable, L1)
    X0, Y0 = np.array([[1.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2))
    for starts in ((X0[:, :1], Y0[:, :1]), (X0, Y0)):
        for rate in (4.0, 5.0):
            report = verify_contraction(m, act, dataclasses.replace(cert, rate=rate),
                                        horizon=1.0, step=0.25, initial_pairs=starts)
            assert report.scheme == "euler"
            assert report.worst_decay_ratio == np.inf


def test_verify_contraction_requires_certificate():
    m = Hopfield(np.eye(2), [[0.0, 3.0], [3.0, 0.0]], SlopeInterval(0.0, 1.0))
    cert = optimal_certificate(m, L1)
    assert not cert.contracting
    with pytest.raises(ValueError):
        verify_contraction(m, Activation("tanh"), cert)


def test_decay_bound_only_guaranteed_in_certified_norm():
    # In a norm unrelated to the certificate the ratio may transiently exceed
    # one; this documents that observing such an excursion is not a failure.
    # The strongly non-normal feedforward gain produces a large transient in
    # the unweighted l2 norm while the skew-weighted l1 bound holds throughout.
    m = Hopfield(np.eye(2), [[0.0, 10.0], [0.0, 0.0]], SlopeInterval(0.0, 1.0))
    cert = optimal_certificate(m, L1)
    assert cert.contracting
    act = Activation("tanh")
    X0 = np.array([[0.0], [0.3]])
    Y0 = np.array([[0.0], [-0.3]])
    report = verify_contraction(
        m, act, cert, horizon=2.0, step=1e-3, initial_pairs=(X0, Y0)
    )
    assert report.passed  # certified norm obeys the bound

    Z = np.hstack([X0, Y0])
    advance, Y = _rk4_advance(m.euler_map(act, 1.0, 2, 0.0)[0], 1e-3, Z.shape), np.empty(Z.shape)
    d0 = weighted_norm((X0 - Y0)[:, 0], L2, None)
    worst_uncert = 0.0
    for i in range(1, 2001):
        advance(Z, Y)
        Z, Y = Y, Z
        d = weighted_norm((Z[:, 0] - Z[:, 1]), L2, None)
        worst_uncert = max(worst_uncert, d / (np.exp(-cert.rate * i * 1e-3) * d0))
    assert worst_uncert > 1.0  # the excursion this instance was chosen for


def test_sample_jacobian_mu_linear_activation_is_constant():
    m = Persidskii([[-2.0, 1.0], [1.0, -2.0]], SlopeInterval(0.5, 1.0))
    act = Activation("linear", k=0.7)
    w = np.array([1.0, 2.0])
    value = sample_jacobian_mu(m, act, 50, L1, w, seed=3)
    assert value == pytest.approx(log_norm(0.7 * m.A, L1, w), abs=1e-12)


def test_sample_jacobian_mu_bounded_by_certificate():
    for _, model, act, family in acceptance_fixtures():
        cert = certify(model, family)
        sampled = sample_jacobian_mu(model, act, 200, cert.family, cert.weights, seed=5)
        assert sampled <= cert.osl + 1e-9


def test_sample_jacobian_mu_empty_and_kinks(monkeypatch):
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    act = Activation("relu")
    assert sample_jacobian_mu(m, act, 0, L1) == -np.inf

    class ZeroRng:
        def normal(self, scale=1.0, size=None):
            return np.zeros(size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: ZeroRng())
    value, nudged = sample_jacobian_mu(m, act, 3, L1, with_stats=True)
    assert nudged == 6  # every coordinate of every sample sat on the kink
    assert value == pytest.approx(log_norm(jacobian(m, act, np.array([1e-12, 1e-12])), L1), abs=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(6)
    smooth_extra = [
        (
            AxMinusCPhi([[-1.0, 0.5], [0.3, -2.0]], np.diag([1.0, 0.5]), SlopeInterval(0.0, 1.0)),
            Activation("tanh"),
        ),
        # Entrywise needs d1 > 0, which no smooth nonlinear kind has; the field
        # and Jacobian ignore the declared slopes, so tanh still checks them.
        (
            Entrywise([[-2.0, 0.7], [-0.4, -1.5]], SlopeInterval(0.2, 1.0)),
            Activation("tanh"),
        ),
    ]
    cases = [(model, act) for _, model, act, _ in acceptance_fixtures()] + smooth_extra
    for model, act in cases:
        if act.kind in ("relu", "leaky_relu"):
            continue  # nonsmooth
        f = lambda x: field_at(model, act, x[:, None])[:, 0]
        x = rng.normal(size=model.n)
        J = jacobian(model, act, x)
        eps = 1e-6
        for j in range(model.n):
            e = np.zeros(model.n)
            e[j] = eps
            fd = (f(x + e) - f(x - e)) / (2 * eps)
            np.testing.assert_allclose(J[:, j], fd, atol=1e-6)


# Reference loops: the straightforward form, through the public validating
# norm, log-norm and Jacobian functions, with the diagonal leak applied as a
# dense matrix product.  The verification reference steps each model's fused
# forward-Euler map in its documented order (`_reference_euler`) and takes
# the decay ratio in log space, exp(log d_k - log d_0 - log bound_k), with
# bound_k = (1 - h rate)^k; a distance below the smallest normal float counts
# as 0.  The RK4 reference is `integrate`'s, on each model's vector field
# as the plain expression.
def _reference_field(model, act):
    if isinstance(model, Hopfield):
        C, A, u = model.C, model.A, model.u[:, None]
        return lambda X: -C @ X + A @ act(X) + u
    if isinstance(model, FiringRate):
        C, A, u = model.C, model.A, model.u[:, None]
        return lambda X: -C @ X + act(A @ X + u)
    if isinstance(model, AxMinusCPhi):
        A, C = model.A, model.C
        return lambda X: A @ X - C @ act(X)
    if isinstance(model, Persidskii):  # and Entrywise
        return lambda X: model.A @ act(X)
    if isinstance(model, Lure):
        A, b, c = model.A, model.b, model.c
        return lambda X: A @ X + b[:, None] * act(c @ X)[None, :]
    A, B, C = model.A, model.B, model.C
    return lambda X: A @ X + B @ act(C @ X)


def _reference_euler(model, act, h):
    """(E, T): the fused Euler map of an (n, k) stack in the order each model
    documents, with h folded into its matrices and broadcast columns, and the
    magnitudes of the summands it adds."""
    n = model.n
    if isinstance(model, (Hopfield, FiringRate, Persidskii)):
        c, u, A = np.diag(model.C)[:, None], model.u[:, None], model.A
        leak = 1.0 - h * c
    if isinstance(model, (Hopfield, Persidskii)):
        def E(X):  # the leak is X itself where C is zero; a zero u is left out
            Y = (h * A) @ act(X) + (leak * X if c.any() else X)
            return Y + h * u if u.any() else Y

        return E, lambda X: np.abs(h * A) @ np.abs(act(X)) + np.abs(leak) * np.abs(X) + np.abs(h * u)
    if isinstance(model, FiringRate):
        return (lambda X: leak * X + h * act(A @ X + u),
                lambda X: h * np.abs(act(A @ X + u)) + np.abs(leak) * np.abs(X))
    M = np.eye(n) + h * model.A
    if isinstance(model, AxMinusCPhi):
        hc = h * np.diag(model.C)[:, None]
        return (lambda X: M @ X - hc * act(X),
                lambda X: np.abs(M) @ np.abs(X) + np.abs(hc) * np.abs(act(X)))
    if isinstance(model, Lure):
        hb, c = h * model.b[:, None], model.c
        return (lambda X: M @ X + hb * act(c @ X)[None, :],
                lambda X: np.abs(M) @ np.abs(X) + np.abs(hb) * np.abs(act(c @ X))[None, :])
    hB, C = h * model.B, model.C
    return (lambda X: M @ X + hB @ act(C @ X),
            lambda X: np.abs(M) @ np.abs(X) + np.abs(hB) @ np.abs(act(C @ X)))


def _reference_rk4(f, X, h):
    k1 = f(X)
    k2 = f(X + 0.5 * h * k1)
    k3 = f(X + 0.5 * h * k2)
    k4 = f(X + h * k3)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_rk4_divergence(model, act, x0, horizon, step):
    """The first instant at which the RK4 reference trajectory is not finite."""
    f, X = _reference_field(model, act), np.asarray(x0, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, int(np.floor(horizon / step)) + 1):
            X = _reference_rk4(f, X, step)
            if not np.all(np.isfinite(X)):
                return i * step
    return None


def _reference_verify(model, act, cert, X0, Y0, horizon, step, stride, abs_sums=None):
    """(worst decay ratio, max sampled mu), or DivergenceError's time, of the
    Euler run at `step` (the step that runs, after any halving).  A list
    `abs_sums` collects the largest weighted absolute column (l1) or row
    (linf) sum of each sampled Jacobian."""
    n_steps = int(np.floor(horizon / step))
    pairs = X0.shape[1]
    Z = np.hstack([X0, Y0])
    euler, summands = _reference_euler(model, act, step)
    fam, w = cert.family, cert.weights
    tiny = np.finfo(float).tiny
    d0 = weighted_norm(X0 - Y0, fam, w)
    live = d0 >= tiny
    n = model.n
    rounding = 2 * (n + 3) * np.finfo(float).eps
    worst = 0.0
    max_mu = -np.inf
    size = np.zeros(pairs)  # no step into instant 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(n_steps + 1):
            if i > 0:
                # A distance that fails the bound is taken net of the rounding
                # allowance of the steps behind it, sized by the norms of the
                # summands of the step into it.
                sums = weighted_norm(summands(Z), fam, w)
                size = sums[:pairs] + sums[pairs:]
                Z = euler(Z)
                if not np.all(np.isfinite(Z)):
                    return i * step
            log_bound = i * np.log1p(-step * cert.rate) if i > 0 else 0.0
            h_rate = step * cert.rate
            noise = rounding * (min(i, 1.0 / h_rate) if h_rate > 0.0 else i) * size
            nrm = weighted_norm(Z[:, :pairs] - Z[:, pairs:], fam, w)
            for d, start, e in zip(nrm[live], d0[live], noise[live]):
                fails = np.exp(np.log(d) - np.log(start) - log_bound) > 1.0 + simulate.DECAY_RATIO_ALLOWANCE
                if fails and np.isfinite(e):
                    d = d - e
                if d >= tiny:
                    worst = max(worst, float(np.exp(np.log(d) - np.log(start) - log_bound)))
            if i % stride == 0:
                for col in range(Z.shape[1]):
                    J = jacobian(model, act, Z[:, col])
                    max_mu = max(max_mu, log_norm(J, fam, w))
                    if abs_sums is not None:
                        abs_sums.append(log_norm(np.abs(J), fam, w))
    return worst, max_mu


# The (model, norm) pairs whose sampled log norms come from the slopes: the
# slopes scale the lines that the norm sums (columns on l1, rows on linf), or
# only the diagonal (AxMinusCPhi).
SLOPE_ROUTES = {("hopfield", L1), ("persidskii", L1), ("entrywise", L1),
                ("firing_rate", LINF), ("ax_minus_cphi", L1), ("ax_minus_cphi", LINF)}


def _gamma(m):
    """Higham's gamma_m = m u / (1 - m u) at the unit roundoff u."""
    u = np.finfo(float).eps / 2
    return m * u / (1 - m * u)


def _assert_sampled_mu(model, family, got, want, abs_sums):
    """`got` is the dense reference `want` exactly where the dense route runs
    (outside SLOPE_ROUTES).  On the slope form each log norm d_i + t_i sums
    its off-diagonal term t_i in another order; with the products, the
    division by w_i and the final add, either route is within
    gamma_{n+3} (|d_i| + t_i) of the exact value (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1), so they differ by at
    most 2 gamma_{n+3} times the largest weighted absolute column (row) sum
    W of the sampled Jacobians, here computed with relative error at most
    gamma_{n+2}."""
    if (model.tag, family) not in SLOPE_ROUTES:
        assert got == want
        return
    n = model.n
    bound = 2 * _gamma(n + 3) * max(abs_sums) / (1 - _gamma(n + 2))
    assert abs(got - want) <= bound, (got, want, bound)


def _oracle_cases():
    """One seeded contracting model of each tag, with a fitting activation."""
    rng = np.random.default_rng(21)
    n = 6

    def stable(scale=0.15):
        return -1.5 * np.eye(n) + scale * rng.normal(size=(n, n))

    def leak():
        return np.diag(rng.uniform(0.8, 1.2, size=n))

    bounded = SlopeInterval(0.0, 1.0)
    return [
        (Hopfield(leak(), 0.1 * rng.normal(size=(n, n)), bounded, u=rng.normal(size=n)),
         Activation("tanh")),
        (FiringRate(leak(), 0.1 * rng.normal(size=(n, n)), bounded, u=rng.normal(size=n)),
         Activation("relu")),
        (Hopfield(leak(), stable(), SlopeInterval(0.0, np.inf)), Activation("rect_poly", r=2)),
        (Persidskii(stable(), SlopeInterval(0.3, 1.0)), Activation("leaky_relu", a=0.3)),
        (AxMinusCPhi(stable(), leak(), SlopeInterval(0.0, 0.25)), Activation("sigmoid")),
        (Entrywise(stable(0.03), SlopeInterval(0.2, 1.0)), Activation("leaky_relu", a=0.3)),
        (Lure(stable(), 0.3 * rng.normal(size=n), 0.3 * rng.normal(size=n), bounded),
         Activation("tanh")),
        (MultiLure(stable(), 0.2 * rng.normal(size=(n, 2)), 0.2 * rng.normal(size=(2, n)),
                   bounded), Activation("tanh")),
    ]


def _oracle_certificates(model):
    """The model's certificates in every family they carry; leaky models in
    l1 and linf."""
    if isinstance(model, (Hopfield, FiringRate)) and model.slopes.bounded:
        return [certify(model, L1), certify(model, LINF)]
    cert = certify(model)
    certs = [cert]
    if cert.alt_family is not None:
        certs.append(dataclasses.replace(cert, family=cert.alt_family,
                                         weights=cert.alt_weights))
    return certs


def _reference_sampled_mu(model, act, cert, states):
    """(max log norm, weighted absolute sums) of the Jacobians at `states`."""
    Js = [jacobian(model, act, x) for x in states]
    return (max(log_norm(J, cert.family, cert.weights) for J in Js),
            [log_norm(np.abs(J), cert.family, cert.weights) for J in Js])


def test_verify_and_sampled_mu_match_reference_loop_exactly():
    tags = set()
    for model, act in _oracle_cases():
        stiffness = np.max(-model.diagonal_floor())  # 1 / alpha*
        for cert in _oracle_certificates(model):
            assert cert.contracting
            # seeded draws, and given starts with one identical pair
            X0, Y0 = _draw_pairs(model, act, 4, 3)
            Y0[:, 1] = X0[:, 1]
            # an overclaimed rate puts the worst ratio at a late step, where
            # it depends on every bit of the states
            overclaim = dataclasses.replace(cert, rate=3.0 * cert.rate + 1.0)
            # (starts, claim, step, the step that runs): rect_poly halves it
            ran = 1e-3 if act.slopes().bounded else 5e-4
            runs = [(None, cert, 1e-3, ran), ((X0, Y0), cert, 1e-3, ran),
                    ((X0, Y0), overclaim, 1e-3, ran)]
            if 0.0 < stiffness < np.inf:
                # 1.25 alpha* breaks the step condition; 0.625 alpha* runs
                runs.append(((X0, Y0), cert, 1.25 / stiffness, 0.625 / stiffness))
            for starts, claim, step, ran in runs:
                report = verify_contraction(
                    model, act, claim, pairs=4, horizon=max(0.4, 4 * step), step=step,
                    seed=3, mu_sample_stride=50, initial_pairs=starts,
                )
                assert (report.scheme, report.step) == ("euler", ran)
                tags.add(model.tag)
                X0s, Y0s = _draw_pairs(model, act, 4, 3) if starts is None else starts
                sums = []
                worst, max_mu = _reference_verify(
                    model, act, claim, X0s, Y0s, max(0.4, 4 * step), report.step, 50,
                    abs_sums=sums,
                )
                assert report.worst_decay_ratio == worst
                _assert_sampled_mu(model, cert.family, report.max_sampled_mu, max_mu, sums)
                assert report.passed == (claim is cert)
            rng = np.random.default_rng(2)
            states = [rng.normal(scale=3.0, size=model.n) for _ in range(5)]
            _assert_sampled_mu(
                model, cert.family,
                sample_jacobian_mu(model, act, 5, cert.family, cert.weights, seed=2),
                *_reference_sampled_mu(model, act, cert, states),
            )
    assert tags == {"hopfield", "firing_rate", "persidskii", "ax_minus_cphi", "entrywise",
                    "lure", "multilure"}


def test_verify_contraction_states_finite_while_difference_overflows():
    # x' = -x / 2 + 3 x / 2 = x: 100 Euler steps of 1e-2 grow the states by
    # 1.01^100 = 2.7, from 3.6e307 to 9.7e307, finite (and so is 1.5 x), while
    # the unit-weight l1 distance from 0, the sum of two such coordinates,
    # overflows to inf: the report fails without a divergence.
    cert = optimal_certificate(
        Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0)), L1
    )
    cert = dataclasses.replace(cert, weights=np.ones(2))
    m = Hopfield(0.5 * np.eye(2), 1.5 * np.eye(2), SlopeInterval(0.0, 1.0))
    act = Activation("linear", k=1.0)
    X0 = np.array([[3.6e307, 1.0], [3.6e307, 1.0]])
    Y0 = np.array([[0.0, 0.0], [0.0, 1.0]])
    report = verify_contraction(m, act, cert, horizon=1.0, step=1e-2, initial_pairs=(X0, Y0))
    want = _reference_verify(m, act, cert, X0, Y0, 1.0, 1e-2, 100)
    assert (report.worst_decay_ratio, report.max_sampled_mu) == want
    assert report.worst_decay_ratio == np.inf


def test_verify_contraction_reports_divergence():
    # A contracting certificate checked against a strongly unstable linear
    # Hopfield model: the state overflows inside the horizon.  The model's
    # diagonal floor is -1, so verify steps Euler at 1e-2 and raises at the
    # Euler reference's first divergent instant; `integrate` raises at the
    # RK4 reference's.
    cert = optimal_certificate(
        Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0)), L1
    )
    m = Hopfield(np.eye(2), [[200.0, 200.0], [200.0, 200.0]], SlopeInterval(0.0, 1.0))
    act = Activation("linear", k=1.0)
    x0 = np.array([1.0, -0.5])
    X0, Y0 = x0[:, None], 0.5 * x0[:, None]
    with pytest.raises(DivergenceError) as info:
        verify_contraction(m, act, cert, horizon=5.0, step=1e-2, initial_pairs=(X0, Y0))
    euler = _reference_verify(m, act, cert, X0, Y0, 5.0, 1e-2, 100)
    assert isinstance(euler, float) and 0.0 < euler < 5.0
    assert info.value.time == euler
    with pytest.raises(DivergenceError) as single:
        integrate(m, act, x0, horizon=5.0, step=1e-2)
    rk4 = _reference_rk4_divergence(m, act, x0, 5.0, 1e-2)
    assert single.value.time == rk4 != euler


def test_stacked_jacobians_match_single_states_bit_for_bit():
    rng = np.random.default_rng(4)
    tags = set()
    for model, act in _oracle_cases():
        wide = rng.normal(scale=3.0, size=(model.n, 12))
        for X in (wide[:, :5].copy(), wide[:, 2:9], wide[:, ::3]):
            J = model.jacobians(act, X)
            assert J.flags.c_contiguous
            assert np.array_equal(J, np.stack([model.jacobian(act, x) for x in X.T]))
        tags.add(model.tag)
    assert tags == {"hopfield", "firing_rate", "persidskii", "ax_minus_cphi",
                    "entrywise", "lure", "multilure"}


@pytest.mark.parametrize("columns", [1, 5])
def test_verify_matches_reference_across_block_and_batch_edges(monkeypatch, columns):
    # The 401 checked instants (400 steps of 1e-3 and the start) are not a
    # multiple of the 3-step block; 8 trajectories and 7 samples split into
    # batches of 1 or 5 states.
    n = 6
    monkeypatch.setattr(simulate, "DECAY_BLOCK_STEPS", 3)
    monkeypatch.setattr(simulate, "JACOBIAN_BATCH_ENTRIES", columns * n * n)
    for model, act in _oracle_cases():
        assert model.n == n
        for cert in _oracle_certificates(model):
            X0, Y0 = _draw_pairs(model, act, 4, 3)
            Y0[:, 1] = X0[:, 1]
            overclaim = dataclasses.replace(cert, rate=3.0 * cert.rate + 1.0)
            for claim in (cert, overclaim):
                report = verify_contraction(
                    model, act, claim, horizon=0.4, step=1e-3, mu_sample_stride=50,
                    initial_pairs=(X0, Y0),
                )
                sums = []
                worst, max_mu = _reference_verify(
                    model, act, claim, X0, Y0, 0.4, report.step, 50, abs_sums=sums
                )
                assert report.worst_decay_ratio == worst
                _assert_sampled_mu(model, cert.family, report.max_sampled_mu, max_mu, sums)
            value = sample_jacobian_mu(model, act, 7, cert.family, cert.weights, seed=2)
            rng = np.random.default_rng(2)
            states = [rng.normal(scale=3.0, size=n) for _ in range(7)]
            _assert_sampled_mu(model, cert.family, value,
                               *_reference_sampled_mu(model, act, cert, states))


def test_verify_memory_does_not_grow_with_horizon():
    m = Hopfield(np.eye(4), 0.1 * np.ones((4, 4)), SlopeInterval(0.0, 1.0))
    cert = certify(m, L1)
    act = Activation("tanh")
    verify_contraction(m, act, cert, horizon=1.0, step=1e-2)  # warm caches
    peaks = []
    for horizon in (1.0, 20.0):
        tracemalloc.start()
        try:
            verify_contraction(m, act, cert, horizon=horizon, step=1e-2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1024, peaks


def _divergent_linear_hopfield():
    """An l1 certificate of a stable model, and a strongly unstable linear
    Hopfield model whose states overflow inside a horizon of 5."""
    cert = optimal_certificate(
        Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0)), L1
    )
    m = Hopfield(np.eye(2), [[200.0, 200.0], [200.0, 200.0]], SlopeInterval(0.0, 1.0))
    return m, Activation("linear", k=1.0), cert


@pytest.mark.parametrize("position", ["first", "last"])
def test_divergence_on_a_block_edge_matches_reference(monkeypatch, position):
    # Blocks hold instants 0..b, then b+1..2b and so on: a block of d - 1
    # steps puts the first divergent instant d first in the second block, one
    # of d steps puts it last in the first.  integrate shares the blocks.
    m, act, cert = _divergent_linear_hopfield()
    x0 = np.array([1.0, -0.5])
    X0, Y0 = x0[:, None], 0.5 * x0[:, None]
    runs = [
        (_reference_verify(m, act, cert, X0, Y0, 5.0, 1e-2, 7),
         lambda: verify_contraction(m, act, cert, horizon=5.0, step=1e-2, mu_sample_stride=7,
                                    initial_pairs=(X0, Y0))),
        (_reference_rk4_divergence(m, act, x0, 5.0, 1e-2),
         lambda: integrate(m, act, x0, horizon=5.0, step=1e-2)),
    ]
    for first_bad, call in runs:
        d = round(first_bad / 1e-2)
        assert d * 1e-2 == first_bad and d > 2
        monkeypatch.setattr(simulate, "DECAY_BLOCK_STEPS", d - 1 if position == "first" else d)
        with pytest.raises(DivergenceError) as info:
            call()
        assert info.value.time == first_bad


def test_verify_matches_reference_when_the_entry_cap_sets_the_block(monkeypatch):
    # 8 trajectories of n = 6 make 48 entries per state; a cap of 7 states
    # makes 7-step blocks, well below DECAY_BLOCK_STEPS, and 400 steps are
    # not a multiple of 7.
    n = 6
    monkeypatch.setattr(simulate, "STATE_BLOCK_ENTRIES", 7 * 48 + 47)
    assert simulate._block_steps(48) == 7 < simulate.DECAY_BLOCK_STEPS
    assert simulate._block_steps(n) == 63
    for model, act in _oracle_cases():
        assert model.n == n
        cert = _oracle_certificates(model)[0]
        X0, Y0 = _draw_pairs(model, act, 4, 3)
        overclaim = dataclasses.replace(cert, rate=3.0 * cert.rate + 1.0)
        for claim in (cert, overclaim):
            report = verify_contraction(model, act, claim, horizon=0.4, step=1e-3,
                                        mu_sample_stride=50, initial_pairs=(X0, Y0))
            sums = []
            worst, max_mu = _reference_verify(model, act, claim, X0, Y0, 0.4, report.step, 50,
                                              abs_sums=sums)
            assert report.worst_decay_ratio == worst
            _assert_sampled_mu(model, cert.family, report.max_sampled_mu, max_mu, sums)
        # integrate's one trajectory takes 63-step blocks under this cap.
        _, xs = integrate(model, act, X0[:, 0], horizon=0.4, step=1e-3)
        f, want = _reference_field(model, act), [X0[:, :1]]
        for _ in range(400):
            want.append(_reference_rk4(f, want[-1], 1e-3))
        assert np.array_equal(xs.view(np.int64), np.hstack(want).T.view(np.int64))


def test_sampled_jacobian_overflow_before_a_divergence_in_its_block():
    # x' = 1e305 x^2 per coordinate: from x = 1, one Euler step of the halved
    # step 5e-3 reaches 5e302, where the Jacobian 2e305 x overflows while the
    # state is finite, and the next step overflows the state.  Sampled at
    # instant 1, the Jacobian raises ValueError before the divergence at
    # instant 2 in the same block; sampled every 2 steps, the divergence wins.
    _, _, cert = _divergent_linear_hopfield()
    m = Hopfield(np.zeros((2, 2)), 1e305 * np.eye(2), SlopeInterval(0.0, np.inf))
    act = Activation("rect_poly", r=2)
    X0, Y0 = np.ones((2, 1)), np.full((2, 1), 0.5)
    kwargs = dict(horizon=1.0, step=1e-2, initial_pairs=(X0, Y0))
    with pytest.raises(ValueError, match="finite"):
        _reference_verify(m, act, cert, X0, Y0, 1.0, 5e-3, 1)
    with pytest.raises(ValueError, match="finite"):
        verify_contraction(m, act, cert, mu_sample_stride=1, **kwargs)
    assert _reference_verify(m, act, cert, X0, Y0, 1.0, 5e-3, 2) == 2 * 5e-3
    with pytest.raises(DivergenceError) as info:
        verify_contraction(m, act, cert, mu_sample_stride=2, **kwargs)
    assert info.value.time == 2 * 5e-3


def test_sampled_jacobian_overflow_hidden_by_the_weights_still_raises():
    # With w0 / w1 = 1e-10, the weighted off-diagonal term of column 1 is
    # s1 * 1e305 * w0 / w1 = 2e299, finite, while the Jacobian entry
    # A01 * s1 = 1e305 * 2e4 overflows: the slope form must not hide it.
    m = Hopfield(np.eye(2), [[0.0, 1e305], [0.0, 0.0]], SlopeInterval(0.0, np.inf))
    act = Activation("rect_poly", r=2)
    w = np.array([1e-10, 1.0])
    _, _, cert = _divergent_linear_hopfield()
    cert = dataclasses.replace(cert, weights=w)
    X0, Y0 = np.array([[0.0], [1e4]]), np.array([[0.0], [5e3]])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            log_norm(jacobian(m, act, [0.0, 1e4]), L1, w)
        # Three of the four seeded states have x1 > 0 at scale 1e4.
        with pytest.raises(ValueError, match="finite"):
            sample_jacobian_mu(m, act, 4, L1, w, seed=0, scale=1e4)
        for X in (X0, Y0):
            with pytest.raises(ValueError, match="finite"):
                simulate._max_jacobian_mu(m, act, L1, w)(X)
    with pytest.raises(ValueError, match="finite"):
        _reference_verify(m, act, cert, X0, Y0, 1.0, 5e-3, 1)
    with pytest.raises(ValueError, match="finite"):
        verify_contraction(m, act, cert, horizon=1.0, step=1e-2, mu_sample_stride=1,
                           initial_pairs=(X0, Y0))


def _spy_jacobians(monkeypatch, model):
    """Count the calls of the model class's dense `jacobians`."""
    calls = []
    dense = type(model).jacobians

    def spy(self, act, X):
        calls.append(X.shape)
        return dense(self, act, X)

    monkeypatch.setattr(type(model), "jacobians", spy)
    return calls


def test_slope_form_models_sample_without_dense_jacobians(monkeypatch):
    seen = set()
    for model, act in _oracle_cases():
        runs = [(cert.family, lambda cert=cert: verify_contraction(
            model, act, cert, pairs=2, horizon=0.1, step=1e-2, mu_sample_stride=3))
            for cert in _oracle_certificates(model)]
        runs += [(family, lambda family=family: sample_jacobian_mu(
            model, act, 5, family, np.linspace(0.5, 2.0, model.n), seed=1))
            for family in (L1, LINF, L2)]
        for family, run in runs:
            with monkeypatch.context() as patch:
                calls = _spy_jacobians(patch, model)
                run()
            dense = (model.tag, family) not in SLOPE_ROUTES
            assert bool(calls) == dense, (model.tag, family, calls)
            seen.add((model.tag, family))
    assert SLOPE_ROUTES < seen
    assert {("hopfield", LINF), ("hopfield", L2), ("firing_rate", L1), ("lure", L1),
            ("multilure", LINF)} < seen - SLOPE_ROUTES


def _broadcast_field(model, act):
    """Each model's field with its (n, 1) columns broadcast over the stack."""
    if isinstance(model, Hopfield):
        nc, A, u = -np.diag(model.C)[:, None], model.A, model.u[:, None]

        def f(X):
            K = A @ act(X)
            K += nc * X
            K += u
            return K
    elif isinstance(model, FiringRate):
        nc, A, u = -np.diag(model.C)[:, None], model.A, model.u[:, None]

        def f(X):
            P = A @ X
            P += u
            K = act(P)
            K += nc * X
            return K
    elif isinstance(model, AxMinusCPhi):
        A, c = model.A, np.diag(model.C)[:, None]

        def f(X):
            K = A @ X
            K -= c * act(X)
            return K
    elif isinstance(model, Lure):
        A, b, c = model.A, model.b[:, None], model.c

        def f(X):
            K = A @ X
            K += b * act(c @ X)[None, :]
            return K
    elif isinstance(model, MultiLure):
        A, B, C = model.A, model.B, model.C

        def f(X):
            K = A @ X
            K += B @ act(C @ X)
            return K
    else:  # Persidskii, Entrywise
        f = lambda X: model.A @ act(X)
    return f


def test_fields_match_broadcast_columns_bit_for_bit():
    # The map at h = 1 and x = 0 is the field, int64 views compared.  A map is
    # fixed to its stack width: one per width, each run again after the others.
    rng = np.random.default_rng(9)
    tags = set()
    for model, act in _oracle_cases():
        want = _broadcast_field(model, act)
        fields = {k: model.euler_map(act, 1.0, k, 0.0)[0] for k in (1, 8, 40)}
        for k in (1, 8, 40, 8, 1, 40, 40):
            X = rng.normal(scale=3.0, size=(model.n, k))
            out = np.full(X.shape, np.nan)
            fields[k](X, out)
            assert np.array_equal(out.view(np.int64), want(X).view(np.int64)), model.tag
        tags.add(model.tag)
    assert tags == {"hopfield", "firing_rate", "persidskii", "ax_minus_cphi", "entrywise",
                    "lure", "multilure"}


def _traced_growth(step, X, out):
    """The traced memory that 10 calls of step(X, out), alternating the two
    arrays, take at their peak above what one call before them left."""
    tracemalloc.start()
    try:
        step(out, X)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(5):
            step(X, out)
            step(out, X)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_fused_euler_steps_are_the_reference_maps_and_the_textbook_step_up_to_rounding():
    # Each model's step is its documented fused map bit for bit, writes every
    # entry of `out`, and allocates no array of a state's or a column's size
    # (2 KB here; numpy's matmul takes 512 bytes of its own per call), and
    # neither does `integrate`'s RK4 advance on the model's field.  Against
    # the textbook X + h f(X) the step differs only by rounding: by at most
    # 2 gamma_{n+3} of the magnitudes of its summands, entry by entry.
    rng = np.random.default_rng(14)
    n, k = 6, 256
    bound = 2 * _gamma(n + 3)  # fixed from the dtype before any step
    tags = set()
    for model, act in _oracle_cases():
        f = lambda X: field_at(model, act, X)
        for h in (1e-3, 0.1):
            step, summands = model.euler_map(act, h, k, 1.0)
            euler, magnitudes = _reference_euler(model, act, h)
            X = rng.normal(scale=3.0, size=(n, k))
            out = np.full((n, k), np.nan)
            step(X, out)
            assert np.array_equal(out, euler(X))
            T = summands(np.stack([X, out]))
            assert np.array_equal(T, np.stack([magnitudes(X), magnitudes(out)]))
            assert np.all(np.abs(out - (X + h * f(X))) <= bound * T[0]), model.tag
            grown = _traced_growth(step, X, out)
            assert grown < 1024, (model.tag, grown)
        advance = _rk4_advance(model.euler_map(act, 1.0, k, 0.0)[0], 1e-3, (n, k))
        grown = _traced_growth(advance, X, out)
        assert grown < 1024, (model.tag, "rk4", grown)
        tags.add(model.tag)
    assert tags == {"hopfield", "firing_rate", "persidskii", "ax_minus_cphi", "entrywise",
                    "lure", "multilure"}


def test_zero_leak_models_give_identical_verify_reports():
    # Persidskii, Entrywise and a Hopfield model with C = 0 and no input step
    # the same map, with the leak and input summands left out alike, so one
    # certificate gives identical reports on one A, overclaimed or not.
    rng = np.random.default_rng(15)
    n = 5
    A = -1.5 * np.eye(n) + 0.2 * rng.normal(size=(n, n))
    slopes = SlopeInterval(0.3, 1.0)
    models = [Persidskii(A, slopes), Entrywise(A, slopes), Hopfield(np.zeros((n, n)), A, slopes)]
    cert = certify(models[0], L1)
    assert cert.contracting
    act = Activation("leaky_relu", a=0.3)
    for claim in (cert, dataclasses.replace(cert, rate=3.0 * cert.rate + 1.0)):
        reports = [verify_contraction(m, act, claim, pairs=6, horizon=2.0, step=1e-2, seed=4)
                   for m in models]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].passed == (claim is cert)


class _Identity:
    """An activation stand-in whose slope at p is p, so slopes read back as
    the pre-activations themselves."""

    @staticmethod
    def deriv(P):
        return P


@pytest.mark.parametrize("n", [1, 4, 32, 128])
def test_firing_rate_preactivations_match_per_column_products_bit_for_bit(n):
    rng = np.random.default_rng(n)
    model = FiringRate(np.eye(n), rng.normal(size=(n, n)), SlopeInterval(0.0, 1.0),
                       u=rng.normal(size=n))
    for k in (1, 7, 40):
        Z = rng.normal(scale=3.0, size=(n, 2 * k))
        for X in (np.ascontiguousarray(Z[:, :k]), Z[:, ::2], np.asfortranarray(Z[:, :k])):
            want = np.stack([model.A @ x + model.u for x in X.T])
            assert np.array_equal(model._preactivation_slopes(_Identity, X), want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 32, 33, 64, 128, 200])
def test_loop_preactivations_match_per_column_products_bit_for_bit(n):
    # Lure and MultiLure take c x and C x by one batched product; each slice
    # keeps the bits of c @ x and C @ x, where X.T @ c or c @ X need not.
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    lure = Lure(A, rng.normal(size=n), rng.normal(size=n), SlopeInterval(0.0, 1.0))
    multi = MultiLure(A, rng.normal(size=(n, 3)), rng.normal(size=(3, n)),
                      SlopeInterval(0.0, 1.0))
    for k in (1, 3, 16, 40):
        Z = rng.normal(scale=3.0, size=(n, 2 * k))
        for X in (np.ascontiguousarray(Z[:, :k]), Z[:, ::2], np.asfortranarray(Z[:, :k])):
            want = np.stack([lure.A + (lure.c @ x) * np.outer(lure.b, lure.c) for x in X.T])
            assert np.array_equal(lure.jacobians(_Identity, X), want)
            want = np.stack([multi.A + multi.B @ ((multi.C @ x)[:, None] * multi.C)
                             for x in X.T])
            assert np.array_equal(multi.jacobians(_Identity, X), want)


def _signed_zeros(rng, v):
    """v with about a third of its entries set to +0.0 or -0.0."""
    v = v.copy()
    hit = rng.random(size=v.shape) < 0.35
    v[hit] = np.where(rng.random(size=v.shape) < 0.5, 0.0, -0.0)[hit]
    return v


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_lure_is_multilure_at_one_slope(n):
    # Lure is MultiLure with B = b[:, None] and C = c[None, :].  The rank-one
    # product hB act(CX) may give a zero the other sign from a row-by-row
    # one, so maps, summands and floors agree by value; verify reports (whose
    # sampled log norms read each model's own Jacobians) agree bit for bit.
    rng = np.random.default_rng(700 + n)
    A = -2.0 * np.eye(n) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
    b, c = (_signed_zeros(rng, rng.normal(scale=0.5, size=n)) for _ in range(2))
    slopes = SlopeInterval(0.0, 1.0)
    lure, multi = Lure(A, b, c, slopes), MultiLure(A, b[:, None], c[None, :], slopes)
    act = Activation("tanh")
    assert np.array_equal(lure.diagonal_floor(), multi.diagonal_floor())
    for k in (1, 40):
        X = rng.normal(scale=2.0, size=(n, k))
        X[rng.random(size=X.shape) < 0.2] = 0.0
        S = np.stack([X, -X, np.zeros_like(X)])
        for h, x in ((1e-2, 1.0), (1.0, 0.0)):
            maps = [model.euler_map(act, h, k, x) for model in (lure, multi)]
            outs = [np.empty((n, k)) for _ in maps]
            for (step, _), out in zip(maps, outs):
                step(X, out)
            assert np.array_equal(*outs)
            assert np.array_equal(*(summands(S) for _, summands in maps))
    cert = certify(lure, L1)
    assert cert.contracting
    for claim in (cert, dataclasses.replace(cert, rate=3.0 * cert.rate + 1.0)):
        reports = [verify_contraction(model, act, claim, pairs=3, horizon=0.5, step=1e-2,
                                      seed=n, mu_sample_stride=7) for model in (lure, multi)]
        assert repr(reports[0]) == repr(reports[1])
        assert reports[0].passed == (claim is cert)


POLY = Activation("rect_poly", r=2)


def _unbounded_models():
    """Contracting Hopfield and FiringRate models with unbounded slopes and
    every a_ii < 0, so their slope-box floor is -inf in every coordinate."""
    rng = np.random.default_rng(31)
    models = []
    for cls in (Hopfield, FiringRate):
        for n in (2, 5):
            A = 0.15 * rng.normal(size=(n, n)) / np.sqrt(n)
            np.fill_diagonal(A, -rng.uniform(0.3, 0.8, size=n))
            model = cls(np.diag(rng.uniform(0.5, 1.5, size=n)), A, SlopeInterval(0.0, np.inf),
                        u=0.3 * rng.normal(size=n))
            assert np.all(model.diagonal_floor() == -np.inf)
            models.append(model)
    return models


def test_leaky_input_max_and_capped_floor():
    # The visited-slope floor reads each side's activation inputs: the state
    # (Hopfield) or A x + u (FiringRate), the largest per coordinate over an
    # (m, n, k) stack; the batched product may round A x differently from
    # A @ x, within n ulps of sum |A_ij x_j|.
    rng = np.random.default_rng(12)
    n = 5
    A, C, u = rng.normal(size=(n, n)), np.diag(rng.uniform(0.5, 1.5, size=n)), rng.normal(size=n)
    S = rng.normal(scale=3.0, size=(4, n, 6))
    states = [x for slot in S for x in slot.T]
    hopfield = Hopfield(C, A, SlopeInterval(0.0, np.inf), u=u)
    assert np.array_equal(hopfield._input_max(S), np.max(states, axis=0))
    firing = FiringRate(C, A, SlopeInterval(0.0, np.inf), u=u)
    want = np.max([A @ x + u for x in states], axis=0)
    scale = np.max([np.abs(A) @ np.abs(x) for x in states], axis=0)
    assert np.all(np.abs(firing._input_max(S) - want) <= n * np.finfo(float).eps * scale)
    # The floor -c_i + min(d1 a_ii, cap_i a_ii), with 0 * inf as 0; with no
    # cap it is the slope-box floor, and a NaN cap on a_ii < 0 gives NaN.
    model = Hopfield(np.diag([1.0, 2.0, 3.0]), np.diag([-0.5, 0.0, 0.5]),
                     SlopeInterval(-0.1, np.inf))
    assert np.array_equal(model.diagonal_floor([2.0, np.inf, np.inf]), [-2.0, -2.0, -3.05])
    assert np.array_equal(model.diagonal_floor(), [-np.inf, -2.0, -3.05])
    assert np.isnan(model.diagonal_floor([np.nan, 1.0, 1.0])[0])


def test_unbounded_slopes_run_euler_under_their_visited_floor():
    # Each block checks step * max(-floor) < 1 at the floor over the slopes
    # its states reach; the seeded starts in the unit inf-ball pass it
    # throughout, so the report is the exact euler reference's.
    for model in _unbounded_models():
        cert = certify(model)
        assert cert.contracting
        X0, Y0 = _draw_pairs(model, POLY, 4, 3)
        overclaim = dataclasses.replace(cert, rate=3.0 * cert.rate + 1.0)
        for starts, claim in ((None, cert), ((X0, Y0), cert), ((X0, Y0), overclaim)):
            report = verify_contraction(model, POLY, claim, pairs=4, horizon=1.0, step=1e-2,
                                        seed=3, mu_sample_stride=7, initial_pairs=starts)
            assert (report.scheme, report.step) == ("euler", 5e-3)
            assert report.passed == (claim is cert)
            worst, max_mu = _reference_verify(model, POLY, claim, X0, Y0, 1.0, 5e-3, 7)
            assert (report.worst_decay_ratio, report.max_sampled_mu) == (worst, max_mu)


@pytest.mark.parametrize("block", [1, 64])
def test_unbounded_slopes_restart_at_half_the_step_where_visited_slopes_break_it(
        monkeypatch, block):
    # Starts at x <= 0 visit slope 0, where the halved step 0.45 meets
    # 0.45 * 2 < 1; the input u = 2 drives both trajectories to x > 0 in one
    # step, where 0.45 * (2 + 0.5 * 2 x_2) >= 1.  With 1-step blocks the first
    # block passes and the second fails.  Either way the run restarts from
    # the start at 0.225, which every block meets, and the report is the
    # Euler reference's at that step.
    model = Hopfield(np.diag([1.0, 2.0]), [[-0.5, 0.3], [0.3, -0.5]],
                     SlopeInterval(0.0, np.inf), u=[2.0, 2.0])
    cert = certify(model)
    X0, Y0 = np.array([[-1.0], [-1.0]]), np.array([[-0.5], [-0.8]])
    monkeypatch.setattr(simulate, "DECAY_BLOCK_STEPS", block)
    checked = []
    floor = Hopfield.diagonal_floor
    monkeypatch.setattr(Hopfield, "diagonal_floor",
                        lambda self, cap=None: checked.append(cap) or floor(self, cap))
    report = verify_contraction(model, POLY, cert, horizon=9.0, step=0.9, mu_sample_stride=3,
                                initial_pairs=(X0, Y0))
    assert (report.scheme, report.step, report.passed) == ("euler", 0.225, True)
    # the box floor, the failing run's blocks, then each block of the 40-step run
    assert len(checked) == (1 + 2 + 40 if block == 1 else 1 + 1 + 1)
    want = _reference_verify(model, POLY, cert, X0, Y0, 9.0, 0.225, 3)
    assert (report.worst_decay_ratio, report.max_sampled_mu) == want


@pytest.mark.parametrize("name, budget, raises", [
    ("VERIFY_STEP_BUDGET", 59, True), ("VERIFY_STEP_BUDGET", 60, False),
    ("VERIFY_ENTRY_BUDGET", 239, True), ("VERIFY_ENTRY_BUDGET", 240, False)])
def test_restarts_count_against_the_budgets(monkeypatch, name, budget, raises):
    # The restart case above starts a 20-step run at 0.45 and a 40-step run
    # at 0.225: 60 steps in all, of a stack of 2 * 2 entries, 240 entries.
    monkeypatch.setattr(simulate, name, budget)
    model = Hopfield(np.diag([1.0, 2.0]), [[-0.5, 0.3], [0.3, -0.5]],
                     SlopeInterval(0.0, np.inf), u=[2.0, 2.0])
    kwargs = dict(horizon=9.0, step=0.9, initial_pairs=(np.full((2, 1), -1.0),
                                                        np.array([[-0.5], [-0.8]])))
    if raises:
        with pytest.raises(ValueError, match=rf"\b{budget} (steps|state entries)"):
            verify_contraction(model, POLY, certify(model), **kwargs)
    else:
        assert verify_contraction(model, POLY, certify(model), **kwargs).step == 0.225


def test_a_spent_step_budget_raises_within_a_second():
    # Starts at x = 1e8 visit rect_poly slopes near 2e8, which need a step
    # near 1e-8: each run fails its first block and restarts at half the
    # step, until the halved run would take the runs past the budget.  In
    # the diverging model x_1' = -x_1 + 200 x_1^2 blows up and drives x_2
    # upward through x_2' = -x_2 + x_1^2 - 0.5 x_2^2, where a_22 < 0: x_2's
    # slope 2 x_2 breaks step * (1 + x_2) < 1 before any state overflows, at
    # every step, and the error names the visited-slope check, not a
    # divergence.  A finite floor of -1e5 needs a step below 1e-5, and the
    # halving that would take its one run past the budget raises before any
    # run.
    model = Hopfield(np.diag([1.0, 2.0]), [[-0.5, 0.3], [0.3, -0.5]], SlopeInterval(0.0, np.inf))
    X0 = np.full((2, 1), 1e8)
    diverging = Hopfield(np.eye(2), [[200.0, 0.0], [1.0, -0.5]], SlopeInterval(0.0, np.inf))
    stiff = Hopfield(1e5 * np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    runs = [(model, POLY, certify(model), (X0, 0.5 * X0), True),
            (diverging, POLY, certify(model), (np.array([[1.0], [0.0]]),
                                               np.array([[0.5], [0.0]])), True),
            (stiff, Activation("tanh"), certify(stiff, L1), None, False)]
    for model, act, cert, starts, checked in runs:
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match=f"budget of {simulate.VERIFY_STEP_BUDGET} steps") as info:
            verify_contraction(model, act, cert, initial_pairs=starts)
        assert time.perf_counter() - start < 1.0
        assert ("slopes the trajectories visit broke the step" in str(info.value)) == checked


def test_unbounded_slopes_euler_bound_is_tight_below_zero():
    # At x, y <= 0 the slopes are 0 and the field is -C x, so a difference
    # along e_i, i = argmin c_i, shrinks by exactly 1 - step c_i per step,
    # and c_i is the certified rate: the true rate passes with ratio 1 up to
    # rounding, and a 1e-3 relative overclaim fails.
    model = Hopfield(np.diag([1.5, 0.8, 1.2]),
                     [[-0.5, 0.1, -0.2], [0.2, -0.4, 0.1], [-0.1, 0.3, -0.6]],
                     SlopeInterval(0.0, np.inf))
    cert = certify(model)
    i = int(np.argmin(np.diag(model.C)))
    assert cert.rate == model.C[i, i]
    X0, Y0 = np.zeros((3, 2)), np.zeros((3, 2))
    X0[i], Y0[i] = [-1.0, -0.3], [-0.5, -0.1]
    kwargs = dict(horizon=5.0, step=1e-2, initial_pairs=(X0, Y0))
    report = verify_contraction(model, POLY, cert, **kwargs)
    assert report.scheme == "euler" and report.passed
    assert abs(report.worst_decay_ratio - 1.0) <= 1e-12
    over = verify_contraction(model, POLY, dataclasses.replace(cert, rate=1.001 * cert.rate),
                              **kwargs)
    assert over.scheme == "euler" and not over.passed


@pytest.mark.parametrize("block", [1, 3, 64])
def test_unbounded_divergence_raises_at_the_euler_instant(monkeypatch, block):
    # x_2' = -x_2 + 200 x_2^2 overflows; a_22 > 0 keeps its visited floor at
    # -1, and x_1 <= 0 visits slope 0, so every block's "from" states before
    # the divergence meet the step condition: the run raises at the Euler
    # reference's first divergent instant, at the step halved once for
    # rect_poly, and restarts nothing.
    model = Hopfield(np.eye(2), [[-0.5, 0.0], [0.0, 200.0]], SlopeInterval(0.0, np.inf))
    cert = certify(Hopfield(np.diag([1.0, 2.0]), [[-0.5, 0.3], [0.3, -0.5]],
                            SlopeInterval(0.0, np.inf)))
    X0, Y0 = np.array([[-1.0], [1.0]]), np.array([[-0.5], [0.5]])
    first_bad = _reference_verify(model, POLY, cert, X0, Y0, 1.0, 5e-3, 1000)
    assert 0.0 < first_bad < 1.0
    monkeypatch.setattr(simulate, "DECAY_BLOCK_STEPS", block)
    with pytest.raises(DivergenceError) as info:
        verify_contraction(model, POLY, cert, horizon=1.0, step=1e-2, mu_sample_stride=1000,
                           initial_pairs=(X0, Y0))
    assert info.value.time == first_bad


def test_verify_scheme_off_the_visited_floor_route_follows_the_box_floor():
    # Every tag, family and fitting activation other than an unbounded kind on
    # a floor of -inf: the step runs under the slope-box floor or, for a
    # bounded activation on a floor of -inf, under the floor over the
    # activation's own slopes.  A step with step * max(-floor) >= 1 is halved
    # until it meets the condition, and the report is the Euler reference's
    # at the step that ran; a true certificate passes there.
    acts = [Activation("relu"), Activation("tanh"), Activation("sigmoid"),
            Activation("leaky_relu", a=0.3), Activation("linear", k=0.5), POLY]
    unbounded = _unbounded_models()
    # A zero diagonal has a finite floor but no certificate of its own (its
    # majorant is not Hurwitz): it is checked against a borrowed one.
    zero_diag = Hopfield(np.eye(2), [[0.0, 0.2], [0.1, 0.0]], SlopeInterval(0.0, np.inf))
    cases = [(model, _oracle_certificates(model)) for model, _ in _oracle_cases()]
    cases += [(model, _oracle_certificates(model)) for model in unbounded[:3:2]]
    cases.append((zero_diag, [certify(unbounded[0])]))
    seen, capped = set(), set()
    for model, certs in cases:
        box = np.max(-model.diagonal_floor())
        for act in acts:
            if not model.slopes.contains(act.slopes()):
                continue
            if box == np.inf and not act.slopes().bounded:
                continue  # the visited-floor route
            stiffness = box
            if box == np.inf:
                stiffness = np.max(-model.diagonal_floor(act.slopes().d2))
                capped.add((model.tag, act.kind))
            assert 0.0 < stiffness < 1e3
            # (requested step, the step that runs): rect_poly halves the
            # request once, and the floor rule halves 1.5 / stiffness once if
            # rect_poly has not
            small = (1e-3, 1e-3) if act.slopes().bounded else (2e-3, 1e-3)
            for step, ran in (small, (1.5 / stiffness, 0.75 / stiffness)):
                horizon = max(0.2, 4 * step)
                for cert in certs:
                    X0, Y0 = _draw_pairs(model, act, 3, 5)
                    report = verify_contraction(model, act, cert, horizon=horizon, step=step,
                                                mu_sample_stride=40, initial_pairs=(X0, Y0))
                    assert (report.scheme, report.step) == ("euler", ran), (model.tag, act.kind)
                    assert report.passed
                    sums = []
                    worst, max_mu = _reference_verify(model, act, cert, X0, Y0, horizon, ran,
                                                      40, abs_sums=sums)
                    assert report.worst_decay_ratio == worst
                    _assert_sampled_mu(model, cert.family, report.max_sampled_mu, max_mu, sums)
                    seen.add((model.tag, act.kind))
    assert {tag for tag, _ in seen} == {"hopfield", "firing_rate", "persidskii",
                                        "ax_minus_cphi", "entrywise", "lure", "multilure"}
    assert {kind for _, kind in seen} == {act.kind for act in acts}
    assert {("hopfield", "tanh"), ("firing_rate", "relu")} < capped
    assert ("hopfield", "rect_poly") in seen
