import dataclasses

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
    integrate,
    jacobian,
    log_norm,
    optimal_certificate,
    sample_jacobian_mu,
    slope_bounds,
    verify_contraction,
    weighted_norm,
)

from mucert.simulate import _draw_pairs

from helpers import acceptance_fixtures


def test_slope_bounds_declared_intervals():
    assert slope_bounds(Activation("relu")) == SlopeInterval(0.0, 1.0)
    assert slope_bounds(Activation("leaky_relu", a=0.2)) == SlopeInterval(0.2, 1.0)
    assert slope_bounds(Activation("tanh")) == SlopeInterval(0.0, 1.0)
    assert slope_bounds(Activation("sigmoid")) == SlopeInterval(0.0, 0.25)
    assert slope_bounds(Activation("rect_poly", r=2)) == SlopeInterval(0.0, np.inf)
    assert slope_bounds(Activation("linear", k=-0.7)) == SlopeInterval(-0.7, -0.7)


def test_slope_bounds_match_difference_quotients():
    xs = np.linspace(-6.0, 6.0, 2001)
    for act in (
        Activation("relu"),
        Activation("leaky_relu", a=0.3),
        Activation("tanh"),
        Activation("sigmoid"),
    ):
        lo, hi = act.slopes().d1, act.slopes().d2
        vals = act(xs)
        quot = np.diff(vals) / np.diff(xs)
        assert np.all(quot >= lo - 1e-9)
        assert np.all(quot <= hi + 1e-9)
        # upper bound is approached somewhere on the grid
        assert np.max(quot) >= hi - 0.05 * max(1.0, hi)


def test_activation_validation():
    with pytest.raises(ValueError):
        Activation("step")
    with pytest.raises(ValueError):
        Activation("leaky_relu", a=1.5)
    with pytest.raises(ValueError):
        Activation("rect_poly", r=1)
    with pytest.raises(ValueError):
        Activation("linear")


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


def test_verify_contraction_identical_pair_convention():
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    cert = optimal_certificate(m, L1)
    x0 = np.array([[1.0], [2.0]])
    report = verify_contraction(
        m, Activation("tanh"), cert, horizon=0.5, step=1e-2, initial_pairs=(x0, x0)
    )
    assert report.worst_decay_ratio == 0.0


def test_verify_contraction_negative_control():
    m = Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0))
    cert = optimal_certificate(m, L1)
    doubled = dataclasses.replace(cert, rate=2.0 * cert.rate)
    report = verify_contraction(m, Activation("tanh"), doubled, pairs=10, horizon=3.0, step=1e-3, seed=1)
    assert report.worst_decay_ratio > 1.001


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

    from mucert.simulate import _rk4_step

    f = m.field(act)
    Z = np.hstack([X0, Y0])
    d0 = weighted_norm((X0 - Y0)[:, 0], L2, None)
    worst_uncert = 0.0
    for i in range(1, 2001):
        Z = _rk4_step(f, Z, 1e-3)
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
        f = model.field(act)
        x = rng.normal(size=model.n)
        J = jacobian(model, act, x)
        eps = 1e-6
        for j in range(model.n):
            e = np.zeros(model.n)
            e[j] = eps
            fd = (f((x + e)[:, None]) - f((x - e)[:, None]))[:, 0] / (2 * eps)
            np.testing.assert_allclose(J[:, j], fd, atol=1e-6)


# Reference verification loop: the straightforward form, through the public
# validating norm, log-norm and Jacobian functions, with the diagonal leak
# applied as a dense matrix product.
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
    return model.field(act)


def _reference_rk4(f, X, h):
    k1 = f(X)
    k2 = f(X + 0.5 * h * k1)
    k3 = f(X + 0.5 * h * k2)
    k4 = f(X + h * k3)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_verify(model, act, cert, X0, Y0, horizon, step, stride):
    """(worst decay ratio, max sampled mu), or DivergenceError's time."""
    if act.kind == "rect_poly":
        step = 0.5 * step
    n_steps = int(np.floor(horizon / step))
    pairs = X0.shape[1]
    Z = np.hstack([X0, Y0])
    f = _reference_field(model, act)
    fam, w = cert.family, cert.weights
    d0 = weighted_norm(X0 - Y0, fam, w)
    live = d0 > 0.0
    worst = 0.0
    max_mu = -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps + 1):
            if i > 0:
                Z = _reference_rk4(f, Z, step)
                if not np.all(np.isfinite(Z)):
                    return i * step
            t = i * step
            nrm = weighted_norm(Z[:, :pairs] - Z[:, pairs:], fam, w)
            if np.any(live):
                ratios = nrm[live] / (np.exp(-cert.rate * t) * d0[live])
                worst = max(worst, float(np.max(ratios)))
            if i % stride == 0:
                for col in range(Z.shape[1]):
                    max_mu = max(max_mu, log_norm(jacobian(model, act, Z[:, col]), fam, w))
    return worst, max_mu


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
    l1 and linf, and the first of them also at a made-up l2 weight."""
    if isinstance(model, (Hopfield, FiringRate)) and model.slopes.bounded:
        certs = [certify(model, L1), certify(model, LINF)]
        if isinstance(model, Hopfield):
            certs.append(dataclasses.replace(certs[0], family=L2,
                                             weights=np.linspace(0.5, 2.0, model.n)))
        return certs
    cert = certify(model)
    certs = [cert]
    if cert.alt_family is not None:
        certs.append(dataclasses.replace(cert, family=cert.alt_family,
                                         weights=cert.alt_weights))
    return certs


def test_verify_and_sampled_mu_match_reference_loop_exactly():
    tags = set()
    families = set()
    for model, act in _oracle_cases():
        for cert in _oracle_certificates(model):
            assert cert.contracting
            tags.add(model.tag)
            families.add(cert.family)
            # seeded draws, and given starts with one identical pair
            X0, Y0 = _draw_pairs(model, act, 4, 3)
            Y0[:, 1] = X0[:, 1]
            # an overclaimed rate puts the worst ratio at a late step, where
            # it depends on every bit of the states
            overclaim = dataclasses.replace(cert, rate=3.0 * cert.rate + 1.0)
            for starts, claim in ((None, cert), ((X0, Y0), cert), ((X0, Y0), overclaim)):
                report = verify_contraction(
                    model, act, claim, pairs=4, horizon=0.4, step=1e-3, seed=3,
                    mu_sample_stride=50, initial_pairs=starts,
                )
                X0s, Y0s = _draw_pairs(model, act, 4, 3) if starts is None else starts
                worst, max_mu = _reference_verify(model, act, claim, X0s, Y0s, 0.4, 1e-3, 50)
                assert report.worst_decay_ratio == worst
                assert report.max_sampled_mu == max_mu
            assert report.worst_decay_ratio > 1.0
            rng = np.random.default_rng(2)
            states = [rng.normal(scale=3.0, size=model.n) for _ in range(5)]
            assert sample_jacobian_mu(model, act, 5, cert.family, cert.weights, seed=2) == max(
                log_norm(jacobian(model, act, x), cert.family, cert.weights) for x in states
            )
    assert tags == {"hopfield", "firing_rate", "persidskii", "ax_minus_cphi",
                    "entrywise", "lure", "multilure"}
    assert families == {L1, LINF, L2}


def test_verify_contraction_states_finite_while_difference_overflows():
    # The states grow by e^(10 t) to about 2e154 and stay finite, while the
    # sum of squares in their l2 distance overflows to inf: the report fails
    # without a divergence.
    cert = optimal_certificate(
        Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0)), L1
    )
    cert = dataclasses.replace(cert, family=L2, weights=np.ones(2))
    m = Hopfield(np.eye(2), 11.0 * np.eye(2), SlopeInterval(0.0, 1.0))
    act = Activation("linear", k=1.0)
    X0 = np.array([[1e150, 1.0], [0.0, 1.0]])
    Y0 = np.array([[-1e150, 0.0], [0.0, 1.0]])
    report = verify_contraction(m, act, cert, horizon=1.0, step=1e-2, initial_pairs=(X0, Y0))
    want = _reference_verify(m, act, cert, X0, Y0, 1.0, 1e-2, 100)
    assert (report.worst_decay_ratio, report.max_sampled_mu) == want
    assert report.worst_decay_ratio == np.inf


def test_verify_contraction_reports_divergence():
    # A contracting certificate checked against a strongly unstable linear
    # Hopfield model: the state overflows inside the horizon.
    cert = optimal_certificate(
        Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0)), L1
    )
    m = Hopfield(np.eye(2), [[200.0, 200.0], [200.0, 200.0]], SlopeInterval(0.0, 1.0))
    act = Activation("linear", k=1.0)
    x0 = np.array([1.0, -0.5])
    X0, Y0 = x0[:, None], 0.5 * x0[:, None]
    with pytest.raises(DivergenceError) as info:
        verify_contraction(m, act, cert, horizon=5.0, step=1e-2, initial_pairs=(X0, Y0))
    first_bad = _reference_verify(m, act, cert, X0, Y0, 5.0, 1e-2, 100)
    assert isinstance(first_bad, float) and 0.0 < first_bad < 5.0
    assert info.value.time == first_bad
    with pytest.raises(DivergenceError) as single:
        integrate(m, act, x0, horizon=5.0, step=1e-2)
    assert single.value.time == info.value.time
