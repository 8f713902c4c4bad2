import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from mucert import (
    L1,
    Activation,
    LEFT,
    LINF,
    RIGHT,
    AxMinusCPhi,
    Entrywise,
    FiringRate,
    Hopfield,
    Lure,
    MultiLure,
    Persidskii,
    PolytopeSpec,
    SlopeInterval,
    bisect_min_mu,
    brute_force_worst_case,
    certify,
    certify_ax_minus_cphi,
    certify_entrywise,
    certify_hopfield_mh,
    certify_lure,
    certify_multilure,
    certify_persidskii,
    certify_unbounded_slope,
    envelope_matrices,
    fixed_weight_osl,
    jacobian,
    log_norm,
    metzler_majorant,
    mu1,
    muinf,
    multilure_coupling_bound,
    optimal_certificate,
    osl_firing_rate,
    osl_hopfield,
    osl_multilure_linf,
    perron_pair,
    principal_submatrix,
    spectral_abscissa,
)
from mucert.optimize import RESOLVENT_SHIFT
from mucert.spectral import ReducibleMatrixError, is_irreducible

import mucert.lognorm as lognorm_mod
from mucert import networks, spectral

from helpers import (
    DAMPED_SPIRAL,
    ROTATION_SHIFT,
    SLOPE_PATTERNS,
    closed_form_models,
    closure_reference,
    field_at,
    multilure_linf_by_sign_patterns,
    near_tie_metzler,
    random_matrix,
    random_mh_matrix,
    random_slope_pair,
    random_weights,
)


# ---------------------------------------------------------------------------
# fixed-weight bounds


def test_osl_hopfield_known_values():
    m = Hopfield(np.eye(2), np.zeros((2, 2)), SlopeInterval(-0.3, 1.0))
    assert osl_hopfield(m, L1) == pytest.approx(-1.0, abs=1e-12)
    assert osl_hopfield(m, LINF) == pytest.approx(-1.0, abs=1e-12)

    m = Hopfield(np.eye(2), [[0.0, 0.5], [0.5, 0.0]], SlopeInterval(0.0, 1.0))
    assert osl_hopfield(m, L1) == pytest.approx(-0.5, abs=1e-12)


def test_osl_hopfield_matches_vertex_enumeration():
    rng = np.random.default_rng(0)
    for k in range(100):
        n = int(rng.integers(2, 7))
        A = random_matrix(rng, n)
        C = np.diag(rng.uniform(0.0, 2.0, size=n))
        d1, d2 = random_slope_pair(rng, SLOPE_PATTERNS[k % 3])
        m = Hopfield(C, A, SlopeInterval(d1, d2))
        w = random_weights(rng, n)
        spec = PolytopeSpec(A, -np.diag(C), m.slopes, RIGHT)
        for fam in (L1, LINF):
            assert osl_hopfield(m, fam, w) == pytest.approx(
                brute_force_worst_case(spec, fam, w), abs=1e-10
            )


def test_osl_firing_rate_tightness_and_oracle():
    m = FiringRate(np.eye(2), np.zeros((2, 2)), SlopeInterval(0.0, 1.0))
    value, tight = osl_firing_rate(m, LINF)
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert not tight  # zero synapse matrix is singular

    rng = np.random.default_rng(1)
    for k in range(100):
        n = int(rng.integers(2, 7))
        A = random_matrix(rng, n)
        if np.linalg.matrix_rank(A) < n:
            continue
        C = np.diag(rng.uniform(0.0, 2.0, size=n))
        d1, d2 = random_slope_pair(rng, SLOPE_PATTERNS[k % 3])
        m = FiringRate(C, A, SlopeInterval(d1, d2))
        w = random_weights(rng, n)
        spec = PolytopeSpec(A, -np.diag(C), m.slopes, LEFT)
        for fam in (L1, LINF):
            value, tight = osl_firing_rate(m, fam, w)
            assert tight
            assert value == pytest.approx(
                brute_force_worst_case(spec, fam, w), abs=1e-10
            )


def test_osl_firing_rate_singleton_slope():
    rng = np.random.default_rng(2)
    A = random_matrix(rng, 3)
    C = np.diag(rng.uniform(0.5, 2.0, size=3))
    m = FiringRate(C, A, SlopeInterval(0.7, 0.7))
    value, _ = osl_firing_rate(m, LINF)
    assert value == pytest.approx(muinf(-C + 0.7 * A), abs=1e-12)


# ---------------------------------------------------------------------------
# weight-optimized certificates


def test_optimal_certificate_zero_lower_slope_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = random_matrix(rng, n)
        m = Hopfield(np.eye(n), A, SlopeInterval(0.0, 1.0))
        cert = optimal_certificate(m, L1)
        expected = max(-1.0, spectral_abscissa(-np.eye(n) + metzler_majorant(A)))
        b_star = bisect_min_mu(m.witnesses(L1), L1).b_star
        assert b_star == pytest.approx(expected, abs=1e-6)
        if cert.contracting:
            assert cert.rate == pytest.approx(-expected, abs=1e-6)


def test_optimal_certificate_scalar_leak_closed_form():
    m = Hopfield(2.0 * np.eye(2), [[0.0, 1.0], [1.0, 0.0]], SlopeInterval(0.5, 1.0))
    cert = optimal_certificate(m, L1)
    assert cert.contracting
    assert cert.rate == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(cert.weights / cert.weights.sum(), [0.5, 0.5], atol=1e-9)
    assert cert.theorem == "hopfield/l1/perron"
    assert cert.tight


def test_optimal_certificate_rotation_shift_not_contracting():
    m = Hopfield(np.eye(2), ROTATION_SHIFT, SlopeInterval(1.0, 1.0))
    cert = optimal_certificate(m, L1)
    assert not cert.contracting
    assert cert.osl == pytest.approx(1.0, abs=1e-6)
    assert cert.rate == 0.0


def test_optimal_certificate_lp_only_path():
    # negative d1 with nonscalar leak: no closed form applies
    rng = np.random.default_rng(4)
    n = 4
    A = random_matrix(rng, n)
    C = np.diag(rng.uniform(0.5, 2.0, size=n))
    m = Hopfield(C, A, SlopeInterval(-0.4, 1.0))
    cert = optimal_certificate(m, L1)
    assert cert.theorem == "hopfield/l1/weight-lp"
    # certificate is checkable: worst case at the carried weight == osl
    assert osl_hopfield(m, L1, cert.weights) == pytest.approx(cert.osl, abs=1e-12)
    assert cert.osl <= cert.details["b_star"] + 1e-12


def test_optimal_certificate_closed_forms_match_lp():
    rng = np.random.default_rng(5)
    for kind in ("hopfield", "firing_rate"):
        fam = L1 if kind == "hopfield" else LINF
        for precondition in ("scalar-leak", "zero-lower-slope"):
            for _ in range(6):
                n = int(rng.integers(2, 6))
                A = random_matrix(rng, n)
                if precondition == "scalar-leak":
                    C = float(rng.uniform(0.2, 2.0)) * np.eye(n)
                    d1 = float(rng.uniform(0.0, 0.5))
                    d2 = d1 + float(rng.uniform(0.1, 1.5))
                else:
                    C = np.diag(rng.uniform(0.2, 2.0, size=n))
                    d1, d2 = 0.0, float(rng.uniform(0.2, 1.5))
                model = (Hopfield if kind == "hopfield" else FiringRate)(
                    C, A, SlopeInterval(d1, d2)
                )
                cert = optimal_certificate(model, fam)
                assert cert.theorem.endswith("perron")
                b_star = bisect_min_mu(model.witnesses(fam), fam).b_star
                assert b_star == pytest.approx(cert.details["closed_form"], abs=1e-6)


def test_closed_form_never_runs_the_optimizer(monkeypatch):
    def refuse(mats, family, **kwargs):
        raise AssertionError("the optimizer ran on a closed-form input")

    monkeypatch.setattr(networks, "bisect_min_mu", refuse)
    for model, fam in closed_form_models(np.random.default_rng(11), 12, (2, 3, 5, 16)):
        assert certify(model).theorem.endswith("/perron")
        assert optimal_certificate(model, fam).theorem.endswith("/perron")
    # The patch is live: a negative lower slope has no closed form.
    with pytest.raises(AssertionError, match="optimizer ran"):
        certify(Hopfield(np.eye(2), ROTATION_SHIFT, SlopeInterval(-0.5, 1.0)))


def test_certify_hopfield_mh_is_the_l1_closed_form():
    rng = np.random.default_rng(12)
    for k in range(20):
        n = int(rng.integers(2, 12))
        A = random_matrix(rng, n)
        if k % 2:
            A[n // 2:, : n // 2] = 0.0
        C = np.diag(rng.uniform(0.2, 2.0, size=n))
        d2 = float(rng.uniform(0.1, 1.5))
        mh = certify_hopfield_mh(C, A, d2)
        closed = certify(Hopfield(C, A, SlopeInterval(0.0, d2)), L1)
        assert closed.weights.tobytes() == mh.weights.tobytes()
        assert closed.osl == mh.osl


def test_optimal_certificate_reducible_majorant_marked_nontight():
    m = Hopfield(np.eye(2), np.zeros((2, 2)), SlopeInterval(0.0, 1.0))
    cert = optimal_certificate(m, L1)
    assert cert.contracting and not cert.tight
    assert cert.rate == pytest.approx(1.0, abs=1e-6)
    assert cert.details["delta"] > 0.0


def test_optimal_certificate_weight_floor():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = random_matrix(rng, n)
        C = np.diag(rng.uniform(0.0, 2.0, size=n))
        d1, d2 = random_slope_pair(rng, "straddle")
        m = Hopfield(C, A, SlopeInterval(d1, d2))
        for fam in (L1, LINF):
            cert = optimal_certificate(m, fam)
            M1, M2 = envelope_matrices(
                PolytopeSpec(A, -np.diag(C), m.slopes, RIGHT), fam
            )
            floor = max(
                spectral_abscissa(metzler_majorant(M1)),
                spectral_abscissa(metzler_majorant(M2)),
            )
            assert cert.details["b_star"] >= floor - 1e-6


def test_certificates_ignore_bias():
    rng = np.random.default_rng(7)
    A = random_matrix(rng, 3)
    m1 = Hopfield(np.eye(3), A, SlopeInterval(0.0, 1.0), u=[1.0, -2.0, 3.0])
    m2 = Hopfield(np.eye(3), A, SlopeInterval(0.0, 1.0), u=None)
    c1 = optimal_certificate(m1, L1)
    c2 = optimal_certificate(m2, L1)
    assert c1.osl == c2.osl and c1.rate == c2.rate
    np.testing.assert_allclose(c1.weights, c2.weights)


# ---------------------------------------------------------------------------
# unbounded slopes


def test_unbounded_slope_certificates():
    c = certify_unbounded_slope("hopfield", np.zeros((2, 2)), [[-2.0, 1.0], [1.0, -2.0]], 0.5)
    assert c.contracting
    assert c.rate == pytest.approx(0.5 * 1.0, abs=1e-9)
    assert c.details["mh_sufficient"]

    c = certify_unbounded_slope("hopfield", np.eye(2), [[-2.0, 1.0], [1.0, -2.0]], 1.0)
    assert c.contracting and c.rate == pytest.approx(2.0, abs=1e-9)

    c = certify_unbounded_slope("hopfield", np.eye(2), DAMPED_SPIRAL, 0.5)
    assert not c.contracting
    assert c.details["violated"] == "majorant-not-hurwitz"

    # negative lower slope eats into the rate through the diagonal term:
    # rate = -(alpha(-C) + 0 - (|d1| - d1) * min_diag) = -(-5 + 1 * 2) = 3
    c = certify_unbounded_slope("firing_rate", 5.0 * np.eye(2), [[-2.0, 1.0], [1.0, -2.0]], -0.5)
    assert c.contracting
    assert c.rate == pytest.approx(3.0, abs=1e-9)
    assert c.family == LINF

    c = certify_unbounded_slope("firing_rate", 0.5 * np.eye(2), [[-2.0, 1.0], [1.0, -2.0]], -0.5)
    assert not c.contracting
    assert c.details["violated"] == "decay-bound-not-positive"


def test_unbounded_slope_rate_holds_at_weights_of_tied_reducible_majorant():
    # Two diagonally similar 8x8 blocks (equal Perron roots) coupled one way:
    # the weights come from the delta-perturbed pair, whose log norm sits
    # O(sqrt(delta)) above the abscissa of the majorant.
    rng = np.random.default_rng(12)
    k, n = 8, 16
    for cls in (Hopfield, FiringRate):
        B = rng.uniform(0.1, 1.0, size=(k, k))
        d = rng.uniform(0.5, 2.0, size=k)
        P = np.zeros((n, n))
        P[:k, :k] = B
        P[k:, k:] = (d[:, None] * B) / d[None, :]
        P[:k, k:] = rng.uniform(0.0, 1.0, size=(k, k))
        np.fill_diagonal(P, 0.0)
        alpha = float(np.max(np.linalg.eigvals(P).real))
        A = P - (alpha + 0.3) * np.eye(n)
        cert = certify(cls(np.eye(n), A, SlopeInterval(1.0, np.inf)))
        assert cert.contracting and not cert.tight
        for d2 in (1.0, 10.0):
            trunc = cls(np.eye(n), A, SlopeInterval(1.0, d2))
            value, _ = fixed_weight_osl(trunc, cert.family, cert.weights)
            assert value <= cert.osl + 1e-12


def test_unbounded_slope_routing_from_certify():
    m = Hopfield(np.eye(2), [[-2.0, 1.0], [1.0, -2.0]], SlopeInterval(1.0, np.inf))
    cert = certify(m)
    assert cert.theorem == "hopfield/l1/unbounded-slope"
    assert cert.contracting
    with pytest.raises(ValueError):
        certify(m, LINF)
    with pytest.raises(ValueError):
        osl_hopfield(m, L1)
    # fixed-weight and optimized bounds need a finite d2 in either norm
    for model in (m, FiringRate(np.eye(2), m.A, m.slopes)):
        for fam in (L1, LINF):
            with pytest.raises(ValueError, match="finite upper slope bound"):
                fixed_weight_osl(model, fam)
            with pytest.raises(ValueError, match="finite upper slope bound"):
                optimal_certificate(model, fam)


# ---------------------------------------------------------------------------
# special-model certificates


def test_certify_persidskii():
    c = certify_persidskii(Persidskii([[-2.0, 1.0], [1.0, -2.0]], SlopeInterval(0.5, 3.0)))
    assert c.contracting and c.tight
    assert c.rate == pytest.approx(0.5, abs=1e-9)
    assert c.family == L1

    # diagonal synapse matrix: reducible majorant takes the perturbed route
    c = certify_persidskii(Persidskii(-np.eye(2), SlopeInterval(1.0, 2.0)))
    assert c.contracting and not c.tight
    assert c.rate == pytest.approx(1.0, abs=1e-6)

    c = certify_persidskii(Persidskii(DAMPED_SPIRAL, SlopeInterval(1.0, 2.0)))
    assert not c.contracting

    with pytest.raises(ValueError):
        Persidskii(np.eye(2), SlopeInterval(0.0, 1.0))


def test_certify_hopfield_mh():
    c = certify_hopfield_mh(np.eye(2), [[0.0, 0.5], [0.5, 0.0]], 1.0)
    assert c.contracting and c.rate == pytest.approx(0.5, abs=1e-9)

    c = certify_hopfield_mh(np.eye(2), np.zeros((2, 2)), 1.0)
    assert c.contracting and c.rate == pytest.approx(1.0, abs=1e-6)
    assert not c.tight  # reducible shifted majorant

    c = certify_hopfield_mh(np.eye(2), ROTATION_SHIFT, 1.0)
    assert not c.contracting


def test_certify_hopfield_mh_validates_its_leak_and_slope_bound():
    zeros = np.zeros((2, 2))
    for C, A, d2, message in (
        (np.diag([1.0, 0.0]), zeros, 1.0, "strictly positive diagonal"),
        (np.eye(2), zeros, -1.0, "finite and nonnegative"),
        (np.eye(2), zeros, np.inf, "finite and nonnegative"),
        (np.eye(2), zeros, np.nan, "finite and nonnegative"),
        (np.eye(2), np.zeros((3, 3)), 1.0, "share one dimension"),
        (np.eye(2), [[0.0, np.nan], [0.0, 0.0]], 1.0, "matrix entries must be finite"),
        ([[1.0, 0.5], [0.0, 1.0]], zeros, 1.0, "must be diagonal"),
    ):
        with pytest.raises(ValueError, match=message):
            certify_hopfield_mh(C, A, d2)


def _zero_leak_cases():
    """Seeded (A, slopes) with 0 < d1 <= d2: dense, sparse and reducible A
    (block upper triangular), n 2-23."""
    rng = np.random.default_rng(27)
    for i in range(60):
        n = int(rng.integers(2, 24))
        A = rng.normal(size=(n, n)) / np.sqrt(n)
        if i % 3 == 1:
            A *= rng.random((n, n)) < 0.2
        elif i % 3 == 2:
            A[n // 2:, :n // 2] = 0.0
        np.fill_diagonal(A, -np.abs(np.diag(A)) - rng.uniform(0.2, 2.0))
        d1 = float(rng.uniform(0.05, 1.0))
        yield A, SlopeInterval(d1, d1 + float(rng.uniform(0.0, 2.0)))


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def _certificate_bits(cert):
    """A certificate's fields other than its theorem, numbers as bytes."""
    return {k: {dk: _bits(dv) for dk, dv in v.items()} if isinstance(v, dict)
            else _bits(v) if isinstance(v, (float, np.ndarray)) else v
            for k, v in vars(cert).items() if k != "theorem"}


def test_persidskii_is_the_zero_leak_hopfield():
    # Persidskii is Hopfield at C = 0 and u = 0: the same verdicts, weights
    # and bounds in both norms, and Jacobians, slope forms and floors that
    # are A scaled by the slopes bit for bit.  Entrywise shares all of these
    # model methods with Persidskii; only its certificate differs.
    act = Activation("leaky_relu", a=0.3)
    rng = np.random.default_rng(8)
    reducible = 0
    for A, slopes in _zero_leak_cases():
        n = A.shape[0]
        pers, entry = Persidskii(A, slopes), Entrywise(A, slopes)
        hop = Hopfield(np.zeros((n, n)), A, slopes)
        assert not isinstance(pers, Hopfield)
        for family, route in ((L1, "perron"), (LINF, "weight-lp")):
            p, h = certify(pers, family), certify(hop, family)
            assert p.theorem == f"persidskii/{family}/{route}"
            assert h.theorem == f"hopfield/{family}/{route}"
            assert p.contracting == h.contracting and p.tight == h.tight
            assert _bits(p.osl) == _bits(h.osl) and _bits(p.weights) == _bits(h.weights)
        p, h = certify(pers), certify(hop)
        alpha = p.details["alpha_majorant"]
        assert h.details == {"closed_form": max(slopes.d1 * alpha, slopes.d2 * alpha),
                             "delta": p.details["delta"]}
        reducible += p.details["delta"] > 0.0
        # The l1 witnesses are the slope-endpoint matrices d1 A and d2 A.
        assert [_bits(W) for W in pers.witnesses(L1)] == [_bits(slopes.d1 * A),
                                                         _bits(slopes.d2 * A)]

        X = rng.normal(size=(n, 6))
        s = act.deriv(X)
        for model in (pers, entry):
            assert _bits(model.jacobians(act, X)) == _bits(A * s.T[:, None, :])
            assert _bits(model.jacobians(act, X)) == _bits(hop.jacobians(act, X))
            form = model._slope_form(act, X)
            assert [_bits(v) for v in form] == [_bits(s), _bits(np.diag(A)[:, None] * s)]
            assert [_bits(v) for v in form] == [_bits(v) for v in hop._slope_form(act, X)]
            floor = model.diagonal_floor()
            assert _bits(floor) == _bits(slopes.least_product(np.diag(A)))
            assert _bits(floor) == _bits(hop.diagonal_floor())
            # The zero leak and the zero input are left out of the field.
            F = _bits(field_at(model, act, X))
            assert F == _bits(A @ act(X)) == _bits(field_at(hop, act, X))
    assert reducible >= 10


def test_persidskii_certifies_linf_by_the_optimizer():
    # The linf certificate is Hopfield's at C = 0 in every field apart from
    # the theorem; l2 is still refused.  Entrywise keeps its coupling bound,
    # which carries linf as its second norm.
    for A, slopes in itertools.islice(_zero_leak_cases(), 12):
        p = certify(Persidskii(A, slopes), LINF)
        h = certify(Hopfield(np.zeros(A.shape), A, slopes), LINF)
        assert p.theorem == "persidskii/linf/weight-lp"
        assert _certificate_bits(p) == _certificate_bits(h)
        with pytest.raises(ValueError, match="l1/linf only"):
            certify(Persidskii(A, slopes), "l2")
        e = certify(Entrywise(A, slopes), LINF)
        assert e.theorem == "entrywise/coupling-bound" and e.alt_family == LINF
        with pytest.raises(ValueError, match="fix their norm family"):
            certify(Entrywise(A, slopes), "l2")


def test_certify_ax_minus_cphi():
    m = AxMinusCPhi([[-1.0, 0.5], [0.5, -1.0]], np.eye(2), SlopeInterval(1.0, 2.0))
    c = certify_ax_minus_cphi(m)
    assert c.contracting and c.rate == pytest.approx(1.5, abs=1e-9)

    m = AxMinusCPhi([[-2.0, 1.0], [1.0, -2.0]], np.zeros((2, 2)), SlopeInterval(0.0, 1.0))
    c = certify_ax_minus_cphi(m)
    assert c.contracting and c.rate == pytest.approx(1.0, abs=1e-9)

    m = AxMinusCPhi(DAMPED_SPIRAL, np.zeros((2, 2)), SlopeInterval(0.0, 1.0))
    c = certify_ax_minus_cphi(m)
    assert not c.contracting


def test_certify_entrywise():
    # d1 = d2 reduces to the majorant test on A itself
    c = certify_entrywise(Entrywise([[-2.0, 1.0], [1.0, -2.0]], SlopeInterval(1.0, 1.0)))
    assert c.contracting and c.rate == pytest.approx(1.0, abs=1e-9)

    c = certify_entrywise(Entrywise([[-2.0, 1.0], [1.0, -2.0]], SlopeInterval(1.0, 2.0)))
    assert not c.contracting
    assert c.rate == 0.0 and abs(c.osl) <= 1e-9

    c = certify_entrywise(Entrywise([[-3.0, 1.0], [1.0, -3.0]], SlopeInterval(1.0, 2.0)))
    assert c.contracting and c.rate == pytest.approx(1.0, abs=1e-9)
    assert c.family == L1 and c.alt_family == LINF
    assert not c.tight


def test_certify_lure():
    # zero feedback vector reduces to the plain majorant optimum
    rng = np.random.default_rng(8)
    A = random_matrix(rng, 3)
    m = Lure(A, np.zeros(3), rng.normal(size=3), SlopeInterval(0.0, 1.0))
    c = certify_lure(m, L1)
    assert c.details["b_star"] == pytest.approx(
        spectral_abscissa(metzler_majorant(A)), abs=1e-6
    )

    m = Lure(-2.0 * np.eye(2), [1.0, 0.0], [1.0, 0.0], SlopeInterval(0.0, 1.0))
    c = certify_lure(m, L1)
    assert c.contracting
    assert c.osl == pytest.approx(-1.0, abs=1e-6)

    # scalar-slope grid oracle at the achieved weight
    for fam in (L1, LINF):
        A = random_matrix(rng, 4)
        b = rng.normal(size=4)
        v = rng.normal(size=4)
        d1, d2 = random_slope_pair(rng, "straddle")
        m = Lure(A, b, v, SlopeInterval(d1, d2))
        c = certify_lure(m, fam)
        grid = np.linspace(d1, d2, 101)
        worst = max(
            log_norm(A + d * np.outer(b, v), fam, c.weights) for d in grid
        )
        assert worst == pytest.approx(c.osl, abs=1e-6)
        assert c.tight


def test_multilure_coupling_bound():
    rng = np.random.default_rng(9)
    A = random_matrix(rng, 3)
    model = MultiLure(A, np.zeros((3, 2)), np.zeros((2, 3)), SlopeInterval(0.0, 1.0))
    np.testing.assert_allclose(multilure_coupling_bound(model), metzler_majorant(A), atol=1e-12)

    model = MultiLure([[-1.5]], [[2.0]], [[0.5]], SlopeInterval(0.25, 1.0))
    np.testing.assert_allclose(
        multilure_coupling_bound(model), [[-1.5 + 1.0 * 1.0]], atol=1e-12
    )

    # Monte-Carlo domination: the bound majorizes every sampled loop Jacobian
    for _ in range(5):
        n, mdim = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        A = random_matrix(rng, n)
        B = rng.normal(size=(n, mdim))
        Cout = rng.normal(size=(mdim, n))
        d1 = float(rng.uniform(0.0, 0.5))
        d2 = d1 + float(rng.uniform(0.1, 1.5))
        model = MultiLure(A, B, Cout, SlopeInterval(d1, d2))
        F = multilure_coupling_bound(model)
        for _ in range(200):
            d = rng.uniform(d1, d2, size=mdim)
            J = A + B @ np.diag(d) @ Cout
            assert np.all(metzler_majorant(J) <= F + 1e-12)

    with pytest.raises(ValueError):
        multilure_coupling_bound(
            MultiLure(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), SlopeInterval(-0.1, 1.0))
        )


def test_certify_multilure():
    A = np.array([[-2.0, 1.0], [1.0, -2.0]])
    Z = np.zeros((2, 2))
    c = certify_multilure(MultiLure(A, Z, Z, SlopeInterval(0.0, 1.0)))
    assert c.contracting and c.rate == pytest.approx(1.0, abs=1e-9)
    assert c.alt_family == LINF and c.alt_weights is not None

    c = certify_multilure(MultiLure(DAMPED_SPIRAL, Z, Z, SlopeInterval(0.0, 1.0)))
    assert not c.contracting


def test_osl_multilure_known_cases():
    rng = np.random.default_rng(10)
    A = random_matrix(rng, 3)
    Z = np.zeros((3, 2))
    w = random_weights(rng, 3)
    model = MultiLure(A, Z, np.zeros((2, 3)), SlopeInterval(0.0, 1.0))
    value, tight = osl_multilure_linf(model, w)
    assert value == pytest.approx(muinf(A, w), abs=1e-12)
    assert not tight  # m < n

    B = rng.normal(size=(3, 3))
    Cout = rng.normal(size=(3, 3))
    model = MultiLure(A, B, Cout, SlopeInterval(0.4, 0.4))
    value, tight = osl_multilure_linf(model, w)
    assert value == pytest.approx(muinf(A + 0.4 * B @ Cout, w), abs=1e-12)
    assert tight


def test_osl_multilure_matches_vertex_enumeration():
    rng = np.random.default_rng(11)
    for k in range(25):
        n = int(rng.integers(1, 6))
        mdim = int(rng.integers(1, 6))
        A = random_matrix(rng, n)
        B = rng.normal(size=(n, mdim))
        Cout = rng.normal(size=(mdim, n))
        d1, d2 = random_slope_pair(rng, SLOPE_PATTERNS[k % 3])
        model = MultiLure(A, B, Cout, SlopeInterval(d1, d2))
        w = random_weights(rng, n)
        value, _ = osl_multilure_linf(model, w)
        brute = max(
            muinf(A + B @ np.diag(bits) @ Cout, w)
            for bits in itertools.product((d1, d2), repeat=mdim)
        )
        assert value == pytest.approx(brute, abs=1e-9)


@pytest.mark.parametrize("batch", [None, 50])
def test_osl_multilure_matches_sign_pattern_oracle(batch, monkeypatch):
    # Vertex enumeration against the row-and-sign-pattern algorithm, on
    # m > n, m = 0 (B of shape (n, 0)) and every slope pattern; batch = 50
    # splits the vertices into blocks of a few.
    if batch is not None:
        monkeypatch.setattr(lognorm_mod, "VERTEX_BATCH", batch)
    rng = np.random.default_rng(31)
    for n in range(1, 8):
        for mdim in range(0, 8):
            for pattern in SLOPE_PATTERNS:
                A = random_matrix(rng, n)
                B = rng.normal(size=(n, mdim))
                Cout = rng.normal(size=(mdim, n))
                model = MultiLure(A, B, Cout, SlopeInterval(*random_slope_pair(rng, pattern)))
                w = random_weights(rng, n)
                value, tight = osl_multilure_linf(model, w)
                oracle = multilure_linf_by_sign_patterns(model, w)
                assert abs(value - oracle) <= 1e-12 * (1.0 + abs(value))
                assert tight == (mdim >= n and np.linalg.matrix_rank(Cout) == n)


def test_osl_multilure_guard_and_l1_rejection():
    # The vertex budget counts slopes and matrix entries: n = 17, m = 1 is within it.
    rng = np.random.default_rng(32)
    A = random_matrix(rng, 17)
    B = rng.normal(size=(17, 1))
    Cout = rng.normal(size=(1, 17))
    w = random_weights(rng, 17)
    model = MultiLure(A, B, Cout, SlopeInterval(0.2, 1.3))
    value, tight = osl_multilure_linf(model, w)
    assert value == max(muinf(A + d * B @ Cout, w) for d in (0.2, 1.3))
    assert not tight
    # m = 21 slopes, and 2^20 vertices of 32 x 32 matrices, are over budget.
    for n, mdim in ((2, 21), (32, 20)):
        model = MultiLure(np.eye(n), np.zeros((n, mdim)), np.zeros((mdim, n)),
                          SlopeInterval(0.0, 1.0))
        with pytest.raises(ValueError, match="vertex enumeration"):
            osl_multilure_linf(model)
    small = MultiLure(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), SlopeInterval(0.0, 1.0))
    with pytest.raises(ValueError):
        fixed_weight_osl(small, L1)


# ---------------------------------------------------------------------------
# structural properties


def test_total_contractivity_under_pruning():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        A = random_mh_matrix(rng, n)
        model = Persidskii(A, SlopeInterval(0.5, 1.5))
        base = certify_persidskii(model)
        assert base.contracting
        for size in range(2, n):
            idx = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            sub = certify_persidskii(
                Persidskii(principal_submatrix(A, idx), SlopeInterval(0.5, 1.5))
            )
            assert sub.contracting
            # dense matrices keep every submatrix majorant irreducible, so the
            # pruned rates are exact and never drop below the original
            assert sub.rate >= base.rate - 1e-9


def test_fixed_weight_osl_dispatch():
    rng = np.random.default_rng(13)
    w = np.array([1.0, 2.0])
    m = Persidskii([[-2.0, 1.0], [1.0, -2.0]], SlopeInterval(0.5, 1.0))
    value, tight = fixed_weight_osl(m, L1, w)
    spec = PolytopeSpec(m.A, np.zeros(2), m.slopes, RIGHT)
    assert value == pytest.approx(brute_force_worst_case(spec, L1, w), abs=1e-10)
    assert tight

    m = AxMinusCPhi([[-1.0, 0.5], [0.5, -1.0]], np.eye(2), SlopeInterval(0.5, 2.0))
    value, tight = fixed_weight_osl(m, LINF, w)
    assert value == pytest.approx(muinf(m.A - 0.5 * m.C, w), abs=1e-12)
    assert tight

    m = Entrywise([[-3.0, 1.0], [1.0, -3.0]], SlopeInterval(1.0, 2.0))
    value, tight = fixed_weight_osl(m, L1, w)
    assert value == pytest.approx(mu1([[-3.0, 2.0], [2.0, -3.0]], w), abs=1e-12)
    assert not tight

    # A witness that overflows to inf raises log_norm's ValueError rather
    # than returning an infinite bound.
    big = Hopfield(np.eye(2), [[0.0, 1e308], [1e308, 0.0]], SlopeInterval(-0.5, 10.0))
    with np.errstate(over="ignore"):
        mats = big.witnesses(L1)
        assert not np.all(np.isfinite(mats[1]))
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            fixed_weight_osl(big, L1)


def test_certificate_invariants():
    # Every bounded-slope certificate's osl is, to the last bit, the model's
    # own fixed-weight bound at the certificate's weights (the larger of the
    # two norms' bounds where a certificate carries two), and the verdict
    # follows from osl by the one margin rule.
    rng = np.random.default_rng(14)
    for k in range(24):
        n = int(rng.integers(2, 5))
        A = random_matrix(rng, n) - rng.uniform(0.0, 2.0) * np.eye(n)
        leak = np.diag(rng.uniform(0.1, 2.0, size=n))
        if k % 4 == 3:
            leak = float(rng.uniform(0.1, 2.0)) * np.eye(n)
        signed = SlopeInterval(*random_slope_pair(rng, SLOPE_PATTERNS[k % 3]))
        if k % 5 == 4:
            signed = SlopeInterval(0.0, float(rng.uniform(0.2, 2.0)))
        positive = SlopeInterval(*random_slope_pair(rng, "positive"))
        optimized = [
            Hopfield(leak, A, signed),
            FiringRate(leak, A, signed),
            Lure(A, rng.normal(size=n), rng.normal(size=n), signed),
        ]
        certs = [(m, certify(m, fam)) for m in optimized for fam in (L1, LINF)]
        certs += [(m, certify(m, L1)) for m in (Persidskii(A, positive),
                                               AxMinusCPhi(A, leak, signed))]
        for m in (Entrywise(A, positive),
                  MultiLure(A, rng.normal(size=(n, 2)), rng.normal(size=(2, n)), positive)):
            certs += [(m, certify(m, fam)) for fam in (L1, LINF)]
        d2 = float(rng.uniform(0.0, 2.0))
        certs.append((Hopfield(leak, A, SlopeInterval(0.0, d2)),
                      certify_hopfield_mh(leak, A, d2)))

        for m, cert in certs:
            if isinstance(m, MultiLure):
                B = multilure_coupling_bound(m)
                bound = max(log_norm(B, L1, cert.weights), log_norm(B, LINF, cert.alt_weights))
            else:
                bound = fixed_weight_osl(m, cert.family, cert.weights)[0]
                if cert.alt_family is not None:
                    bound = max(bound, fixed_weight_osl(m, cert.alt_family, cert.alt_weights)[0])
            assert cert.osl == bound, (m.tag, cert.theorem)
            assert cert.contracting == (cert.osl <= -1e-9)
            assert cert.rate == (-cert.osl if cert.contracting else 0.0)
            assert cert.margin == -cert.osl


def test_unsupported_model_types_raise_type_error():
    class NotAModel:
        A = np.eye(2)
        C = np.eye(2)
        slopes = SlopeInterval(0.0, 1.0)
        n = 2

    fake = NotAModel()
    with pytest.raises(TypeError):
        certify(fake)
    with pytest.raises(TypeError):
        fixed_weight_osl(fake, L1)
    with pytest.raises(TypeError):
        jacobian(fake, Activation("tanh"), np.zeros(2))
    for model in (fake, Persidskii([[-2.0, 1.0], [1.0, -2.0]], SlopeInterval(0.5, 1.0))):
        with pytest.raises(TypeError):
            optimal_certificate(model, L1)


# ---------------------------------------------------------------------------
# diagonal floors


def test_diagonal_floor_is_least_jacobian_diagonal():
    # Each Jacobian diagonal entry is affine in the slopes, so its least value
    # over the slope box sits at a vertex.  Apart from the multivariable loop
    # it depends on one slope (or the scalar loop's one), and the two uniform
    # linear activations at d1 and d2 reach it with the same arithmetic.
    rng = np.random.default_rng(41)
    n, slopes = 5, SlopeInterval(0.2, 1.5)
    leak = np.diag(rng.uniform(0.0, 2.0, size=n))
    A = rng.normal(size=(n, n))
    A[0, 0] = 0.0
    single = [
        Hopfield(leak, A, slopes),
        FiringRate(leak, A, slopes),
        Persidskii(A, slopes),
        AxMinusCPhi(A, leak, slopes),
        Entrywise(A, slopes),
        Lure(A, rng.normal(size=n), rng.normal(size=n), slopes),
    ]
    x = rng.normal(size=n)
    for model in single:
        diags = [np.diag(jacobian(model, Activation("linear", k=k), x)) for k in (0.2, 1.5)]
        assert np.array_equal(model.diagonal_floor(), np.minimum(*diags)), model.tag

    B, Cout = rng.normal(size=(n, 3)), rng.normal(size=(3, n))
    model = MultiLure(A, B, Cout, slopes)
    vertex_diags = [np.diag(A + B @ np.diag(d) @ Cout)
                    for d in itertools.product((0.2, 1.5), repeat=3)]
    np.testing.assert_allclose(model.diagonal_floor(), np.min(vertex_diags, axis=0),
                               rtol=1e-14, atol=1e-14)

    # Unbounded slopes: -inf where a_ii < 0, and 0 * inf = 0 where a_ii = 0.
    A = np.full((3, 3), 0.1)
    np.fill_diagonal(A, [-1.0, 0.0, 2.0])
    leak = np.diag([1.0, 2.0, 3.0])
    with np.errstate(all="raise"):
        floor = Hopfield(leak, A, SlopeInterval(0.0, np.inf)).diagonal_floor()
        assert floor.tolist() == [-np.inf, -2.0, -3.0]
        floor = FiringRate(leak, A, SlopeInterval(-0.5, np.inf)).diagonal_floor()
        assert floor.tolist() == [-np.inf, -2.0, -4.0]


def _certificate_fields(cert):
    """Every field of a certificate, arrays as bytes, for exact comparison."""
    fields = dict(vars(cert))
    for key, value in fields.items():
        if isinstance(value, np.ndarray):
            fields[key] = (value.shape, value.tobytes())
    return fields


def test_certificates_do_not_depend_on_memory_layout():
    # as_matrix copies to C order, so a model built from Fortran-ordered
    # arrays gets the certificate of its C-ordered twin bit for bit.  Before,
    # the l1 and linf kernels rounded differently on Fortran-ordered witnesses
    # (25 of these 50 AxMinusCPhi certificates had another osl).  MultiLure
    # keeps B and C as given, and its coupling bound is still C-ordered.
    rng = np.random.default_rng(0)
    F = np.asfortranarray
    for _ in range(50):
        n = int(rng.integers(8, 60))
        A = rng.normal(size=(n, n)) / np.sqrt(n)
        C = np.diag(rng.uniform(0.5, 1.5, n))
        shifted = A - 2.0 * np.eye(n)
        pairs = [
            (Hopfield(C, A, SlopeInterval(0.0, 1.0)), Hopfield(F(C), F(A), SlopeInterval(0.0, 1.0)),
             (L1, LINF)),
            (AxMinusCPhi(shifted, C, SlopeInterval(0.3, 1.0)),
             AxMinusCPhi(F(shifted), F(C), SlopeInterval(0.3, 1.0)), (None,)),
            (Persidskii(shifted, SlopeInterval(0.3, 1.0)),
             Persidskii(F(shifted), SlopeInterval(0.3, 1.0)), (None,)),
            (Entrywise(shifted, SlopeInterval(0.3, 1.0)),
             Entrywise(F(shifted), SlopeInterval(0.3, 1.0)), (None,)),
            (MultiLure(shifted, A[:, :3], A[:3], SlopeInterval(0.0, 0.5)),
             MultiLure(F(shifted), F(A[:, :3]), F(A[:3]), SlopeInterval(0.0, 0.5)), (None,)),
        ]
        for c_model, f_model, families in pairs:
            assert f_model.A.flags.c_contiguous
            for family in families:
                want = _certificate_fields(certify(c_model, family))
                assert _certificate_fields(certify(f_model, family)) == want, c_model.tag


# ---------------------------------------------------------------------------
# Perron-route certificates against references built from public functions


def _tensor_coupling_bound(model):
    """multilure_coupling_bound as it was first written: all m loop gains in
    one (n, m, n) tensor, summed over its middle axis."""
    d1, d2 = model.slopes.d1, model.slopes.d2
    T = model.B[:, :, None] * model.C[None, :, :]
    pos = np.clip(T, 0.0, None).sum(axis=1)
    neg = np.clip(T, None, 0.0).sum(axis=1)
    hi = d2 * pos + d1 * neg
    lo = d1 * pos + d2 * neg
    F = np.abs(model.A) + np.maximum(hi, -lo)
    np.fill_diagonal(F, np.diag(model.A) + np.diag(hi))
    return F


def test_multilure_coupling_bound_is_bit_identical_to_tensor_sum():
    # Summing one loop gain at a time, in k order, adds the same terms in the
    # same order as the tensor's middle-axis sum, -0.0 and zero gains included.
    rng = np.random.default_rng(31)
    for k in range(300):
        n, m = int(rng.integers(1, 41)), int(rng.integers(1, 9))
        A = rng.normal(size=(n, n))
        B, C = rng.normal(size=(n, m)), rng.normal(size=(m, n))
        B[rng.random(size=B.shape) < 0.3] = 0.0
        C[rng.random(size=C.shape) < 0.3] = -0.0
        A[rng.random(size=A.shape) < 0.2] = -0.0
        if k % 7 == 0:
            B, C = np.asfortranarray(B), np.asfortranarray(C)
        d1 = 0.0 if k % 3 == 0 else float(rng.uniform(0.0, 1.0))
        model = MultiLure(A, B, C, SlopeInterval(d1, d1 + float(rng.uniform(0.0, 2.0))))
        got = multilure_coupling_bound(model)
        assert got.tobytes() == _tensor_coupling_bound(model).tobytes()
        assert got.flags.c_contiguous


def _base_metzler(rng, n, shape):
    """Metzler matrix with abscissa near zero: dense, sparse with -0.0 off
    the diagonal, block upper triangular (reducible), or two near-tied
    blocks coupled by 1e-9."""
    if shape == "near_tie":
        M = near_tie_metzler(rng, max(2, n // 2))
    else:
        M = rng.uniform(0.0, 1.0, size=(n, n))
        if shape == "sparse":
            M[rng.random(size=(n, n)) < 0.7] = -0.0
        if shape == "reducible":
            M[n // 2:, : n // 2] = 0.0
    np.fill_diagonal(M, 0.0)
    return M - (spectral_abscissa(M) + rng.uniform(-0.2, 0.5)) * np.eye(M.shape[0])


def _signed(rng, M):
    """A matrix with Metzler majorant M: random signs off the diagonal."""
    S = M * rng.choice((-1.0, 1.0), size=M.shape)
    np.fill_diagonal(S, np.diag(M))
    return S


def _reference_pair(M):
    """The Perron pair and abscissa of an irreducible M from the public
    functions.  For a reducible M, a test-only block-resolvent reference and
    the dense abscissa of M: blocks from the closure's mutual reach, ordered
    by reach count; b = the largest block abscissa of M plus
    RESOLVENT_SHIFT, each block's abscissa from its own right Perron vector
    (its entry for a 1 x 1 block); and on M for the right weights and M.T
    (blocks reversed) for the left ones, w = (bI - S)^-1 1 solved block by
    block and scaled to unit sum."""
    try:
        pair = perron_pair(M)
    except ReducibleMatrixError:
        reach = closure_reference(M)
        label = np.argmax(reach & reach.T, axis=1)
        heads = sorted(set(label.tolist()), key=lambda h: int(reach[h].sum()))
        blocks = [np.flatnonzero(label == h) for h in heads]
        b = max(M[B[0], B[0]] if B.size == 1 else spectral._perron(M[np.ix_(B, B)], 0.0, 0, 1).alpha
                for B in blocks) + RESOLVENT_SHIFT

        def resolvent(S, order):
            w = np.zeros(S.shape[0])
            for B in order:
                w[B] = np.linalg.solve(b * np.eye(B.size) - S[np.ix_(B, B)], 1.0 + S[B] @ w)
            assert np.all(w > 0.0)
            return w / w.sum()

        pair = SimpleNamespace(right=resolvent(M, blocks), left=resolvent(M.T, blocks[::-1]),
                               irreducible=False, delta_used=RESOLVENT_SHIFT)
        return pair, spectral_abscissa(M)
    return pair, pair.alpha


def _reference_fields(osl, weights, theorem, tight, delta, alt_weights=None):
    """`_cert_fields` of the certificate that the margin rule gives at osl."""
    contracting = osl <= -networks.CONTRACTION_MARGIN
    return _cert_fields(networks.ContractionCertificate(
        contracting, -osl if contracting else 0.0, None, weights, theorem, tight,
        float(osl), float(-osl), alt_weights=alt_weights, details={"delta": delta}))


def _cert_fields(cert):
    """The certificate's fields that the Perron route must keep, as bytes."""
    return {
        "contracting": cert.contracting, "rate": cert.rate.hex(), "osl": cert.osl.hex(),
        "margin": cert.margin.hex(), "theorem": cert.theorem, "tight": cert.tight,
        "delta": float(cert.details["delta"]).hex(),
        "weights": None if cert.weights is None else cert.weights.tobytes(),
        "alt_weights": None if cert.alt_weights is None else cert.alt_weights.tobytes(),
    }


def _one_norm_reference(metzler, witnesses, family, theorem, exact, key, level=lambda a: a):
    pair, alpha = _reference_pair(metzler)
    w = pair.left if family == L1 else pair.right
    osl = max(log_norm(W, family, w) for W in witnesses)
    return (_reference_fields(osl, w, theorem, exact and pair.irreducible, pair.delta_used),
            {key: level(alpha)})


def _coupling_reference(W, theorem, key):
    pair, alpha = _reference_pair(metzler_majorant(W))
    osl = max(log_norm(W, L1, pair.left), log_norm(W, LINF, pair.right))
    return (_reference_fields(osl, pair.left, theorem, False, pair.delta_used, pair.right),
            {key: alpha})


def _unbounded_reference(model):
    family, d1 = model.family, model.slopes.d1
    M = metzler_majorant(model.A)
    pair, a_m = _reference_pair(M)
    w = pair.left if family == L1 else pair.right
    a_mc = float(np.max(-np.diag(model.C)))
    min_diag = float(np.min(np.diag(model.A)))
    m_w = log_norm(M, family, w)
    rate = -(a_mc + max(d1, 0.0) * m_w - (abs(d1) - d1) * min_diag)
    theorem = f"{model.kind}/{family}/unbounded-slope"
    if m_w < -networks.CONTRACTION_MARGIN and rate > networks.CONTRACTION_MARGIN:
        fields = _reference_fields(-rate, w, theorem, pair.irreducible, pair.delta_used)
    else:
        fields = _reference_fields(np.inf, None, theorem, False, pair.delta_used)
    statement = -a_mc + max(d1, 0.0) * a_m + (abs(d1) - d1) * min_diag
    return fields, {"alpha_majorant": a_m, "statement_rate": statement}


def _closed_form_reference(model, family):
    d1, d2 = model.slopes.d1, model.slopes.d2
    c = np.diag(model.C)
    if d1 == 0.0 and np.all(c > 0.0):
        metzler, floor = -model.C + d2 * metzler_majorant(model.A), float(np.max(-c))
        level = lambda a: max(floor, a)
    else:
        metzler = metzler_majorant(model.A)
        level = lambda a: -float(c[0]) + max(d1 * a, d2 * a)
    spec = PolytopeSpec(model.A, -c, model.slopes, model.side)
    exact = model.side == RIGHT or np.linalg.matrix_rank(model.A) == model.n
    return _one_norm_reference(metzler, envelope_matrices(spec, family), family,
                               f"{model.kind}/{family}/perron", exact, "closed_form", level)


def _perron_route_cases(rng):
    """(certificate, reference fields, reference abscissa details) over every
    model whose certificate takes a Perron vector."""
    cases = []
    for k in range(96):
        n = int(rng.integers(2, 25))
        shape = ("dense", "sparse", "reducible", "near_tie")[k % 4]
        M = _base_metzler(rng, n, shape)
        n = M.shape[0]
        A = _signed(rng, M)
        d1 = float(rng.uniform(0.1, 0.8))
        slopes = SlopeInterval(d1, d1 + float(rng.uniform(0.0, 1.0)))
        leak = np.diag(rng.uniform(0.5, 1.5, size=n))
        kind = k % 6
        if kind == 0:
            model = Persidskii(A, slopes)
            ref = _one_norm_reference(
                M, envelope_matrices(PolytopeSpec(A, np.zeros(n), slopes, RIGHT), L1), L1,
                "persidskii/l1/perron", True, "alpha_majorant")
        elif kind == 1:
            model = AxMinusCPhi(A + d1 * leak, leak, slopes)
            ref = _one_norm_reference(
                metzler_majorant(model.A) - d1 * leak, [model.A - d1 * leak], L1,
                "ax-minus-cphi/l1/perron", True, "alpha_shifted_majorant")
        elif kind == 2:
            model = Entrywise(A, slopes)
            W = slopes.d2 * A - (slopes.d2 - d1) * np.diag(np.diag(A))
            ref = _coupling_reference(W, "entrywise/coupling-bound", "alpha_envelope")
        elif kind == 3:
            m = int(rng.integers(1, 5))
            B = rng.normal(scale=0.3, size=(n, m))
            B[0] = -0.0
            model = MultiLure(A, B, rng.normal(scale=0.3, size=(m, n)), SlopeInterval(0.0, 1.0))
            ref = _coupling_reference(_tensor_coupling_bound(model),
                                      "multilure/coupling-bound", "alpha_coupling")
        else:
            cls = Hopfield if kind == 4 else FiringRate
            model = cls(leak, A, SlopeInterval(float(rng.uniform(-0.3, 0.6)), np.inf))
            ref = _unbounded_reference(model)
        cases.append((certify(model), *ref))

        d2 = float(rng.uniform(0.2, 1.5))
        cases.append((certify_hopfield_mh(leak, A, d2), *_one_norm_reference(
            -leak + d2 * metzler_majorant(A),
            envelope_matrices(PolytopeSpec(A, -np.diag(leak), SlopeInterval(0.0, d2), RIGHT), L1),
            L1, "hopfield-mh/l1/perron", True, "alpha_shifted_majorant")))
    for model, family in closed_form_models(rng, 24, (2, 3, 8, 17)):
        cases.append((certify(model, family), *_closed_form_reference(model, family)))
    return cases


def test_perron_route_certificates_match_public_pair_reference():
    # Every Perron-route certificate trusts the model's validated matrices and
    # a one-norm certificate steps only the vector it carries.  Against the
    # public perron_pair + log_norm, or for a reducible majorant the
    # block-resolvent reference: weights, osl, rate, margin, tight, theorem
    # and delta are equal as bytes; the abscissa details (one vector's
    # Rayleigh quotient instead of the mean of two, or the dense abscissa)
    # agree to 1e-10 relative, reducible and near-tied majorants included.
    cases = _perron_route_cases(np.random.default_rng(47))
    theorems = set()
    for cert, fields, details in cases:
        assert _cert_fields(cert) == fields, cert.theorem
        for key, want in details.items():
            got = cert.details[key]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (cert.theorem, key)
        theorems.add(cert.theorem.split("/")[0] + ("" if cert.tight else "-loose"))
    assert len(cases) >= 200
    assert {"persidskii", "persidskii-loose", "ax-minus-cphi", "ax-minus-cphi-loose",
            "hopfield-mh", "hopfield-mh-loose", "entrywise-loose", "multilure-loose",
            "hopfield", "firing-rate"} <= theorems


def test_reducible_weights_are_the_same_bits_in_every_family():
    # A reducible majorant's abscissa is taken once, from M's blocks,
    # whichever vectors a certificate carries: the weights of an l1 or a
    # linf certificate are those of a certificate in both norms, bit for
    # bit, and so is the abscissa.
    rng = np.random.default_rng(53)
    for trial in range(120):
        n = int(rng.integers(4, 41))
        M = _base_metzler(rng, n, "reducible")
        if trial % 2:
            M[rng.random(size=M.shape) < 0.5] = 0.0
            np.fill_diagonal(M, rng.normal(size=n))
        assert not is_irreducible(M)
        right, left, alpha, shift = networks._perron_weights(M)
        assert shift == RESOLVENT_SHIFT
        r, no_left, a_r, _ = networks._perron_weights(M, LINF)
        no_right, l, a_l, _ = networks._perron_weights(M, L1)
        assert no_left is None and no_right is None
        assert r.tobytes() == right.tobytes() and l.tobytes() == left.tobytes()
        assert a_r == alpha == a_l


def test_one_norm_certificate_makes_one_product_per_power_step(monkeypatch):
    # A one-norm certificate power-iterates only the vector it carries, the
    # left one (on N.T) for l1 and the right one (on N) for linf: one matmul
    # per step.  A certificate in both norms steps both.
    products, runs = [], []
    matmul, power = np.matmul, spectral._power_vector
    monkeypatch.setattr(np, "matmul", lambda a, *args, **kw: products.append(a) or
                        matmul(a, *args, **kw))

    def spy(N, *rows):
        runs.append(power(N, *rows))
        return runs[-1]

    monkeypatch.setattr(spectral, "_power_vector", spy)
    rng = np.random.default_rng(5)
    n = 12
    M = _base_metzler(rng, n, "dense")
    A = _signed(rng, M)
    leak = np.diag(rng.uniform(0.5, 1.5, size=n))
    unbounded = SlopeInterval(0.2, np.inf)
    for model, row in [
        (Persidskii(A, SlopeInterval(0.5, 1.0)), 1),
        (AxMinusCPhi(A, leak, SlopeInterval(0.5, 1.0)), 1),
        (Hopfield(leak, A, unbounded), 1),
        (FiringRate(leak, A, unbounded), 0),
        (Hopfield(leak, A, SlopeInterval(0.0, 1.0)), 1),
        (FiringRate(leak, A, SlopeInterval(0.0, 1.0)), 0),
        (Entrywise(A, SlopeInterval(0.5, 1.0)), None),
    ]:
        products.clear()
        runs.clear()
        cert = certify(model)
        assert len(runs) == 1, model.tag
        vectors, steps, _ = runs[0]
        if row is None:
            assert len(products) == sum(steps) and min(steps) > 0
            continue
        assert steps[1 - row] == 0 and vectors[1 - row] is None
        assert len(products) == steps[row] > 0, model.tag
        # The left vector steps on the transposed (Fortran-ordered) view.
        assert all(p.flags.c_contiguous == (row == 0) for p in products)
        assert cert.weights.tobytes() == vectors[row].tobytes()


def test_overflowing_perron_matrix_is_a_validation_error():
    # The Perron route does not validate its Metzler matrix again, but one
    # that overflowed when it was built still raises the ValueError that
    # validation gave, before any power step; a finite matrix whose shift
    # overflows stays a NumericalError.
    huge = [[0.0, 1e308], [1e308, 0.0]]
    slopes = SlopeInterval(0.0, 10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for call in (
            lambda: certify(Hopfield(np.eye(2), huge, slopes)),
            lambda: certify(FiringRate(np.eye(2), huge, slopes)),
            lambda: certify_hopfield_mh(np.eye(2), huge, 10.0),
            lambda: certify(AxMinusCPhi([[0.0, 1.0], [1.0, 0.0]], 1e308 * np.eye(2),
                                        SlopeInterval(10.0, 20.0))),
            lambda: certify(Entrywise([[1e308, 1.0], [1.0, -1.0]], SlopeInterval(0.5, 10.0))),
            lambda: certify(MultiLure(-np.eye(2), [[1e200], [1.0]], [[1e200, 1.0]],
                                      SlopeInterval(0.0, 1.0))),
        ):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                call()
    with pytest.raises(spectral.NumericalError, match="overflows"):
        certify(Persidskii([[1e308, 1.0], [1.0, -1.0]], SlopeInterval(0.5, 10.0)))
