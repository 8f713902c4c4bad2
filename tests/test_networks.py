import itertools
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from mucert import (
    L1,
    L2,
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


def _rank_cases(rng, n):
    """Square matrices on both sides of numpy's rank test: prescribed
    condition numbers 1 to 1e18, rank-deficient matrices plus noise, and an
    integer matrix with a repeated row."""
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    for kappa in (1.0, 1e3, 1e6, 1e9, 1e12, 1e14, 1e16, 1e18):
        yield (U * np.logspace(0.0, -np.log10(kappa), n)) @ V.T
    for rank in sorted({0, n // 2, n - 1}):
        low = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))
        for noise in (0.0, 1e-17, 1e-15, 1e-13, 1e-8):
            yield low + noise * rng.normal(size=(n, n))
    K = rng.integers(-9, 10, size=(n, n)).astype(float)
    K[-1] = K[0]
    yield K


def test_firing_rate_tight_is_the_rank_test():
    # `exact` (a certificate's `tight`) is numpy's rank test on A, whichever
    # of the scaled Cholesky test and the SVD decides it, at every entry
    # scale from 1e-300 to 1e300, and without a warning.
    rng = np.random.default_rng(77)
    decided = {True: 0, False: 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3, 5, 8, 16, 64, 128):
            for A in _rank_cases(rng, n):
                for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
                    model = FiringRate(np.eye(n), scale * A, SlopeInterval(-0.3, 1.0))
                    want = bool(np.linalg.matrix_rank(model.A) == n)
                    assert model.exact == want, (n, scale)
                    decided[want] += 1
    assert min(decided.values()) >= 300


def test_multilure_tight_is_the_rank_test_on_c():
    rng = np.random.default_rng(78)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3, 5):
            for Cout in _rank_cases(rng, n):
                for mdim, C in ((n, Cout), (n + 1, np.vstack([Cout, Cout[:1]]))):
                    model = MultiLure(random_matrix(rng, n), rng.normal(size=(n, mdim)), C,
                                      SlopeInterval(-0.2, 1.0))
                    tight = osl_multilure_linf(model)[1]
                    assert tight == (mdim == n and np.linalg.matrix_rank(C) == n)


def test_weight_lp_firing_rate_certificates_take_no_svd(monkeypatch):
    # certify-lp's firing-rate inputs (d1 < 0, n = 16 to 128) are decided
    # invertible by the Cholesky test alone.
    def refuse(*args, **kwargs):
        raise AssertionError("matrix_rank ran")

    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    rng = np.random.default_rng(79)
    for n in (16, 32, 64, 128):
        for _ in range(3):
            G = rng.normal(size=(n, n))
            A = rng.uniform(0.4, 1.1) * G / spectral_abscissa(metzler_majorant(G))
            model = FiringRate(np.diag(rng.uniform(0.8, 1.2, size=n)), A,
                               SlopeInterval(-rng.uniform(0.1, 0.5), 1.0))
            cert = certify(model, LINF)
            assert cert.theorem == "firing-rate/linf/weight-lp" and cert.tight
    with pytest.raises(AssertionError, match="matrix_rank ran"):
        FiringRate(np.eye(2), np.zeros((2, 2)), SlopeInterval(-0.3, 1.0)).exact


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


def test_fixed_norm_analyses_refuse_other_families_before_any_work(monkeypatch):
    # AxMinusCPhi fixes l1, Entrywise and MultiLure fix l1 and linf.  Any
    # other family is refused before a Perron vector is taken, so a MultiLure
    # with d1 < 0, whose coupling bound raises, is refused for its family.
    def no_work(*args, **kwargs):
        raise AssertionError("a refused family reached the Perron weights")

    monkeypatch.setattr(networks, "_perron_weights", no_work)
    A = np.array([[-2.0, 1.0], [1.0, -2.0]])
    Z = np.zeros((2, 2))
    for model, family, norms in (
        (AxMinusCPhi(A, np.eye(2), SlopeInterval(0.0, 1.0)), LINF, "l1"),
        (AxMinusCPhi(A, np.eye(2), SlopeInterval(0.0, 1.0)), "l2", "l1"),
        (Entrywise(A, SlopeInterval(0.5, 1.0)), "l2", "l1 and linf"),
        (MultiLure(A, Z, Z, SlopeInterval(0.0, 1.0)), "l2", "l1 and linf"),
        (MultiLure(A, Z, Z, SlopeInterval(-0.5, 1.0)), "l2", "l1 and linf"),
    ):
        with pytest.raises(ValueError) as info:
            certify(model, family)
        assert str(info.value) == (
            f"{type(model).__name__} certificates fix their norm family ({norms})")


def test_model_refusals_keep_their_messages():
    S = SlopeInterval(0.0, 1.0)
    for make, message in (
        (lambda: AxMinusCPhi(np.eye(2), np.eye(3), S), "C and A must share one dimension"),
        (lambda: MultiLure(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), S),
         "B must be 2 x m, got shape (3, 1)"),
        (lambda: MultiLure(np.eye(2), np.ones(2), np.ones((1, 2)), S),
         "B must be 2 x m, got shape (2,)"),
        (lambda: MultiLure(np.eye(2), np.ones((2, 1)), np.ones((2, 1)), S),
         "C must be 1 x 2, got shape (2, 1)"),
        (lambda: MultiLure(np.eye(2), [[1.0], [np.inf]], np.ones((1, 2)), S),
         "matrix entries must be finite"),
        (lambda: MultiLure(np.eye(2), np.ones((2, 1)), [[np.nan, 1.0]], S),
         "matrix entries must be finite"),
        (lambda: certify_unbounded_slope("lure", np.eye(2), np.eye(2), 0.0),
         "kind must be 'hopfield' or 'firing_rate', got 'lure'"),
    ):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


def test_models_refuse_slopes_that_are_not_a_slope_interval_at_construction():
    # Hopfield(C, A, None) used to construct, and (0, 1) or a dict failed
    # only when the model was certified, with AttributeError.
    A, C = np.array([[-1.0, 0.2], [0.3, -1.0]]), np.eye(2)
    makers = {
        "hopfield": lambda s: Hopfield(C, A, s),
        "firing_rate": lambda s: FiringRate(C, A, s),
        "persidskii": lambda s: Persidskii(A, s),
        "entrywise": lambda s: Entrywise(A, s),
        "ax_minus_cphi": lambda s: AxMinusCPhi(A, C, s),
        "lure": lambda s: Lure(A, [1.0, 0.5], [0.3, -0.2], s),
        "multilure": lambda s: MultiLure(A, np.ones((2, 1)), np.ones((1, 2)), s),
        "polytope": lambda s: PolytopeSpec(A, [-1.0, -1.0], s, LEFT),
    }
    assert set(makers) == set(networks.MODELS) | {"polytope"}
    for tag, make in makers.items():
        make(SlopeInterval(0.5, 1.0))
        for bad in (None, (0.5, 1.0), {"d1": 0.5, "d2": 1.0}):
            with pytest.raises(TypeError) as info:
                make(bad)
            assert str(info.value) == f"slopes must be a SlopeInterval, got {type(bad).__name__}"


def test_fixed_weight_osl_of_a_multilure_is_its_linf_solver():
    rng = np.random.default_rng(41)
    for m in (1, 2, 3):
        model = MultiLure(random_matrix(rng, 3), rng.normal(size=(3, m)),
                          rng.normal(size=(m, 3)), SlopeInterval(0.0, 1.0))
        for w in (None, random_weights(rng, 3)):
            value, tight = fixed_weight_osl(model, LINF, w)
            want, want_tight = osl_multilure_linf(model, w)
            assert value.hex() == want.hex() and tight == want_tight


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
                assert tight == (mdim == n and np.linalg.matrix_rank(Cout) == n)


def test_osl_multilure_is_not_tight_where_c_x_misses_slope_vertices():
    # m = 2 > n = 1: C x = (x, x) puts both slopes at one point, so every
    # Jacobian is -1 + s - s = -1, while the vertex (1, 0) reads 0.  The
    # vertex maximum is then an upper bound only.
    model = MultiLure([[-1.0]], [[1.0, -1.0]], [[1.0], [1.0]], SlopeInterval(0.0, 1.0))
    assert osl_multilure_linf(model) == (0.0, False)
    act = Activation("tanh")
    assert all(jacobian(model, act, [x]).tolist() == [[-1.0]] for x in np.linspace(-3, 3, 13))


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


# The norm families whose fixed-weight bound each model tag gives; it
# refuses the others.
_BOUND_FAMILIES = {
    "hopfield": (L1, LINF), "firing_rate": (L1, LINF), "persidskii": (L1, LINF),
    "ax_minus_cphi": (L1, LINF, L2), "entrywise": (L1, LINF), "lure": (L1, LINF, L2),
    "multilure": (LINF,),
}


def _vertex_jacobians(model):
    """Every Jacobian of a small model at a vertex of its slope box, from the
    model's own formula: per coordinate for the slope-scaled models, per
    loop slope for the loops, per entry of A for Entrywise."""
    d, A, n = (model.slopes.d1, model.slopes.d2), model.A, model.n
    if model.tag == "entrywise":
        return [A * np.reshape(s, (n, n)) for s in itertools.product(d, repeat=n * n)]
    if model.tag in ("lure", "multilure"):
        B, C = model.B, model.C
        return [A + B @ (np.array(s)[:, None] * C)
                for s in itertools.product(d, repeat=B.shape[1])]
    J = {"hopfield": lambda s: A * s - model.C, "persidskii": lambda s: A * s,
         "firing_rate": lambda s: s[:, None] * A - model.C,
         "ax_minus_cphi": lambda s: A - model.C * s}[model.tag]
    return [J(np.array(s)) for s in itertools.product(d, repeat=n)]


def test_fixed_weight_bounds_dominate_every_slope_vertex():
    # Each tag's fixed-weight bound at random weights is at least the log norm
    # of every vertex Jacobian, in each family the tag accepts, and each
    # other family raises ValueError.  Diagonals of A take both signs: the
    # Jacobian diagonal d2 a_ii > d1 a_ii of a positive a_ii is reached.
    rng = np.random.default_rng(29)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        A, C = rng.normal(size=(n, n)), np.diag(rng.uniform(0.0, 1.5, size=n))
        lo = float(rng.uniform(-0.6, 0.6))
        slopes = SlopeInterval(lo, lo + float(rng.uniform(0.0, 1.5)))
        positive = SlopeInterval(abs(lo) + 0.1, abs(lo) + 0.1 + slopes.d2 - slopes.d1)
        m = int(rng.integers(1, 4))
        models = [
            Hopfield(C, A, slopes, rng.normal(size=n)), FiringRate(C, A, slopes),
            Persidskii(A, positive), AxMinusCPhi(A, C, slopes), Entrywise(A, positive),
            Lure(A, rng.normal(size=n), rng.normal(size=n), slopes),
            MultiLure(A, rng.normal(size=(n, m)), rng.normal(size=(m, n)), positive),
        ]
        assert {model.tag for model in models} == set(_BOUND_FAMILIES)
        for model in models:
            vertices = _vertex_jacobians(model)
            for family in (L1, LINF, L2):
                w = random_weights(rng, n)
                if family not in _BOUND_FAMILIES[model.tag]:
                    with pytest.raises(ValueError):
                        fixed_weight_osl(model, family, w)
                    continue
                bound = fixed_weight_osl(model, family, w)[0]
                worst = max(log_norm(J, family, w) for J in vertices)
                assert worst <= bound + 1e-12 * max(1.0, abs(bound)), \
                    (trial, model.tag, family, worst, bound)


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


# The textbook Jacobian of each slope-scaled model at state x, from its
# slopes s there: the state's for every model but FiringRate, whose slopes
# sit at A x + u.
SLOPE_JACOBIANS = {
    "hopfield": lambda m, s: -m.C + m.A @ np.diag(s),
    "firing_rate": lambda m, s: -m.C + np.diag(s) @ m.A,
    "persidskii": lambda m, s: -m.C + m.A @ np.diag(s),
    "entrywise": lambda m, s: -m.C + m.A @ np.diag(s),
    "ax_minus_cphi": lambda m, s: m.A - m.C @ np.diag(s),
}


@pytest.mark.parametrize("tag", sorted(SLOPE_JACOBIANS))
def test_slope_jacobians_match_their_formulas(tag):
    # Bit for bit as int64 views, but for the sign of a zero off the
    # diagonal: the textbook products also add the zeros of diag(s).  A
    # carries signed zeros off its diagonal, and relu's zero slopes give
    # zero products.  The slope form's diagonals are the Jacobian diagonals
    # bit for bit.
    rng = np.random.default_rng(sorted(SLOPE_JACOBIANS).index(tag))
    cls = networks.MODELS[tag]
    acts = [Activation("leaky_relu", a=0.3), Activation("linear", k=0.7)]
    if tag not in ("persidskii", "entrywise"):
        acts += [Activation("relu"), Activation("tanh"), Activation("linear", k=-0.5)]
    for n in (1, 3, 8):
        A = rng.normal(size=(n, n))
        off = ~np.eye(n, dtype=bool) & (rng.random(size=(n, n)) < 0.4)
        A[off] = np.where(rng.random(size=(n, n)) < 0.5, 0.0, -0.0)[off]
        C = np.diag(rng.uniform(0.5, 1.5, size=n))
        if tag in ("persidskii", "entrywise"):
            model = cls(A, SlopeInterval(0.2, 1.0))
        else:
            slopes = SlopeInterval(-1.0, 1.0)
            model = (cls(A, C, slopes) if tag == "ax_minus_cphi"
                     else cls(C, A, slopes, u=rng.normal(size=n)))
        for act in acts:
            X = rng.normal(scale=2.0, size=(n, 9))
            X[rng.random(size=X.shape) < 0.2] = 0.0
            J = model.jacobians(act, X)
            s, d = model._slope_form(act, X)
            for j, x in enumerate(X.T):
                p = model.A @ x + model.u if tag == "firing_rate" else x
                assert np.array_equal(s[:, j], act.deriv(p))
                want = SLOPE_JACOBIANS[tag](model, act.deriv(p))
                same = J[j].view(np.int64) == want.view(np.int64)
                zeros = (J[j] == 0.0) & (want == 0.0) & ~np.eye(n, dtype=bool)
                assert np.all(same | zeros), (act.kind, n, J[j], want)
                assert np.diag(J[j]).tobytes() == np.diag(want).tobytes() == d[:, j].tobytes()


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


def _same_but_off_diagonal_zero_signs(got, want):
    """Equal bits, except that an off-diagonal zero may differ in sign."""
    zeros = (got == 0.0) & (want == 0.0)
    np.fill_diagonal(zeros, False)
    return bool(np.all((got.view(np.int64) == want.view(np.int64)) | zeros))


def test_in_place_builders_are_bit_identical_to_their_expressions(monkeypatch):
    # Each n x n matrix that the Perron route builds in place is the bytes of
    # the plain expression it replaced, kept here as the reference: every
    # Metzler matrix handed to `_perron_weights`, Entrywise's envelope pair and
    # AxMinusCPhi's witness A - d1 C, which may differ only in the sign of
    # an off-diagonal zero, and only for d1 < 0.  Inputs have -0.0 entries,
    # zero diagonals (+0.0 and -0.0), d1 = 0 and d1 < 0, and m = 0 loops.
    seen = []
    weights = networks._perron_weights
    monkeypatch.setattr(networks, "_perron_weights",
                        lambda M, *rest: seen.append(M.copy()) or weights(M, *rest))

    def perron_matrix(certificate):
        seen.clear()
        certificate()
        assert len(seen) == 1
        return seen[0].tobytes()

    rng = np.random.default_rng(61)
    for trial in range(60):
        n = int(rng.integers(1, 13))
        A = rng.normal(size=(n, n))
        A[rng.random(size=(n, n)) < 0.3] = -0.0
        if trial % 3:
            np.fill_diagonal(A, (0.0, -0.0)[trial % 3 - 1])
        leak = np.diag(rng.uniform(0.5, 1.5, size=n))
        d1 = (0.0, float(rng.uniform(-0.5, 0.0)), float(rng.uniform(0.0, 0.8)))[trial % 3]
        spread = float(rng.choice((0.0, rng.uniform(0.0, 1.5))))
        d2 = d1 + spread

        ax = AxMinusCPhi(A, leak, SlopeInterval(d1, d2))
        assert perron_matrix(lambda: certify(ax)) == (metzler_majorant(A) - d1 * leak).tobytes()
        (got,) = ax.witnesses(L1)
        assert _same_but_off_diagonal_zero_signs(got, A - d1 * leak)
        if d1 >= 0.0:
            assert got.tobytes() == (A - d1 * leak).tobytes()

        e1 = abs(d1) + 0.1
        slopes = SlopeInterval(e1, e1 + spread)
        pair = [slopes.d2 * A - (slopes.d2 - d) * np.diag(np.diag(A)) for d in (e1, slopes.d2)]
        entrywise = Entrywise(A, slopes)
        assert [W.tobytes() for W in entrywise.witnesses(L1)] == [W.tobytes() for W in pair]
        assert (perron_matrix(lambda: certify(entrywise))
                == metzler_majorant(np.maximum(*pair)).tobytes())
        if np.all(np.diag(A) <= 0.0):  # the single envelope d2 A - (d2 - d1)(I o A)
            assert np.maximum(*pair).tobytes() == pair[0].tobytes()
        assert (perron_matrix(lambda: certify(Persidskii(A, slopes)))
                == metzler_majorant(A).tobytes())

        shifted = (-leak + spread * metzler_majorant(A)).tobytes()
        assert perron_matrix(lambda: certify_hopfield_mh(leak, A, spread)) == shifted
        if spread > 0.0:
            hopfield = Hopfield(leak, A, SlopeInterval(0.0, spread))
            assert perron_matrix(lambda: certify(hopfield)) == shifted

        m = int(rng.integers(0, 5))
        B, C = rng.normal(size=(n, m)), rng.normal(size=(m, n))
        B[rng.random(size=B.shape) < 0.3] = 0.0
        C[rng.random(size=C.shape) < 0.3] = -0.0
        loop = MultiLure(A, B, C, SlopeInterval(max(d1, 0.0), max(d2, 0.0)))
        assert (perron_matrix(lambda: certify(loop))
                == metzler_majorant(_tensor_coupling_bound(loop)).tobytes())


def test_witness_osl_overwrites_its_witnesses_with_the_same_value():
    # `_witness_osl` writes each witness's off-diagonal magnitudes over the
    # witness: the bound is the float that log_norm takes on copies, and a
    # witness that overflowed when it was built still raises ValueError.
    rng = np.random.default_rng(67)
    for trial in range(40):
        n = int(rng.integers(1, 10))
        A = rng.normal(size=(n, n)) * 10.0 ** int(rng.integers(-3, 4))
        A[rng.random(size=(n, n)) < 0.3] = -0.0
        if trial % 4 == 0:
            np.fill_diagonal(A, 0.0)
        w = random_weights(rng, n)
        for family in (L1, LINF, "l2"):
            mats = [A.copy(), -2.0 * A]
            want = max(log_norm(M, family, w) for M in mats)
            assert networks._witness_osl(mats, family, w).hex() == want.hex()
            if family != "l2":
                assert mats[0].tobytes() == np.abs(A - np.diag(np.diag(A))).tobytes()
    slopes = SlopeInterval(10.0, 20.0)
    for model in (
        AxMinusCPhi([[0.0, 1.0], [1.0, 0.0]], 1e308 * np.eye(2), slopes),  # -inf diagonal
        Entrywise([[1e308, 1.0], [1.0, -1.0]], slopes),  # inf - inf
        Hopfield(np.eye(2), [[0.0, 1e308], [1e308, 0.0]], slopes),  # off the diagonal
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                fixed_weight_osl(model, L1)


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
        b = max(M[B[0], B[0]] if B.size == 1 else spectral._perron(M[np.ix_(B, B)], 0.0, (0,)).alpha
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


def _certify_perron_models(rng, n, shape):
    """(kind, model) for the six kinds that certify-perron certifies, built
    on a `_base_metzler` of the given shape (multilure on dense ones only),
    with d1 = 0 for the loops and AxMinusCPhi at times."""
    M = _base_metzler(rng, n, shape)
    n = M.shape[0]
    leak = np.diag(rng.uniform(0.5, 1.5, size=n))
    d1 = float(rng.uniform(0.2, 0.8))
    models = [
        ("persidskii", Persidskii(_signed(rng, M), SlopeInterval(d1, d1 + 0.5))),
        ("ax_minus_cphi", AxMinusCPhi(_signed(rng, M) + d1 * leak, leak,
                                      SlopeInterval(d1 * (shape != "dense"), 1.0))),
        ("entrywise", Entrywise(_signed(rng, M) / (d1 + 0.5), SlopeInterval(d1, d1 + 0.5))),
        ("hopfield_unbounded", Hopfield(leak, _signed(rng, M), SlopeInterval(d1 - 0.5, np.inf))),
        ("firing_rate_unbounded", FiringRate(leak, _signed(rng, M), SlopeInterval(d1, np.inf))),
    ]
    if shape == "dense":
        m = max(2, n // 64)
        B, C = rng.normal(scale=0.2, size=(n, m)), rng.normal(scale=0.2, size=(m, n))
        models.append(("multilure", MultiLure(_signed(rng, M), B, C, SlopeInterval(0.0, 1.0))))
    return models


def _every_field(cert):
    """Every field of a certificate as bytes, and its details in order."""
    def exact(value):
        if isinstance(value, np.ndarray):
            return value.tobytes()
        return value.hex() if isinstance(value, float) else value

    fields = {name: exact(value) for name, value in vars(cert).items() if name != "details"}
    fields["details"] = [(key, exact(value)) for key, value in cert.details.items()]
    return fields


def _old_expression_certificate(model):
    """certify(model) on the Perron route as it was before its n x n matrices
    were built in place: each Metzler matrix and witness a plain expression,
    a fresh array, and every log norm read by log_norm from its own copy."""
    d1, d2 = model.slopes.d1, model.slopes.d2
    if isinstance(model, (Entrywise, MultiLure)):
        if isinstance(model, Entrywise):
            W = np.maximum(*(d2 * model.A - (d2 - d) * np.diag(np.diag(model.A))
                             for d in (d1, d2)))
            theorem, key = "entrywise/coupling-bound", "alpha_envelope"
        else:
            W = _tensor_coupling_bound(model)
            theorem, key = "multilure/coupling-bound", "alpha_coupling"
        right, left, alpha, shift = networks._perron_weights(metzler_majorant(W))
        osl = max(log_norm(W, L1, left), log_norm(W, LINF, right))
        return networks._certificate(osl, L1, left, theorem, False, alt_family=LINF,
                                     alt_weights=right, delta=shift, **{key: alpha})
    if isinstance(model, (Hopfield, FiringRate)):  # unbounded slopes
        family, M = model.family, metzler_majorant(model.A)
        right, left, a_m, shift = networks._perron_weights(M, family)
        weights = left if family == L1 else right
        a_mc, min_diag = float(np.max(-np.diag(model.C))), float(np.min(np.diag(model.A)))
        m_w = log_norm(M, family, weights)
        rate = -(a_mc + max(d1, 0.0) * m_w - (abs(d1) - d1) * min_diag)
        details = {"statement_rate": -a_mc + max(d1, 0.0) * a_m + (abs(d1) - d1) * min_diag,
                   "mh_sufficient": d1 >= 0.0, "alpha_majorant": a_m, "delta": shift}
        theorem = f"{model.kind}/{family}/unbounded-slope"
        if not m_w < -networks.CONTRACTION_MARGIN:
            details["violated"] = "majorant-not-hurwitz"
        elif rate <= networks.CONTRACTION_MARGIN:
            details["violated"] = "decay-bound-not-positive"
        else:
            return networks._certificate(-rate, family, weights, theorem, shift == 0.0, **details)
        return networks._certificate(np.inf, family, None, theorem, False, **details)
    if isinstance(model, AxMinusCPhi):
        metzler, witnesses = metzler_majorant(model.A) - d1 * model.C, [model.A - d1 * model.C]
        theorem, key = "ax-minus-cphi/l1/perron", "alpha_shifted_majorant"
    else:
        metzler = metzler_majorant(model.A)
        witnesses = envelope_matrices(PolytopeSpec(model.A, -np.diag(model.C), model.slopes,
                                                   RIGHT), L1)
        theorem, key = "persidskii/l1/perron", "alpha_majorant"
    right, left, alpha, shift = networks._perron_weights(metzler, L1)
    osl = max(log_norm(W, L1, left) for W in witnesses)
    return networks._certificate(osl, L1, left, theorem, shift == 0.0, **{key: alpha},
                                 delta=shift)


def test_certify_perron_sweep_matches_old_expression_references():
    # certify-perron's six kinds at its sizes and at n = 3, with dense,
    # sparse (-0.0 entries) and reducible majorants: every field of each
    # certificate, details in order, is the bytes of the certificate that
    # the plain matrix expressions give.
    rng = np.random.default_rng(71)
    count = 0
    for n in (3, 16, 64, 256):
        for shape in ("dense", "sparse", "reducible"):
            for kind, model in _certify_perron_models(rng, n, shape):
                cert = certify(model)
                assert _every_field(cert) == _every_field(_old_expression_certificate(model)), \
                    (n, shape, kind)
                count += cert.details["delta"] > 0.0
    assert count >= 8  # reducible majorants took the resolvent route


def test_perron_certificates_hold_few_n_by_n_arrays():
    # Peak traced memory of one n = 256 certify, in n x n float arrays:
    # the Metzler matrix and its shifted copy, or the witnesses, are at most
    # two live arrays at once (2.03 to 2.04 measured); MultiLure's coupling
    # bound is built in four (4.26, with numpy's 128 KB iterator buffer for
    # the broadcast outer product).  One more temporary fails.
    rng = np.random.default_rng(73)
    n = 256
    for kind, model in _certify_perron_models(rng, n, "dense"):
        certify(model)
        tracemalloc.start()
        try:
            certify(model)
            peak = tracemalloc.get_traced_memory()[1] / (8 * n * n)
        finally:
            tracemalloc.stop()
        assert peak < (4.5 if kind == "multilure" else 2.5), (kind, peak)


def test_weight_lp_certificates_hold_few_n_by_n_arrays():
    # Peak traced memory of one n = 128 weight-lp certify, in n x n float
    # arrays (6.1 measured): the two witnesses, their majorants written once
    # into one stack, the row selection, Noda's one shifted matrix and the
    # solve's copy of it.  The stack's magnitude |M_k| (8.10), a copy of the
    # witnesses, or a fresh identity per Noda step fails (12.07 before the
    # last two went).
    rng = np.random.default_rng(74)
    n = 128
    for cls, fam in ((Hopfield, L1), (FiringRate, LINF)):
        G = rng.normal(size=(n, n))
        A = rng.uniform(0.4, 1.1) * G / spectral_abscissa(metzler_majorant(G))
        model = cls(np.diag(rng.uniform(0.8, 1.2, size=n)), A, SlopeInterval(-0.3, 1.0))
        assert certify(model, fam).theorem.endswith("/weight-lp")
        tracemalloc.start()
        try:
            certify(model, fam)
            peak = tracemalloc.get_traced_memory()[1] / (8 * n * n)
        finally:
            tracemalloc.stop()
        assert peak <= 6.5, (cls.__name__, peak)


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
    # left one (on N.T) for l1 and the right one (on N) for linf: one loop,
    # one matmul per step.  A certificate in both norms runs one loop per
    # vector, right then left.
    products, runs = [], []
    matmul, power = np.matmul, spectral._power_vector
    monkeypatch.setattr(np, "matmul", lambda a, *args, **kw: products.append(a) or
                        matmul(a, *args, **kw))

    def spy(B):
        runs.append((B.flags.c_contiguous, *power(B)))
        return runs[-1][1:]

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
        if row is None:
            (_, right, right_steps, _), (_, left, left_steps, _) = runs
            assert [run[0] for run in runs] == [True, False], model.tag
            assert len(products) == right_steps + left_steps and min(right_steps, left_steps) > 0
            assert cert.family == L1 and cert.alt_family == LINF
            assert cert.weights.tobytes() == left.tobytes()
            assert cert.alt_weights.tobytes() == right.tobytes()
            continue
        (right_side, vector, steps, _), = runs
        assert len(products) == steps > 0, model.tag
        # The left vector steps on the transposed (Fortran-ordered) view.
        assert right_side == (row == 0)
        assert all(p.flags.c_contiguous == (row == 0) for p in products)
        assert cert.weights.tobytes() == vector.tobytes()


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
