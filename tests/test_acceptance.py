"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import dataclasses
import itertools

import numpy as np

from mucert import (
    L1,
    LEFT,
    LINF,
    RIGHT,
    FiringRate,
    Hopfield,
    MultiLure,
    PolytopeSpec,
    SlopeInterval,
    bisect_min_mu,
    brute_force_worst_case,
    certify,
    edge_removal_check,
    metzler_majorant,
    mu1,
    mu2,
    muinf,
    optimal_certificate,
    osl_multilure_linf,
    perron_weights,
    pruning_robustness,
    sample_jacobian_mu,
    scaled_majorant_identity,
    spectral_abscissa,
    verify_contraction,
    worst_case_mu,
)

from helpers import (
    DAMPED_SPIRAL,
    ROTATION_SHIFT,
    SKEW_RING,
    SKEW_RING_EDGE,
    SLOPE_PATTERNS,
    STABLE_POS_DIAG,
    acceptance_fixtures,
    random_irreducible_metzler,
    random_matrix,
    random_mh_matrix,
    random_slope_pair,
    random_weights,
)


def _report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_reference_fixture_values():
    checks = [
        ("mu2 of the damped spiral", mu2(DAMPED_SPIRAL), -0.5, 1e-9),
        (
            "majorant abscissa of the damped spiral",
            spectral_abscissa(metzler_majorant(DAMPED_SPIRAL)),
            np.sqrt(2.0) - 1.0,
            1e-9,
        ),
        ("abscissa of the stable positive-diagonal fixture",
         spectral_abscissa(STABLE_POS_DIAG), -1.0, 1e-9),
        ("abscissa of the rotation shift", spectral_abscissa(ROTATION_SHIFT), 1.0, 1e-9),
        (
            "majorant abscissa of the rotation shift",
            spectral_abscissa(metzler_majorant(ROTATION_SHIFT)),
            2.0,
            1e-9,
        ),
        ("mu2 of the rotation shift", mu2(ROTATION_SHIFT), 1.0, 1e-9),
        ("mu2 of the rotation-shift majorant",
         mu2(metzler_majorant(ROTATION_SHIFT)), 2.0, 1e-9),
        ("mu2 of the skew ring", mu2(SKEW_RING), 0.0, 1e-9),
    ]
    pruned = SKEW_RING.copy()
    pruned[SKEW_RING_EDGE] = 0.0
    # The published 4-digit abscissa belongs to the -I-shifted pruned ring;
    # the unshifted value sits exactly one unit above it.
    checks.append(
        ("abscissa of the shifted pruned ring",
         spectral_abscissa(-np.eye(3) + pruned), 1.1971, 1e-3)
    )
    checks.append(
        ("abscissa of the pruned ring", spectral_abscissa(pruned), 2.1971, 1e-3)
    )
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    worst = max(abs(got - want) for _, got, want, _ in checks)
    _report(1, ok, f"{len(checks)} reference values reproduced (worst error {worst:.2e})")


def test_criterion_02_worst_case_equals_vertex_enumeration():
    rng = np.random.default_rng(20)
    worst = 0.0
    count = 0
    for k in range(200):
        n = int(rng.integers(2, 9))
        A = random_matrix(rng, n)
        c = rng.normal(size=n)
        w = random_weights(rng, n)
        d1, d2 = random_slope_pair(rng, SLOPE_PATTERNS[k % 3])
        for side in (LEFT, RIGHT):
            for fam in (L1, LINF):
                spec = PolytopeSpec(A, c, SlopeInterval(d1, d2), side)
                gap = abs(
                    worst_case_mu(spec, fam, w) - brute_force_worst_case(spec, fam, w)
                )
                worst = max(worst, gap)
                count += 1
    ok = worst <= 1e-10
    _report(2, ok, f"{count} polytope instances, two-matrix value vs 2^n vertices "
                   f"(worst gap {worst:.2e}, tol 1e-10)")


def test_criterion_03_scaling_identity_exact():
    rng = np.random.default_rng(21)
    gammas = [-2.0, -1.0, 0.0, 0.5, 3.0]
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(1, 8))
        A = random_matrix(rng, n, scale=rng.uniform(0.5, 4.0))
        g = gammas[k] if k < len(gammas) else float(rng.normal(scale=2.0))
        lhs, rhs = scaled_majorant_identity(g, A)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-12
    _report(3, ok, f"100 scaled-majorant identities entrywise equal "
                   f"(worst {worst:.2e}, tol 1e-12)")


def test_criterion_04_bisection_reaches_majorant_abscissa():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        A = random_matrix(rng, n)
        target = spectral_abscissa(metzler_majorant(A))
        for fam in (L1, LINF):
            res = bisect_min_mu([A], fam)
            worst = max(worst, abs(res.b_star - target))
    ok = worst <= 1e-6
    _report(4, ok, f"100 matrices x 2 families: optimized level vs majorant "
                   f"abscissa (worst gap {worst:.2e}, tol 1e-6)")


def test_criterion_05_dominant_eigenvector_weights():
    rng = np.random.default_rng(23)
    worst_irr = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        M = random_irreducible_metzler(rng, n)
        a = spectral_abscissa(M)
        w = perron_weights(M, 1)
        v = perron_weights(M, np.inf)
        worst_irr = max(worst_irr, abs(mu1(M, w) - a), abs(muinf(M, 1.0 / v) - a))
    ok_irr = worst_irr <= 1e-9

    worst_red = 0.0
    for _ in range(20):
        blocks = []
        for _ in range(int(rng.integers(2, 4))):
            blocks.append(random_irreducible_metzler(rng, int(rng.integers(1, 4))))
        n = sum(b.shape[0] for b in blocks)
        M = np.zeros((n, n))
        at = 0
        for b in blocks:
            k = b.shape[0]
            M[at : at + k, at : at + k] = b
            at += k
        a = spectral_abscissa(M)
        w = perron_weights(M, 1, delta=1e-8)
        v = perron_weights(M, np.inf, delta=1e-8)
        worst_red = max(
            worst_red, mu1(M, w) - a, muinf(M, 1.0 / v) - a, a - mu1(M, w), a - muinf(M, 1.0 / v)
        )
    ok_red = worst_red <= 1e-6
    _report(5, ok_irr and ok_red,
            f"50 irreducible weights meet the abscissa (worst {worst_irr:.2e}, tol "
            f"1e-9); 20 block-diagonal perturbed weights within {worst_red:.2e} "
            f"(tol 1e-6)")


def test_criterion_06_closed_forms_match_lp():
    rng = np.random.default_rng(24)
    worst = 0.0
    count = 0
    for precondition in ("scalar-leak", "zero-lower-slope"):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            A = random_matrix(rng, n)
            if precondition == "scalar-leak":
                C = float(rng.uniform(0.2, 2.5)) * np.eye(n)
                d1 = float(rng.uniform(0.0, 0.6))
                d2 = d1 + float(rng.uniform(0.05, 1.5))
            else:
                C = np.diag(rng.uniform(0.2, 2.5, size=n))
                d1, d2 = 0.0, float(rng.uniform(0.1, 1.5))
            slopes = SlopeInterval(d1, d2)
            for model, fam in (
                (Hopfield(C, A, slopes), L1),
                (FiringRate(C, A, slopes), LINF),
            ):
                cert = optimal_certificate(model, fam)
                assert "closed_form" in cert.details
                b_star = bisect_min_mu(model.witnesses(fam), fam).b_star
                worst = max(worst, abs(b_star - cert.details["closed_form"]))
                count += 1
    ok = worst <= 1e-6
    _report(6, ok, f"{count} closed-form optima vs LP (worst gap {worst:.2e}, tol 1e-6)")


def test_criterion_07_multilure_solver():
    rng = np.random.default_rng(25)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 7))
        A = random_matrix(rng, n)
        B = rng.normal(size=(n, n))
        while np.linalg.matrix_rank(Cout := rng.normal(size=(n, n))) < n:
            pass
        d1, d2 = random_slope_pair(rng, SLOPE_PATTERNS[k % 3])
        model = MultiLure(A, B, Cout, SlopeInterval(d1, d2))
        w = random_weights(rng, n)
        value, tight = osl_multilure_linf(model, w)
        assert tight
        brute = max(
            muinf(A + B @ np.diag(bits) @ Cout, w)
            for bits in itertools.product((d1, d2), repeat=n)
        )
        worst = max(worst, abs(value - brute))
    ok_exact = worst <= 1e-9

    ok_bound = True
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = n + int(rng.integers(0, 3))
        r = int(rng.integers(1, n))  # deficient rank
        A = random_matrix(rng, n)
        B = rng.normal(size=(n, m))
        Cout = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        d1, d2 = random_slope_pair(rng, "straddle")
        model = MultiLure(A, B, Cout, SlopeInterval(d1, d2))
        w = random_weights(rng, n)
        value, tight = osl_multilure_linf(model, w)
        assert not tight
        probes = [
            muinf(A + B @ np.diag(bits) @ Cout, w)
            for bits in itertools.product((d1, d2), repeat=m)
        ]
        probes += [
            muinf(A + B @ np.diag(rng.uniform(d1, d2, size=m)) @ Cout, w)
            for _ in range(200)
        ]
        if max(probes) > value + 1e-9:
            ok_bound = False
    _report(7, ok_exact and ok_bound,
            f"100 full-rank instances vs 2^m vertices (worst gap {worst:.2e}, tol "
            f"1e-9); 20 rank-deficient values dominate their slope-grid probes")


def test_criterion_08_simulation_verification():
    results = []
    for name, model, act, fam in acceptance_fixtures():
        cert = certify(model, fam)
        assert cert.contracting, name
        rep = verify_contraction(model, act, cert, pairs=20, horizon=5.0, step=1e-3, seed=11)
        results.append((name, rep.worst_decay_ratio))
    ok_all = all(r <= 1.001 for _, r in results)

    name, model, act, fam = acceptance_fixtures()[0]
    cert = certify(model, fam)
    doubled = dataclasses.replace(cert, rate=2.0 * cert.rate)
    rep = verify_contraction(model, act, doubled, pairs=20, horizon=5.0, step=1e-3, seed=11)
    ok_neg = rep.worst_decay_ratio > 1.001

    worst = max(r for _, r in results)
    _report(8, ok_all and ok_neg,
            f"{len(results)} certified fixtures decay within ratio 1.001 (worst "
            f"{worst:.6f}); doubled-rate control violates at ratio "
            f"{rep.worst_decay_ratio:.1f}")


def test_criterion_09_pruning_and_edge_removal():
    rng = np.random.default_rng(26)
    ok_prune = True
    for _ in range(30):
        n = int(rng.integers(2, 7))
        A = random_mh_matrix(rng, n)
        report = pruning_robustness(A)
        if not report.all_m_hurwitz or len(report.entries) != 2**n - 1:
            ok_prune = False
    before, after = edge_removal_check(SKEW_RING, [SKEW_RING_EDGE], shift=-1.0)
    ok_edge = before and not after
    _report(9, ok_prune and ok_edge,
            "30 stable-majorant matrices keep every principal submatrix stable; "
            f"ring edge removal flips Hurwitz {before} -> {after} at shift -1")


def test_criterion_10_sampled_jacobian_direction():
    ok_upper = True
    relu_gaps = []
    details = []
    for name, model, act, fam in acceptance_fixtures():
        cert = certify(model, fam)
        sampled = sample_jacobian_mu(
            model, act, 1000, cert.family, cert.weights, seed=13
        )
        if sampled > cert.osl + 1e-9:
            ok_upper = False
        if act.kind == "relu":
            relu_gaps.append(cert.osl - sampled)
        details.append((name, cert.osl - sampled))
    ok_tightness = any(gap <= 0.05 for gap in relu_gaps)
    worst = max(gap for _, gap in details)
    _report(10, ok_upper and ok_tightness,
            f"1000-state Jacobian sampling stays below every certified bound and "
            f"approaches it on a relu fixture (largest gap {worst:.2e}, "
            f"relu gaps {['%.2e' % g for g in relu_gaps]})")
