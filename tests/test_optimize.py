import itertools

import numpy as np
import pytest
import scipy.optimize

from mucert import (
    BisectResult,
    FeasibilityProblem,
    FiringRate,
    Hopfield,
    L1,
    LEFT,
    LINF,
    Lure,
    PolytopeSpec,
    RIGHT,
    SlopeInterval,
    bisect_min_mu,
    certify,
    envelope_matrices,
    feasible_weights,
    metzler_majorant,
    mu1,
    muinf,
    spectral_abscissa,
)
from mucert import optimize, spectral
from mucert.optimize import RESOLVENT_SHIFT
from mucert.spectral import RESIDUAL_RTOL

from helpers import (
    closed_form_models,
    closure_reference,
    near_tie_metzler,
    random_matrix,
    random_metzler,
)


def test_feasibility_known_cases():
    M = np.array([[-1.0, 1.0], [1.0, -1.0]])
    w = feasible_weights(FeasibilityProblem((M,), 0.0))
    assert w is not None
    np.testing.assert_array_less(M @ w, 1e-9 + 0.0 * w)

    assert feasible_weights(FeasibilityProblem((np.array([[1.0]]),), 0.0)) is None


def test_feasibility_transition_at_abscissa():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        M = random_metzler(rng, n)
        a = spectral_abscissa(M)
        assert feasible_weights(FeasibilityProblem((M,), a + 0.01)) is not None
        assert feasible_weights(FeasibilityProblem((M,), a - 0.01)) is None


def test_feasibility_matches_scipy_linprog():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 3))
        mats = tuple(random_metzler(rng, n) for _ in range(k))
        b = float(rng.normal(scale=2.0))
        problem = FeasibilityProblem(mats, b)
        mine = feasible_weights(problem)
        G = np.vstack([M - b * np.eye(n) for M in mats])
        # scipy: find w >= 1 with G w <= 0
        res = scipy.optimize.linprog(
            c=np.zeros(n),
            A_ub=G,
            b_ub=np.zeros(G.shape[0]),
            bounds=[(1.0, None)] * n,
            method="highs",
        )
        assert (mine is not None) == res.success
        if mine is not None:
            assert np.all(mine >= 1.0 - 1e-12)
            np.testing.assert_array_less(G @ mine, 1e-8 * np.ones(G.shape[0]))


def test_feasibility_monotone_in_level():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        M = random_metzler(rng, n)
        b = float(rng.normal())
        if feasible_weights(FeasibilityProblem((M,), b)) is not None:
            assert feasible_weights(FeasibilityProblem((M,), b + 0.1)) is not None


def test_feasibility_requires_metzler():
    with pytest.raises(ValueError):
        FeasibilityProblem((np.array([[0.0, -1.0], [1.0, 0.0]]),), 0.0)


def test_bisect_single_matrix_reaches_majorant_abscissa():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        A = random_matrix(rng, n)
        target = spectral_abscissa(metzler_majorant(A))
        for fam in (L1, LINF):
            res = bisect_min_mu([A], fam)
            assert res.status == "optimal"
            assert res.b_star == pytest.approx(target, abs=1e-6)


def test_bisect_rotation_shift_example():
    res = bisect_min_mu([np.array([[1.0, 1.0], [-1.0, 1.0]])], L1)
    assert res.b_star == pytest.approx(2.0, abs=1e-6)


def test_bisect_certificate_is_checkable_and_cone_invariant():
    rng = np.random.default_rng(4)
    for fam in (L1, LINF):
        n = 5
        mats = [random_matrix(rng, n), random_matrix(rng, n)]
        res = bisect_min_mu(mats, fam)
        w = res.eta_star
        assert w is not None and np.all(w >= 1.0 - 1e-12)
        mu = mu1 if fam == L1 else muinf
        worst = max(mu(M, w) for M in mats)
        assert worst <= res.b_star + 1e-8
        # any positive rescaling certifies the same level
        for theta in (0.1, 7.3):
            worst = max(mu(M, theta * w) for M in mats)
            assert worst <= res.b_star + 1e-8


def test_bisect_two_matrix_shifted_majorant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A = random_matrix(rng, n)
        mats = [-np.eye(n), -np.eye(n) + A]
        res = bisect_min_mu(mats, L1)
        target = max(-1.0, spectral_abscissa(-np.eye(n) + metzler_majorant(A)))
        assert res.b_star == pytest.approx(target, abs=1e-6)


def test_bisect_floor_is_worst_matrix_abscissa():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        mats = [random_matrix(rng, n) for _ in range(3)]
        res = bisect_min_mu(mats, LINF)
        floor = max(spectral_abscissa(metzler_majorant(M)) for M in mats)
        assert res.b_star >= floor - 1e-6


def test_bisect_result_shape():
    res = bisect_min_mu([np.array([[-2.0]])], L1)
    assert isinstance(res, BisectResult)
    assert res.iterations > 0
    assert res.b_star == pytest.approx(-2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# policy iteration against independent oracles


def _selection_oracle(mats, family):
    """Largest dense-eigvals abscissa over all K^n row selections of the
    (transposed for l1) Metzler majorants."""
    maj = [metzler_majorant(M) for M in mats]
    if family == L1:
        maj = [M.T for M in maj]
    stack = np.stack(maj)
    rows = np.arange(stack.shape[1])
    return max(
        float(np.max(np.linalg.eigvals(stack[list(sel), rows]).real))
        for sel in itertools.product(range(len(maj)), repeat=rows.size)
    )


def test_optimum_matches_selection_enumeration():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(1, 7))
        k = 2 + trial % 2
        fam = (L1, LINF)[(trial // 2) % 2]
        mats = [random_matrix(rng, n) for _ in range(k)]
        res = bisect_min_mu(mats, fam)
        assert res.status == "optimal"
        assert res.b_star == pytest.approx(_selection_oracle(mats, fam), abs=1e-8)


def test_reducible_selections_within_resolvent_shift():
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        k = 2 + trial % 2
        fam = (L1, LINF)[(trial // 2) % 2]
        mats = [random_matrix(rng, n) * (rng.random((n, n)) < 0.3) for _ in range(k)]
        res = bisect_min_mu(mats, fam)
        best = _selection_oracle(mats, fam)
        assert best - 1e-12 <= res.b_star <= best + RESOLVENT_SHIFT + 1e-12


def test_defective_block_reaches_optimum():
    # l1 selections of this Hopfield envelope are reducible with a defective
    # double eigenvalue -1; a delta-perturbed Perron vector would miss -1 by
    # O(sqrt(delta)).
    A = np.array([[0.0, 10.0], [0.0, 0.0]])
    res = bisect_min_mu([-np.eye(2), -np.eye(2) + A], L1)
    assert res.status == "optimal"
    assert res.b_star == pytest.approx(-1.0, abs=1e-6)
    model = Hopfield(np.eye(2), A, SlopeInterval(0.0, 1.0))
    cert = certify(model, L1)
    assert bisect_min_mu(model.witnesses(L1), L1).b_star == pytest.approx(-1.0, abs=1e-6)
    assert cert.details["closed_form"] == -1.0


def _reference_resolvent_weights(S, reach, shift):
    """The optimizer's resolvent weights as they were before the block-wise
    solve became `spectral._resolvent_weights`, kept as the reference, with
    each block's abscissa from its own right Perron vector (its entry for a
    1 x 1 block)."""
    label = np.argmax(reach & reach.T, axis=1)
    heads = sorted(set(label.tolist()), key=lambda h: int(reach[h].sum()))
    blocks = [np.flatnonzero(label == h) for h in heads]
    b = max(S[B[0], B[0]] if B.size == 1 else spectral._perron(S[np.ix_(B, B)], 0.0, (0,)).alpha
            for B in blocks) + shift
    w = np.zeros(S.shape[0])
    for B in blocks:
        w[B] = np.linalg.solve(b * np.eye(B.size) - S[np.ix_(B, B)], 1.0 + S[B] @ w)
    if not np.all((w > 0.0) & np.isfinite(w)):
        raise spectral.NumericalError("resolvent weights have nonpositive entries")
    return w


def _reference_selection_weights(S, shift):
    reach = closure_reference(S)
    if not reach.all():
        return _reference_resolvent_weights(S, reach, shift)
    return spectral._noda(S)


def test_block_resolvent_is_bit_identical_to_reference(monkeypatch):
    # Every matrix of a case shares one reducible pattern (block upper
    # triangular, sparse blocks), so every row selection is reducible.
    rng = np.random.default_rng(37)
    cases = []
    for trial in range(60):
        n = int(rng.integers(2, 33))
        split = int(rng.integers(1, n))
        mask = rng.random((n, n)) < rng.uniform(0.2, 1.0)
        mask[split:, :split] = False
        mats = [random_matrix(rng, n) * mask for _ in range(2 + trial % 2)]
        cases.append((mats, (L1, LINF)[(trial // 2) % 2]))

    reducible = []
    selection_weights = optimize._selection_weights

    def spy(S, shift):
        w = selection_weights(S, shift)
        if not closure_reference(S).all():
            reducible.append(1)
            assert w.tobytes() == _reference_selection_weights(S, shift).tobytes()
        return w

    monkeypatch.setattr(optimize, "_selection_weights", spy)
    got = [bisect_min_mu(mats, fam) for mats, fam in cases]
    monkeypatch.setattr(optimize, "_selection_weights", _reference_selection_weights)
    for (mats, fam), res in zip(cases, got):
        want = bisect_min_mu(mats, fam)
        assert res.b_star.hex() == want.b_star.hex()
        assert res.eta_star.tobytes() == want.eta_star.tobytes()
        assert (res.iterations, res.status) == (want.iterations, want.status)
    assert len(reducible) >= len(cases)


def test_iteration_budget_reports_tolerance():
    # The greedy start takes row 0 from the first matrix (row sum 4 > 3.5).
    # That selection's Perron vector (2, 1) makes row 0 of the second matrix
    # larger (6.5 > 4), so row 0 moves: the optimum, abscissa
    # (3 + sqrt(11)) / 2 of the second matrix, takes a second selection.
    mats = [np.array([[0.0, 4.0], [1.0, 0.0]]), np.array([[3.0, 0.5], [1.0, 0.0]])]
    full = bisect_min_mu(mats, LINF)
    assert full.status == "optimal" and full.iterations >= 2
    cut = bisect_min_mu(mats, LINF, max_iter=1)
    assert cut.status == "tolerance-reached" and cut.iterations == 1
    w = cut.eta_star
    assert np.min(w) == 1.0
    assert cut.b_star == pytest.approx(max(muinf(M, w) for M in mats), abs=1e-12)
    assert cut.b_star > full.b_star + 1e-6
    with pytest.raises(ValueError):
        bisect_min_mu(mats, LINF, max_iter=0)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_bisect_rejects_bad_resolvent_shift_up_front(tol):
    # Irreducible inputs never reach the resolvent; reducible ones did, and
    # failed there with a misleading NumericalError.
    irreducible = [np.array([[-1.0, 0.5], [0.5, -1.0]])]
    reducible = [np.array([[-1.0, 0.5], [0.0, -2.0]])]
    for mats in (irreducible, reducible):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            bisect_min_mu(mats, L1, tol=tol)


@pytest.mark.parametrize("name, value, message", [
    ("max_iter", 2.5, "max_iter must be an integer >= 1, got 2.5"),
    ("max_iter", "3", "max_iter must be an integer >= 1, got '3'"),
    ("max_iter", True, "max_iter must be an integer >= 1, got True"),
    ("max_iter", 0, "max_iter must be an integer >= 1, got 0"),
    ("tol", True, "tol must be finite and positive, got True"),
    ("tol", "1e-8", "tol must be finite and positive, got '1e-8'"),
    ("tol", None, "tol must be finite and positive, got None"),
    ("tol", np.True_, "tol must be finite and positive, got np.True_"),
])
def test_bisect_refuses_non_numeric_budget_and_shift_before_any_work(name, value, message,
                                                                     monkeypatch):
    # max_iter=2.5 and "3" used to raise TypeError from inside the loop or a
    # comparison, and max_iter=True or tol=True ran as 1.  Each is refused up
    # front, with verify_contraction's integer rule for max_iter.
    mats = [np.array([[-1.0, 0.5], [0.0, -2.0]])]
    want = bisect_min_mu(mats, L1, tol=np.float64(1e-8), max_iter=np.int64(3))
    assert want.b_star == bisect_min_mu(mats, L1).b_star

    def no_work(*args):
        raise AssertionError("policy iteration ran")

    monkeypatch.setattr(optimize, "_policy_iteration", no_work)
    with pytest.raises(ValueError) as info:
        bisect_min_mu(mats, L1, **{name: value})
    assert str(info.value) == message


def _zero_start_policy_iteration(mats, tol, max_iter):
    """The solver as it was before the greedy start: every row taken from the
    first matrix at the start, otherwise the same steps."""
    stack = np.stack(mats)
    n = stack.shape[1]
    rows = np.arange(n)
    magnitude = np.abs(stack)
    selection = np.zeros(n, dtype=int)
    best_level, best_w = np.inf, None
    status = optimize.STATUS_TOLERANCE
    for it in range(1, max_iter + 1):
        w = optimize._selection_weights(stack[selection, rows], tol)
        values = stack @ w
        top = np.max(values, axis=0)
        level = float(np.max(top / w))
        if level < best_level:
            best_level, best_w = level, w
        gain = top - values[selection, rows]
        moves = gain > optimize.ROUNDING_RTOL * np.max(magnitude @ w, axis=0)
        if not moves.any():
            status = optimize.STATUS_OPTIMAL
            break
        selection = np.where(moves, np.argmax(values, axis=0), selection)
    eta = best_w / np.min(best_w)
    b_star = float(np.max(np.max(stack @ eta, axis=0) / eta))
    return BisectResult(b_star, eta, it, status)


def test_greedy_start_is_bit_identical_to_reference(monkeypatch):
    # Envelope pairs of d1 < 0 Hopfield (l1) and firing-rate (linf) models
    # with coupling scaled to a majorant abscissa of 0.4 to 1.1: the greedy
    # start is the optimal selection, so one Perron vector gives the very
    # weights that the zero start reached on its second selection.
    rng = np.random.default_rng(36)
    cases = []
    for n in (16, 32, 64):
        for side, fam in ((RIGHT, L1), (LEFT, LINF)):
            for _ in range(3):
                G = rng.normal(size=(n, n))
                A = rng.uniform(0.4, 1.1) * G / spectral_abscissa(metzler_majorant(G))
                slopes = SlopeInterval(-rng.uniform(0.1, 0.5), 1.0)
                spec = PolytopeSpec(A, -rng.uniform(0.8, 1.2, size=n), slopes, side)
                cases.append((list(envelope_matrices(spec, fam)), fam))
    got = [bisect_min_mu(mats, fam) for mats, fam in cases]
    monkeypatch.setattr(optimize, "_policy_iteration", _zero_start_policy_iteration)
    for (mats, fam), res in zip(cases, got):
        want = bisect_min_mu(mats, fam)
        assert res.iterations == 1 < want.iterations
        assert res.b_star == want.b_star
        assert res.eta_star.tobytes() == want.eta_star.tobytes()
        assert res.status == want.status == "optimal"


# ---------------------------------------------------------------------------
# scalar-loop models: the inputs on which LP bisection over a phase-1 simplex
# raised NumericalError or returned weights far above its own optimum


def _lure_model(rng, n, normalize):
    """Metzler part with random off-diagonal signs and abscissa in
    [-1, -0.3] (off-diagonal Perron root 1 when normalized, so entries are
    O(1/n), else entries are O(1)), loop gain in [0.2, 2.6], d1 < 0."""
    slopes = SlopeInterval(-rng.uniform(0.1, 0.5), 1.0)
    gap = rng.uniform(0.3, 1.0)
    P = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(P, 0.0)
    alpha = float(np.max(np.linalg.eigvals(P).real))
    if normalize:
        P, alpha = P / alpha, 1.0
    A = P * rng.choice((-1.0, 1.0), size=(n, n)) - (alpha + gap) * np.eye(n)
    b, c = rng.normal(size=n), rng.normal(size=n)
    c *= rng.uniform(0.2, 2.6) / (np.linalg.norm(b) * np.linalg.norm(c))
    return Lure(A, b, c, slopes)


def _linprog_status(mats, family, level):
    """scipy's status for some w >= 1 with majorant(M_k) w <= level w
    (transposed for l1) for every k: 0 found, 2 infeasible."""
    n = mats[0].shape[0]
    maj = [metzler_majorant(M) for M in mats]
    if family == L1:
        maj = [M.T for M in maj]
    G = np.vstack([M - level * np.eye(n) for M in maj])
    return scipy.optimize.linprog(
        c=np.zeros(n),
        A_ub=G,
        b_ub=np.zeros(G.shape[0]),
        bounds=[(1.0, None)] * n,
        method="highs",
    ).status


def _check_optimized_certificate(model, family, mats):
    """The certified osl is the optimizer's b_star, and scipy finds no
    w >= 1 with majorant(M_k) w <= level w (transposed for l1) just below it."""
    cert = certify(model, family)
    scale = 1.0 + max(float(np.max(np.abs(M))) for M in mats)
    assert cert.osl == pytest.approx(cert.details["b_star"], abs=1e-9 * scale)
    assert _linprog_status(mats, family, cert.osl - 1e-5 * scale) == 2


def test_closed_forms_match_optimizer_and_linprog():
    # Three independent routes to one optimal level: the closed form the
    # certificate carries, the optimizer, and scipy's LP, which finds weights
    # just above that level and none just below it.
    for model, fam in closed_form_models(np.random.default_rng(13), 30, (2, 4, 7, 12)):
        cert = certify(model, fam)
        mats = model.witnesses(fam)
        closed = cert.details["closed_form"]
        assert bisect_min_mu(mats, fam).b_star == pytest.approx(closed, abs=1e-6)
        scale = 1.0 + max(float(np.max(np.abs(M))) for M in mats)
        assert _linprog_status(mats, fam, closed - 1e-5 * scale) == 2
        assert _linprog_status(mats, fam, closed + 1e-5 * scale) == 0


def _check_lure_certificate(model):
    rank_one = np.outer(model.b, model.c)
    mats = [model.A + d * rank_one for d in (model.slopes.d1, model.slopes.d2)]
    _check_optimized_certificate(model, L1, mats)


@pytest.mark.parametrize("seed", [[12345, 107, 32], [12345, 181, 32]])
def test_lure_regression_cases(seed):
    _check_lure_certificate(_lure_model(np.random.default_rng(seed), 32, True))


def test_lure_unit_scale_models():
    n = 64
    for seed in range(30):
        _check_lure_certificate(_lure_model(np.random.default_rng([seed, n]), n, False))


def test_tied_blocks_coupled_one_way():
    # Off-diagonal part: two 7x7 blocks with equal Perron roots, the first
    # fed by the second, entries O(1000).  Some row selections are reducible
    # with that tie; one dense resolvent solve over the whole selection lost
    # positivity on these seeds.
    k, n = 7, 14
    for seed in (5, 16, 17):
        rng = np.random.default_rng(seed)
        B = rng.uniform(0.1, 1.0, size=(k, k))
        d = rng.uniform(0.5, 2.0, size=k)
        P = np.zeros((n, n))
        P[:k, :k] = B
        P[k:, k:] = (d[:, None] * B) / d[None, :]
        P[:k, k:] = rng.uniform(0.0, 1.0, size=(k, k))
        np.fill_diagonal(P, 0.0)
        P *= 1000.0
        alpha = float(np.max(np.linalg.eigvals(P).real))
        A = P * rng.choice((-1.0, 1.0), size=(n, n)) - (alpha + 300.0) * np.eye(n)
        slopes = SlopeInterval(-0.3, 1.0)
        for cls, side in ((Hopfield, RIGHT), (FiringRate, LEFT)):
            for fam in (L1, LINF):
                spec = PolytopeSpec(A, -np.ones(n), slopes, side)
                mats = list(envelope_matrices(spec, fam))
                _check_optimized_certificate(cls(np.eye(n), A, slopes), fam, mats)


# ---------------------------------------------------------------------------
# Noda iteration for the selection Perron vectors, against the dense route


def _dense_selection_weights(S):
    """The dense route the optimizer took before Noda iteration, kept as the
    reference: the eigenvector of the eigenvalue with largest real part from
    one `np.linalg.eig`, scaled to largest entry 1."""
    lam, V = np.linalg.eig(S)
    v = V[:, int(np.argmax(lam.real))].real
    return v / v[np.argmax(np.abs(v))]


def _irreducible_selection(rng, n, scale):
    """Positive off-diagonal part with Perron root 1, as in the envelope
    matrices of the certify inputs, plus a random diagonal, times `scale`."""
    P = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(P, 0.0)
    P /= float(np.max(np.linalg.eigvals(P).real))
    return scale * (P + np.diag(rng.normal(size=n)))


def _count_solves(monkeypatch):
    """Spy on the solves `_noda` makes; returns the per-call counts."""
    per_call = []
    solve, noda = spectral.solve, spectral._noda

    def counting_solve(A, b):
        per_call[-1] += 1
        return solve(A, b)

    def counting_noda(S):
        per_call.append(0)
        return noda(S)

    monkeypatch.setattr(spectral, "solve", counting_solve)
    monkeypatch.setattr(optimize, "_noda", counting_noda)
    return per_call


SIZES = (2, 3, 8, 32, 128)
SCALES = (1e-4, 1.0, 1e4)


@pytest.mark.parametrize("scale", SCALES)
def test_noda_vector_matches_dense_reference(scale):
    rng = np.random.default_rng([31, int(np.log10(scale)) + 4])
    for n in SIZES:
        S = _irreducible_selection(rng, n, scale)
        x = spectral._noda(S)
        want = _dense_selection_weights(S)
        assert np.all(x > 0.0) and np.max(x) == 1.0
        np.testing.assert_allclose(x, want, rtol=1e-10, atol=0.0)
        # The Collatz-Wielandt bracket at x holds the dense abscissa.
        q = (S @ x) / x
        alpha = float(np.max(np.linalg.eigvals(S).real))
        slack = 1e-14 * (1.0 + float(np.max(np.abs(S))))
        assert np.min(q) - slack <= alpha <= np.max(q) + slack
        assert np.max(q) - np.min(q) <= spectral.NODA_RTOL * (1.0 + np.max(np.abs(S)))


# The certify-lp models: Hopfield (l1, right-side slopes) and FiringRate
# (linf, left-side slopes) with d1 < 0, so no closed form applies.
LP_KINDS = ((Hopfield, RIGHT, L1), (FiringRate, LEFT, LINF))


def _lp_coupling(rng, n):
    """(A, C, slopes) of a certify-lp model: a coupling on the scale where
    about 80 % certify, a leak near 1 and d1 < 0."""
    G = rng.normal(size=(n, n))
    A = rng.uniform(0.4, 1.1) * G / spectral_abscissa(metzler_majorant(G))
    C = rng.uniform(0.8, 1.2, size=n)
    return A, C, SlopeInterval(-rng.uniform(0.1, 0.5), 1.0)


@pytest.mark.parametrize("scale", SCALES)
def test_policy_iteration_matches_dense_route(scale, monkeypatch):
    # certify-lp-style envelope pairs: d1 < 0, so no closed form applies.
    rng = np.random.default_rng([32, int(np.log10(scale)) + 4])
    cases = []
    for n in SIZES:
        for _, side, fam in LP_KINDS:
            A, C, slopes = _lp_coupling(rng, n)
            spec = PolytopeSpec(scale * A, -scale * C, slopes, side)
            cases.append((list(envelope_matrices(spec, fam)), fam))
    got = [bisect_min_mu(mats, fam) for mats, fam in cases]
    monkeypatch.setattr(optimize, "_noda", _dense_selection_weights)
    for (mats, fam), res in zip(cases, got):
        want = bisect_min_mu(mats, fam)
        tol = 1e-12 * (1.0 + max(float(np.max(np.abs(M))) for M in mats))
        assert (res.iterations, res.status) == (want.iterations, want.status)
        assert res.b_star == pytest.approx(want.b_star, abs=tol)


def test_noda_solves_stay_within_budget(monkeypatch):
    per_call = _count_solves(monkeypatch)
    rng = np.random.default_rng(33)
    for n in SIZES:
        for scale in SCALES:
            optimize._selection_weights(_irreducible_selection(rng, n, scale), RESOLVENT_SHIFT)
    for k in (2, 4, 8, 32):
        S = near_tie_metzler(rng, k)
        x = optimize._selection_weights(S, RESOLVENT_SHIFT)
        lam = float(x @ (S @ x) / (x @ x))
        assert np.all(x > 0.0)
        assert np.max(np.abs(S @ x - lam * x)) <= RESIDUAL_RTOL * (1.0 + np.max(np.abs(S)))
    assert len(per_call) == len(SIZES) * len(SCALES) + 4
    assert max(per_call) <= spectral.NODA_MAXITER


def test_noda_stop_test_scales_with_the_perron_root(monkeypatch):
    # Dense positive coupling puts the Perron root (about 70) far above
    # max|S| (about 5), so rounding in q = (S x) / x keeps the bracket above
    # NODA_RTOL (1 + max|S|).  The stop test scales with |hi| too, so the
    # iteration stops within its budget instead of raising.
    per_call = _count_solves(monkeypatch)
    rng = np.random.default_rng(35)
    S = rng.uniform(0.1, 1.0, size=(128, 128))
    np.fill_diagonal(S, rng.normal(scale=2.0, size=128))
    x = optimize._selection_weights(S, RESOLVENT_SHIFT)
    np.testing.assert_allclose(x, _dense_selection_weights(S), rtol=1e-12, atol=0.0)
    assert 1 <= per_call[0] < spectral.NODA_MAXITER // 2
    q = (S @ x) / x
    size = 1.0 + np.max(np.abs(S))
    assert spectral.NODA_RTOL * size < np.max(q) - np.min(q)
    assert np.max(q) - np.min(q) <= spectral.NODA_RTOL * (size + np.max(q))


@pytest.mark.parametrize("n", (16, 32, 64, 128, 256))
def test_noda_warm_start_takes_few_solves_per_selection(n, monkeypatch):
    # certify-lp selections.  From the ones vector Noda's iteration takes 5
    # or more solves on each; from the warm power iterate it takes at most 2
    # on average, and its vectors still match the dense reference.
    per_call = _count_solves(monkeypatch)
    counting, selections = optimize._noda, []

    def recording(S):
        x = counting(S)
        selections.append((S.copy(), x))
        return x

    monkeypatch.setattr(optimize, "_noda", recording)
    rng = np.random.default_rng([37, n])
    for _, side, fam in LP_KINDS * 3:
        A, C, slopes = _lp_coupling(rng, n)
        bisect_min_mu(list(envelope_matrices(PolytopeSpec(A, -C, slopes, side), fam)), fam)
    assert len(per_call) >= 6
    assert sum(per_call) <= 2 * len(per_call), per_call
    cold = []
    for S, x in selections:
        np.testing.assert_allclose(x, _dense_selection_weights(S), rtol=1e-12, atol=0.0)
        per_call.append(0)
        spectral._noda(S, np.ones(n))
        cold.append(per_call.pop())
    assert min(cold) >= 5, cold


def test_noda_is_scale_free():
    # The stop test's unit is a power of two, the power of two above max|S|,
    # and the warm shift's margin a power-of-two fraction of it: S times 2^k
    # gives the same bits, from the warm start and from a given one.
    rng = np.random.default_rng(38)
    for n in SIZES:
        for scale in SCALES:
            S = _irreducible_selection(rng, n, scale)
            x0 = rng.uniform(0.5, 2.0, size=n)
            want, want_given = spectral._noda(S), spectral._noda(S, x0)
            for k in (-400, -40, 40, 400):
                assert spectral._noda(2.0**k * S).tobytes() == want.tobytes(), (n, k)
                assert spectral._noda(2.0**k * S, x0).tobytes() == want_given.tobytes(), (n, k)


def test_noda_takes_matrices_at_the_top_of_the_float_range():
    # The power of two above max|S| >= 2^1023 would be 2^1024, which
    # overflows: the unit stops at 2^1023, and these give their Perron
    # vector (1, 1) to rounding.
    for S in ([[-1e308, 1e308], [1e308, -1e308]], [[0.0, 2.0**1023], [2.0**1023, 0.0]]):
        np.testing.assert_allclose(spectral._noda(np.array(S)), [1.0, 1.0], rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("scale", (1e-12, 1e-8, 1e-4, 1e4))
def test_scaled_weight_lp_certificates_keep_their_rate(scale):
    # Scaling C and A scales the certified osl, here measured in units of
    # max(1, |osl|) of the unscaled model, whose C and A are of order 1.  A
    # stop test with an absolute unit (1 + max|S|) accepted a bracket of
    # 1e-14 on selections of size 1e-12, and osl / scale came out up to 2e-2
    # weaker.
    rng = np.random.default_rng([39, int(np.log10(scale)) + 12])
    for n in (4, 16, 64):
        for cls, _, fam in LP_KINDS:
            A, C, slopes = _lp_coupling(rng, n)
            want = certify(cls(np.diag(C), A, slopes), fam)
            got = certify(cls(np.diag(scale * C), scale * A, slopes), fam)
            assert got.theorem == want.theorem and got.tight == want.tight
            assert abs(got.osl / scale - want.osl) <= 1e-13 * max(1.0, abs(want.osl)), (n, fam)


def test_noda_budget_exhausted_raises_numerical_error(monkeypatch):
    # No dense eigensolve backs Noda's iteration: a vector that does not
    # converge within NODA_MAXITER solves raises NumericalError, and so does
    # the optimizer that asked for it.  Near-tied selections: the warm power
    # steps cannot separate their two leading eigenvalues, so one solve does
    # not meet the stop test.
    monkeypatch.setattr(spectral, "NODA_MAXITER", 1)
    per_call = _count_solves(monkeypatch)
    rng = np.random.default_rng(34)
    for k in (2, 4, 8, 32):
        S = near_tie_metzler(rng, k)
        with pytest.raises(spectral.NumericalError, match="Noda iteration failed after 1 solves"):
            optimize._selection_weights(S, RESOLVENT_SHIFT)
    assert per_call == [1] * 4
    with pytest.raises(spectral.NumericalError, match="Noda iteration failed"):
        bisect_min_mu([S, 0.5 * S], LINF)
    assert per_call[4:] == [1]


def test_a_refused_solve_raises_numerical_error(monkeypatch):
    # The optimizer never lets numpy's LinAlgError out: Noda's iteration, on
    # an irreducible selection, and the resolvent weights, on a reducible
    # one, turn every failed solve into NumericalError themselves.
    def refuse(A, b):
        raise np.linalg.LinAlgError("Singular matrix")

    S = _irreducible_selection(np.random.default_rng(36), 8, 1.0)
    T = np.array([[-1.0, 0.0], [0.5, -2.0]])  # reducible: two 1 x 1 blocks
    monkeypatch.setattr(spectral, "solve", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for mats in ([S, 0.5 * S], [T]):
        with pytest.raises(spectral.NumericalError):
            bisect_min_mu(mats, LINF)


def _textbook_noda(S, x=None):
    """Noda's iteration as `_noda` states it, with a fresh identity, shifted
    matrix, quotient and iterate at each step, and without a start from
    fresh power steps on S + tI; None where `_noda` raises."""
    n = S.shape[0]
    unit = 2.0 ** np.frexp(np.max(np.abs(S)))[1]
    if x is None:
        N = S / unit + (np.max(-np.diag(S)) / unit + 1.0 / 1024) * np.eye(n)
        x = np.ones(n)
        for _ in range(spectral._NODA_WARM_STEPS):
            x = N @ x
    x = x / np.max(x)
    width = np.inf
    for solves in range(spectral.NODA_MAXITER + 1):
        q = (S @ x) / x
        lo, hi = float(q.min()), float(q.max())
        if hi - lo <= spectral.NODA_RTOL * (unit + abs(hi)) and (solves > 0 or hi == lo):
            return x
        if solves == spectral.NODA_MAXITER or not hi - lo < width:
            return None
        width = hi - lo
        z = None
        for b in (hi, hi + spectral.NODA_RTOL * (unit + abs(hi))):
            try:
                z = np.linalg.solve(b * np.eye(n) - S, x)
                break
            except np.linalg.LinAlgError:
                pass
        if z is None:
            return None
        top = z[np.argmax(np.abs(z))]
        if not abs(top) < np.inf:
            return None
        x = z / top
        if not x.min() > 0.0:
            return None


def test_noda_in_place_steps_are_bit_identical_to_textbook_loop():
    # Sparse Metzler selections whose zero entries carry either sign: the
    # shifted matrix written into one buffer as -S plus b on the diagonal
    # has other zero signs than b I - S, and the solves read the same bits.
    rng = np.random.default_rng(39)
    converged = 0
    for trial in range(600):
        n = int(rng.integers(1, 41))
        S = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 1.0))
        np.fill_diagonal(S, rng.normal(size=n) * (rng.random(n) < 0.8))
        S[(S == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
        x0 = None if trial % 3 else rng.uniform(0.5, 2.0, size=n)
        want = _textbook_noda(S, x0)
        if want is None:
            with pytest.raises(spectral.NumericalError):
                spectral._noda(S, x0)
        else:
            assert spectral._noda(S, x0).tobytes() == want.tobytes(), trial
            converged += 1
    assert 300 <= converged < 600


def _copying_bisect(matrices, family):
    """`bisect_min_mu` with a copy of each input: `metzler_majorant`'s
    C-ordered majorants, transposed for l1 and put together by `np.stack`,
    whose strides the policy iteration's products follow."""
    mats = [metzler_majorant(M) for M in matrices]
    if family == L1:
        mats = [M.T for M in mats]
    return optimize._policy_iteration(np.stack(mats), RESOLVENT_SHIFT, optimize.MAX_SELECTIONS)


def test_bisect_without_copies_is_bit_identical_to_copying_reference():
    # Dense and sparse inputs (some with reducible selections), C-ordered,
    # Fortran-ordered and as nested lists, in both families.
    rng = np.random.default_rng(40)
    layouts = (np.ascontiguousarray, np.asfortranarray, np.ndarray.tolist)
    for n in (1, 2, 5, 16, 64):
        for k in (1, 2, 3):
            mask = rng.random((n, n)) < (1.0 if k % 2 else 0.3)
            mats = [random_matrix(rng, n) * mask for _ in range(k)]
            for layout, fam in itertools.product(layouts, (L1, LINF)):
                got = bisect_min_mu([layout(M) for M in mats], fam)
                want = _copying_bisect(mats, fam)
                assert got.b_star.hex() == want.b_star.hex(), (n, k, fam)
                assert got.eta_star.tobytes() == want.eta_star.tobytes()
                assert (got.iterations, got.status) == (want.iterations, want.status)


def test_bisect_refusals_keep_their_messages():
    big = int("1" + "0" * 400)
    for mats, message in (
        ([], "need at least one matrix"),
        ([[[1.0, np.nan], [0.0, 1.0]]], "matrix entries must be finite"),
        ([np.eye(2), np.full((2, 2), np.inf)], "matrix entries must be finite"),
        ([[[1.0, big], [0.0, 1.0]]], "matrix entries must be finite"),
        ([np.ones((2, 3))], "expected a square matrix, got shape (2, 3)"),
        ([np.eye(2), np.ones(2)], "expected a square matrix, got shape (2,)"),
        ([np.eye(2), np.eye(3)], "matrices must share one dimension"),
    ):
        for fam in (L1, LINF):
            with pytest.raises(ValueError) as info:
                bisect_min_mu(mats, fam)
            assert str(info.value) == message


def test_feasibility_and_family_refusals_keep_their_messages():
    M = np.array([[-1.0, 0.5], [0.5, -1.0]])
    for make, message in (
        (lambda: FeasibilityProblem((), 0.0), "need at least one constraint matrix"),
        (lambda: FeasibilityProblem((M, np.eye(3)), 0.0),
         "constraint matrices must share one dimension"),
        (lambda: FeasibilityProblem((M,), np.inf), "level b must be finite"),
        (lambda: FeasibilityProblem((M,), np.nan), "level b must be finite"),
        (lambda: bisect_min_mu([M], "l2"), "weight optimization is defined for l1/linf only"),
    ):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
