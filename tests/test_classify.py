import dataclasses
import itertools
import warnings
from math import comb

import numpy as np
import pytest

import mucert.classify as classify_mod
import mucert.spectral as spectral_mod
from mucert import (
    classify_matrix,
    edge_removal_check,
    is_hurwitz,
    is_m_hurwitz,
    is_quasidominant,
    is_totally_hurwitz,
    lds_certificate,
    metzler_majorant,
    mh_lds_witness,
    mu2,
    principal_submatrix,
    pruning_robustness,
    spectral_abscissa,
)
from mucert.spectral import is_irreducible

from helpers import (
    DAMPED_SPIRAL,
    SKEW_RING,
    SKEW_RING_EDGE,
    STABLE_POS_DIAG,
    closure_reference,
    random_metzler,
    random_mh_matrix,
)


def test_is_hurwitz_known_cases():
    assert is_hurwitz(STABLE_POS_DIAG)
    assert is_hurwitz(-np.eye(4))
    pruned = SKEW_RING.copy()
    pruned[SKEW_RING_EDGE] = 0.0
    assert not is_hurwitz(-np.eye(3) + pruned)


def test_is_totally_hurwitz_known_cases():
    assert not is_totally_hurwitz(STABLE_POS_DIAG)  # positive diagonal entry
    assert is_totally_hurwitz(-np.eye(3))
    assert not is_totally_hurwitz([[-1.0, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError):
        is_totally_hurwitz(-np.eye(21))


def test_is_m_hurwitz_known_cases():
    assert not is_m_hurwitz(DAMPED_SPIRAL)
    assert spectral_abscissa(metzler_majorant(DAMPED_SPIRAL)) == pytest.approx(
        np.sqrt(2.0) - 1.0, abs=1e-9
    )
    assert is_m_hurwitz(-np.eye(2))
    assert is_m_hurwitz([[-2.0, 1.0], [1.0, -2.0]])


def test_is_quasidominant_known_cases():
    assert is_quasidominant(np.eye(3))
    assert not is_quasidominant([[0.0, 1.0], [1.0, 2.0]])  # nonpositive diagonal entry
    assert is_quasidominant([[2.0, -1.0], [-1.0, 2.0]])


def test_lds_certificate_known_cases():
    assert lds_certificate(DAMPED_SPIRAL, [1.0, 1.0])
    assert not lds_certificate(np.eye(2), [1.0, 2.0])
    assert lds_certificate(-np.eye(3) + SKEW_RING, [1.0, 1.0, 1.0])
    assert mu2(-np.eye(3) + SKEW_RING) == pytest.approx(-1.0, abs=1e-12)


def test_class_inclusion_chain_on_mh_samples():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        A = random_mh_matrix(rng, n)
        assert is_m_hurwitz(A)
        assert lds_certificate(A, mh_lds_witness(A))
        assert is_totally_hurwitz(A)
        assert is_hurwitz(A)


def test_counterexample_fixtures():
    # negative l2 log norm without a stable majorant
    assert lds_certificate(DAMPED_SPIRAL, np.ones(2)) and not is_m_hurwitz(DAMPED_SPIRAL)
    # Hurwitz without being totally Hurwitz
    assert is_hurwitz(STABLE_POS_DIAG) and not is_totally_hurwitz(STABLE_POS_DIAG)


def test_classify_report_consistency():
    report = classify_matrix(DAMPED_SPIRAL)
    assert report.hurwitz and report.totally_hurwitz
    assert not report.m_hurwitz and not report.quasidominant
    assert report.alpha == pytest.approx(-1.0, abs=1e-9)
    assert report.alpha_majorant == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-9)
    assert report.lds_certified_at is None  # no witness supplied, not MH

    report = classify_matrix(DAMPED_SPIRAL, lds_weights=[1.0, 1.0])
    assert report.lds_certified_at is not None

    A = random_mh_matrix(np.random.default_rng(1), 4)
    report = classify_matrix(A)
    assert report.m_hurwitz and report.lds_certified_at is not None
    assert lds_certificate(A, report.lds_certified_at)

    # implication structure must hold in every report
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        r = classify_matrix(rng.normal(size=(n, n)))
        if r.m_hurwitz:
            assert r.hurwitz
        if r.totally_hurwitz:
            assert r.hurwitz


def test_marginal_band_is_flagged():
    report = classify_matrix(np.zeros((1, 1)))
    assert not report.hurwitz and not report.m_hurwitz
    assert "hurwitz" in report.marginal and "m_hurwitz" in report.marginal


def test_pruning_robustness():
    rng = np.random.default_rng(3)
    A = random_mh_matrix(rng, 4)
    report = pruning_robustness(A)
    assert len(report.entries) == 2**4 - 1
    assert report.all_m_hurwitz
    full = [e for e in report.entries if e.indices == (0, 1, 2, 3)][0]
    assert full.m_hurwitz == is_m_hurwitz(A)
    assert full.alpha_majorant == pytest.approx(
        spectral_abscissa(metzler_majorant(A)), abs=1e-9
    )

    report = pruning_robustness(-np.eye(2))
    assert report.all_m_hurwitz
    assert all(e.alpha_majorant == pytest.approx(-1.0, abs=1e-12) for e in report.entries)

    with pytest.raises(ValueError):
        pruning_robustness(-np.eye(13))


def test_edge_removal_check():
    before, after = edge_removal_check(SKEW_RING, [SKEW_RING_EDGE], shift=-1.0)
    assert before and not after

    before, after = edge_removal_check(STABLE_POS_DIAG, [], shift=0.0)
    assert before == after

    rng = np.random.default_rng(4)
    A = random_mh_matrix(rng, 4)
    before, after = edge_removal_check(A, [(0, 1), (2, 3)], shift=0.0)
    assert before and after

    with pytest.raises(ValueError):
        edge_removal_check(SKEW_RING, [(1, 1)])
    with pytest.raises(IndexError):
        edge_removal_check(SKEW_RING, [(0, 3)])


@pytest.mark.parametrize("shift", [np.inf, -np.inf, np.nan, "2", True, np.True_])
def test_edge_removal_check_refuses_a_shift_that_is_not_finite(shift):
    # inf * 0 off the diagonal of shift * I made NaNs, with a numpy warning,
    # and the refusal blamed the matrix entries.  A string or a bool is not
    # a number ("2" failed inside numpy, True ran as 1).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            edge_removal_check(SKEW_RING, [SKEW_RING_EDGE], shift=shift)
    assert str(info.value) == f"shift must be finite, got {shift!r}"


def test_edge_removal_check_refuses_an_overflowing_shift_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            edge_removal_check([[1e308, 2.0], [0.5, -3.0]], [(0, 1)], shift=1e308)
    assert str(info.value) == "matrix entries must be finite"


def test_metzler_edge_removal_never_raises_abscissa():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        M = random_metzler(rng, n)
        offdiag = [(i, j) for i in range(n) for j in range(n) if i != j and M[i, j] != 0.0]
        if not offdiag:
            continue
        i, j = offdiag[int(rng.integers(len(offdiag)))]
        removed = M.copy()
        removed[i, j] = 0.0
        assert spectral_abscissa(removed) <= spectral_abscissa(M) + 1e-9


# Totally Hurwitz, yet neither M-Hurwitz nor with a negative definite
# symmetric part, so only the subset enumeration can decide it.
SPIRAL_TH = np.array([[-1.0, 4.0], [-1.0, -1.0]])


def _subsets(n):
    for r in range(1, n + 1):
        yield from itertools.combinations(range(n), r)


def _reference_totally_hurwitz(A):
    """One eigensolve per nonempty principal submatrix."""
    return all(is_hurwitz(principal_submatrix(A, idx)) for idx in _subsets(A.shape[0]))


def _negdef_not_mh(rng, n):
    """Negative definite symmetric part plus a skew part that makes the
    majorant unstable."""
    while True:
        Q = rng.normal(size=(n, n))
        K = rng.normal(size=(n, n))
        A = -(Q @ Q.T / n + 0.3 * np.eye(n)) + 1.5 * (K - K.T)
        if not is_m_hurwitz(A):
            return A


def _spiral_blocks(rng, n):
    """Block-diagonal copies of SPIRAL_TH (plus a -1 for odd n) with a weak
    random coupling: totally Hurwitz only by enumeration."""
    A = np.kron(np.eye(n // 2), SPIRAL_TH)
    if n % 2:
        A = np.pad(A, ((0, 1), (0, 1)))
        A[-1, -1] = -1.0
    return A + 1e-3 * rng.normal(size=(n, n))


def _hurwitz_negative_diagonal(rng, n):
    """Hurwitz with a negative diagonal; mostly not totally Hurwitz."""
    while True:
        G = 2.0 * rng.normal(size=(n, n))
        A = G - (spectral_abscissa(G) + rng.uniform(0.05, 0.5)) * np.eye(n)
        if np.all(np.diag(A) < -0.1):
            return A


def _oracle_inputs(rng):
    yield from (-np.eye(2), SPIRAL_TH, STABLE_POS_DIAG)
    for n in range(2, 9):
        for _ in range(3):
            yield random_mh_matrix(rng, n)
            yield _negdef_not_mh(rng, n)
            yield _spiral_blocks(rng, n)
            yield _hurwitz_negative_diagonal(rng, n)


def test_totally_hurwitz_matches_per_subset_reference():
    rng = np.random.default_rng(11)
    seen = {"mh": 0, "negdef": 0, "enumerated_true": 0, "hurwitz_not_th": 0}
    for A in _oracle_inputs(rng):
        want = _reference_totally_hurwitz(A)
        assert is_totally_hurwitz(A) == want
        if is_m_hurwitz(A):
            seen["mh"] += 1
        elif mu2(A) < -classify_mod.STRICT_TOL:
            seen["negdef"] += 1
        elif want:
            seen["enumerated_true"] += 1
        elif is_hurwitz(A):
            seen["hurwitz_not_th"] += 1
    assert min(seen.values()) >= 10, seen


def test_pruning_entries_match_per_subset_abscissae_exactly():
    rng = np.random.default_rng(12)
    # Zero abscissae of both signs, where a plain max of the real parts can
    # take the wrong one.
    inputs = [SPIRAL_TH, DAMPED_SPIRAL, np.array([[-0.0]]),
              np.array([[-0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, -0.0]])]
    for n in range(2, 9):
        inputs += [random_mh_matrix(rng, n), rng.normal(size=(n, n)), _negdef_not_mh(rng, n)]
    for A in inputs:
        report = pruning_robustness(A)
        want = [
            (idx, spectral_abscissa(metzler_majorant(principal_submatrix(A, idx))))
            for idx in _subsets(A.shape[0])
        ]
        assert [(e.indices, e.alpha_majorant) for e in report.entries] == want
        assert [np.signbit(e.alpha_majorant) for e in report.entries] == [
            np.signbit(a) for _, a in want
        ]
        assert all(e.m_hurwitz == (e.alpha_majorant < -classify_mod.STRICT_TOL)
                   for e in report.entries)


def _count_solved_submatrices(monkeypatch, batch=None):
    """Spy on the stacked eigensolve; returns the list of stack sizes."""
    sizes = []
    solve = classify_mod._stacked_abscissae

    def spy(stack):
        sizes.append(stack.shape[0])
        return solve(stack)

    monkeypatch.setattr(classify_mod, "_stacked_abscissae", spy)
    if batch is not None:
        monkeypatch.setattr(classify_mod, "SUBSET_BATCH", batch)
    return sizes


def test_subset_enumeration_work_budget(monkeypatch):
    sizes = _count_solved_submatrices(monkeypatch)
    rng = np.random.default_rng(13)
    full = 0
    for A in _oracle_inputs(rng):
        n = A.shape[0]
        sizes.clear()
        th = is_totally_hurwitz(A)
        if np.any(np.diag(A) >= -classify_mod.STRICT_TOL):
            assert not th and sizes == []
        elif is_m_hurwitz(A) or mu2(A) < -classify_mod.STRICT_TOL:
            assert th and sizes == []
        elif th:  # a full enumeration; the 1x1 submatrices are the diagonal
            assert sum(sizes) == 2**n - 1 - n
            full += 1
        else:
            assert 0 < sum(sizes) <= 2**n - 1 - n

        sizes.clear()
        pruning_robustness(A)
        assert sum(sizes) == 2**n - 1 - n

    assert full >= 10

    # a failing 2x2 block ends the enumeration after the first batch
    A = _spiral_blocks(rng, 8)
    A[0, 1] = -4.0
    sizes.clear()
    assert not is_totally_hurwitz(A) and sizes == [28]


def test_subset_batches_respect_the_batch_cap(monkeypatch):
    sizes = _count_solved_submatrices(monkeypatch, batch=5)
    rng = np.random.default_rng(14)
    A = _spiral_blocks(rng, 7)
    batched = pruning_robustness(A)
    monkeypatch.undo()
    assert batched == pruning_robustness(A) and max(sizes) == 5
    assert sum(sizes) == 2**7 - 1 - 7


def _mh_sweep_inputs(rng, count):
    """M-Hurwitz matrices: dense, sparse (density 0.2 to 0.5) and
    reducible (block upper triangular, dense or sparse blocks) couplings, n 2
    to 12, shifted so that the majorant abscissa is -margin with margins
    log-uniform in 1e-10 to 1."""
    kinds = ("dense", "sparse", "reducible")
    for k in range(count):
        kind = kinds[k % 3]
        n = int(rng.integers(2, 13))
        A = rng.normal(size=(n, n))
        if kind != "dense":
            A *= rng.random(size=(n, n)) < rng.uniform(0.2, 0.5 if kind == "sparse" else 1.0)
        if kind == "reducible":
            split = int(rng.integers(1, n))
            A[split:, :split] = 0.0
        margin = 10.0 ** rng.uniform(-10.0, 0.0)
        yield A - (spectral_abscissa(metzler_majorant(A)) + margin) * np.eye(n)


def test_mh_lds_witness_oracle_sweep():
    rng = np.random.default_rng(15)
    seen = {"irreducible": 0, "reducible": 0, "margin_below_1e-8": 0}
    for A in _mh_sweep_inputs(rng, 450):
        M = metzler_majorant(A)
        w = mh_lds_witness(A)
        assert w is not None and np.all(np.isfinite(w)) and np.all(w > 0.0)
        assert lds_certificate(A, w)
        # P M + M^T P is negative definite iff its unit-diagonal congruent
        # form D Q D is (Sylvester's law of inertia).  eigvalsh's error is
        # absolute, and the weights of a reducible input with a tiny margin
        # span up to 1e-41 .. 1e23, so Q itself hides the sign in rounding.
        Q = w[:, None] * M + M.T * w[None, :]
        d = 1.0 / np.sqrt(-np.diag(Q))
        assert np.max(np.linalg.eigvalsh(d[:, None] * Q * d[None, :])) < 0.0
        report = classify_matrix(A)
        assert report.m_hurwitz and np.array_equal(report.lds_certified_at, w)
        seen["irreducible" if is_irreducible(M) else "reducible"] += 1
        seen["margin_below_1e-8"] += spectral_abscissa(M) > -1e-8
    assert min(seen.values()) >= 50, seen


def test_mh_lds_witness_certifies_a_one_way_coupled_pair():
    # Two equal 1x1 blocks coupled one way, margin 1e-6: the weights of the
    # delta-perturbed Perron pair failed lds_certificate here.
    A = np.array([[-1e-6, 1.0], [0.0, -1e-6]])
    report = classify_matrix(A)
    w = report.lds_certified_at
    assert report.m_hurwitz and w is not None
    assert np.all(w > 0.0) and lds_certificate(A, w)
    np.testing.assert_allclose(w, [1e-6, 1e6], rtol=1e-5)


def test_mh_lds_witness_gives_none_without_a_positive_weight():
    assert mh_lds_witness(DAMPED_SPIRAL) is None  # majorant not Hurwitz
    assert mh_lds_witness(np.zeros((2, 2))) is None  # singular
    assert mh_lds_witness([[1.0, 0.0], [0.0, -1.0]]) is None  # reducible, one block unstable
    # A missing witness is not read as the unit weight, which certifies
    # DAMPED_SPIRAL.
    with pytest.raises(ValueError, match="needs a weight vector"):
        lds_certificate(DAMPED_SPIRAL, mh_lds_witness(DAMPED_SPIRAL))


def test_m_hurwitz_classify_takes_no_power_step(monkeypatch):
    def no_power_step(B):
        raise AssertionError("power iteration ran")

    monkeypatch.setattr(spectral_mod, "_power_vector", no_power_step)
    rng = np.random.default_rng(17)
    for A in _mh_sweep_inputs(rng, 30):
        report = classify_matrix(A)
        assert report.m_hurwitz and report.lds_certified_at is not None
    # The spy binds: a Perron pair, which does step, trips it.
    with pytest.raises(AssertionError, match="power iteration ran"):
        spectral_mod.perron_pair([[-1.0, 1.0], [1.0, -1.0]])


def test_classify_matrix_takes_each_abscissa_once(monkeypatch):
    # alpha(A) and alpha(maj(A)) in one stacked eigensolve; the
    # totally-Hurwitz shortcut reuses the M-Hurwitz flag, and quasidominance
    # takes no solve when A has a diagonal entry <= 1e-12.  The spy sees every
    # eigensolve, also the subset enumeration's batches.
    shapes = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
    rng = np.random.default_rng(16)
    enumeration = [(comb(8, r), r, r) for r in range(2, 9)]
    for A, mh, rest in ((random_mh_matrix(rng, 8), True, []),
                        (_spiral_blocks(rng, 8), False, enumeration)):
        shapes.clear()
        report = classify_matrix(A)
        assert shapes == [(2, 8, 8)] + rest
        assert report.m_hurwitz == mh and report.totally_hurwitz
        assert not report.quasidominant
    # A positive diagonal: quasidominance takes one more solve, on maj(-A).
    shapes.clear()
    report = classify_matrix([[2.0, -1.0], [-1.0, 2.0]])
    assert shapes == [(2, 2, 2), (2, 2)] and report.quasidominant


def test_diagonal_rule_decides_without_an_eigensolve(monkeypatch):
    # alpha(M) >= max M_ii for a Metzler M: a diagonal entry at or above
    # -1e-12 decides "not M-Hurwitz" (and, on -A, "not quasidominant").
    shapes = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
    rng = np.random.default_rng(20)
    for value in (-1e-12, -0.0, 0.0, 1e-12, 0.5):
        A = random_mh_matrix(rng, 5)
        A[2, 2] = value
        assert spectral_abscissa(metzler_majorant(A)) >= -classify_mod.STRICT_TOL
        shapes.clear()
        assert not is_m_hurwitz(A) and not is_quasidominant(-A)
        assert shapes == []
    # Below the threshold the dense eigensolver decides, once per call.
    A = random_mh_matrix(rng, 5)
    shapes.clear()
    assert is_m_hurwitz(A) and is_quasidominant(-A)
    assert shapes == [(5, 5), (5, 5)]
    A[2, 2] = -2e-12
    shapes.clear()
    assert not is_m_hurwitz(A) and shapes == [(5, 5)]


def _reference_mh_witness(M):
    """mh_lds_witness before the one-block path: blocks from the closure's
    mutual reach, every block solved on its np.ix_ copy."""
    reach = closure_reference(M)
    label = np.argmax(reach & reach.T, axis=1)
    heads = sorted(set(label.tolist()), key=lambda h: int(reach[h].sum()))
    blocks = [np.flatnonzero(label == h) for h in heads]

    def resolvent(S, order):
        w = np.zeros(S.shape[0])
        for B in order:
            w[B] = np.linalg.solve(0.0 * np.eye(B.size) - S[np.ix_(B, B)], 1.0 + S[B] @ w)
        return w

    try:
        x, y = resolvent(M, blocks), resolvent(M.T, blocks[::-1])
    except np.linalg.LinAlgError:
        return None
    if not (np.all(x > 0.0) and np.all(y > 0.0)):
        return None
    with np.errstate(over="ignore", under="ignore"):
        w = y / x
    return w if np.all((w > 0.0) & np.isfinite(w)) else None


def _reference_classify(A, lds_weights=None):
    """classify_matrix before the stacked solve: three spectral_abscissa
    calls (A, maj(A) and maj(-A)), the block-loop witness and the
    per-subset totally-Hurwitz enumeration."""
    tol = classify_mod.STRICT_TOL
    A = np.array(A, dtype=float)
    M = metzler_majorant(A)
    alpha, alpha_maj = spectral_abscissa(A), spectral_abscissa(M)
    mh = alpha_maj < -tol
    if lds_weights is not None:
        candidate = np.array(lds_weights, dtype=float)
    else:
        candidate = _reference_mh_witness(M) if mh else None
    witness = candidate if candidate is not None and mu2(A, candidate) < -tol else None
    if np.any(np.diag(A) >= -tol):
        th = False
    else:
        th = mh or mu2(A) < -tol or _reference_totally_hurwitz(A)
    marginal = tuple(name for name, a in (("hurwitz", alpha), ("m_hurwitz", alpha_maj))
                     if abs(a) <= tol)
    return classify_mod.ClassReport(
        hurwitz=alpha < -tol, totally_hurwitz=th, m_hurwitz=mh,
        quasidominant=spectral_abscissa(metzler_majorant(-A)) < -tol,
        lds_certified_at=witness, alpha=alpha, alpha_majorant=alpha_maj, marginal=marginal,
    )


def _report_bytes(report):
    """Every ClassReport field as (type name, bytes)."""
    out = []
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if isinstance(value, np.ndarray):
            out.append(("ndarray", value.dtype.str, value.shape, value.tobytes()))
        else:
            out.append((type(value).__name__, repr(value),
                        np.float64(value).tobytes() if isinstance(value, float) else None))
    return out


def _classify_sweep_inputs(rng):
    """(A, lds_weights) pairs over the routes and edges of classify_matrix."""
    yield np.zeros((1, 1)), None
    yield np.array([[-0.0]]), None
    yield np.array([[-1e-6, 1.0], [0.0, -1e-6]]), None  # one-way coupled
    yield np.array([[2.0, -1.0], [-1.0, 2.0]]), None  # positive diagonal
    # alpha is a zero whose sign spectral_abscissa takes from the eigenvalue
    # with the larger imaginary part
    yield np.array([[-0.0, 0.9], [-1.1, 0.0]]), None
    yield np.array([[0.0, 0.9], [-1.1, -0.0]]), None
    yield np.array([[-0.0, 1.0], [0.0, 0.0]]), None
    yield np.array([[-1.0, 2.0, 0.5], [0.0, -2.0, 1.0], [0.0, 0.0, -3.0]]), None
    yield from ((A, None) for A in _mh_sweep_inputs(rng, 60))
    for n in range(1, 13):
        for _ in range(3):
            mh = random_mh_matrix(rng, n)
            yield mh, None
            yield -mh, None  # quasidominant, positive diagonal
            yield _hurwitz_negative_diagonal(rng, n), None
            if n >= 2:
                yield _spiral_blocks(rng, n), None
                yield _negdef_not_mh(rng, n), None
            # reducible: block upper triangular, and a one-way chain
            A = random_mh_matrix(rng, n)
            A[n // 2 + 1:, : n // 2 + 1] = 0.0
            yield A, None
            chain = np.diag(rng.uniform(-2.0, -0.1, size=n)) + np.diag(rng.normal(size=n - 1), 1)
            yield chain, None
            # zero, -0.0 and +/-1e-12 diagonal entries, on M-Hurwitz and
            # quasidominant inputs; on the triangular -chain such an entry is
            # an eigenvalue of maj(-A), at the diagonal rule's threshold
            for value in (0.0, -0.0, 1e-12, -1e-12):
                for B in (random_mh_matrix(rng, n), -random_mh_matrix(rng, n), -chain):
                    B[int(rng.integers(n)), int(rng.integers(n))] = 0.0
                    i = int(rng.integers(n))
                    B[i, i] = value
                    yield B, None
            yield rng.normal(size=(n, n)), rng.uniform(0.2, 3.0, size=n)


def test_classify_matrix_matches_parent_route_bit_for_bit():
    rng = np.random.default_rng(18)
    seen = {"m_hurwitz": 0, "hurwitz_not_mh": 0, "reducible": 0, "quasidominant": 0,
            "zero_diagonal": 0, "tol_diagonal": 0, "witness": 0}
    count = 0
    for A, weights in _classify_sweep_inputs(rng):
        got = classify_matrix(A, lds_weights=weights)
        assert _report_bytes(got) == _report_bytes(_reference_classify(A, weights)), A
        count += 1
        diag = np.diag(A)
        seen["m_hurwitz"] += got.m_hurwitz
        seen["hurwitz_not_mh"] += got.hurwitz and not got.m_hurwitz
        seen["reducible"] += not is_irreducible(A)
        seen["quasidominant"] += got.quasidominant
        seen["zero_diagonal"] += bool(np.any(diag == 0.0))
        seen["tol_diagonal"] += bool(np.any(np.abs(diag) == 1e-12))
        seen["witness"] += got.lds_certified_at is not None
    assert count >= 300 and min(seen.values()) >= 20, (count, seen)
