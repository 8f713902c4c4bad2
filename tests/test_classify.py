import itertools

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
    perron_pair,
    principal_submatrix,
    pruning_robustness,
    spectral_abscissa,
)
from mucert.spectral import DEFAULT_DELTA, is_irreducible

from helpers import (
    DAMPED_SPIRAL,
    SKEW_RING,
    SKEW_RING_EDGE,
    STABLE_POS_DIAG,
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
    inputs = [SPIRAL_TH, DAMPED_SPIRAL, np.array([[-0.0]])]
    for n in range(2, 9):
        inputs += [random_mh_matrix(rng, n), rng.normal(size=(n, n)), _negdef_not_mh(rng, n)]
    for A in inputs:
        report = pruning_robustness(A)
        want = [
            (idx, spectral_abscissa(metzler_majorant(principal_submatrix(A, idx))))
            for idx in _subsets(A.shape[0])
        ]
        assert [(e.indices, e.alpha_majorant) for e in report.entries] == want
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


def test_mh_lds_witness_makes_one_irreducibility_pass(monkeypatch):
    calls = []
    check = spectral_mod.is_irreducible
    monkeypatch.setattr(spectral_mod, "is_irreducible", lambda M: calls.append(1) or check(M))
    rng = np.random.default_rng(15)
    for _ in range(5):
        A = random_mh_matrix(rng, 6)
        calls.clear()
        w = mh_lds_witness(A)
        assert len(calls) == 1
        pair = perron_pair(metzler_majorant(A))
        assert np.array_equal(w, pair.left / pair.right)

    A = np.diag([-1.0, -2.0, -3.0])  # reducible: weights of the delta-perturbed pair
    A[0, 1] = 0.5
    pair = perron_pair(metzler_majorant(A), DEFAULT_DELTA)
    assert not is_irreducible(metzler_majorant(A))
    assert np.array_equal(mh_lds_witness(A), pair.left / pair.right)


def test_classify_matrix_takes_each_abscissa_once(monkeypatch):
    # alpha(A), alpha(maj(A)) and the quasidominance abscissa: the
    # totally-Hurwitz shortcut reuses the M-Hurwitz flag.
    calls = []
    solve = classify_mod.spectral_abscissa
    monkeypatch.setattr(classify_mod, "spectral_abscissa", lambda M: calls.append(1) or solve(M))
    rng = np.random.default_rng(16)
    for A, mh in ((random_mh_matrix(rng, 8), True), (_spiral_blocks(rng, 8), False)):
        calls.clear()
        report = classify_matrix(A)
        assert len(calls) == 3
        assert report.m_hurwitz == mh and report.totally_hurwitz
