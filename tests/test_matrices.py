import dataclasses
import re
import warnings

import numpy as np
import pytest
import scipy.sparse.csgraph

import mucert.classify as classify
import mucert.lognorm as lognorm
import mucert.networks as networks
import mucert.optimize as optimize
import mucert.simulate as simulate
import mucert.spectral as spectral
from mucert import (
    Activation,
    FeasibilityProblem,
    Hopfield,
    Lure,
    MultiLure,
    PolytopeSpec,
    SlopeInterval,
    bisect_min_mu,
    certify,
    certify_hopfield_mh,
    edge_removal_check,
    integrate,
    jacobian,
    log_norm,
    metzler_majorant,
    nonneg_metzler_majorant,
    pad,
    perron_pair,
    perron_weights,
    principal_submatrix,
    sample_jacobian_mu,
    scaled_majorant_identity,
    verify_contraction,
    weighted_norm,
)
from mucert.matrices import (
    as_matrix,
    as_vector,
    as_weights,
    check_diagonal,
    is_metzler,
    strong_blocks,
)
from mucert.spectral import NumericalError, _resolvent_weights, is_irreducible

from helpers import DAMPED_SPIRAL, SKEW_RING, closure_reference

ATOL = 1e-12


def test_metzler_majorant_known_values():
    np.testing.assert_allclose(
        metzler_majorant([[1, 1], [-1, 1]]), [[1, 1], [1, 1]], atol=ATOL
    )
    D = np.diag([3.0, -2.0, 0.5])
    np.testing.assert_allclose(metzler_majorant(D), D, atol=ATOL)
    np.testing.assert_allclose(
        metzler_majorant(DAMPED_SPIRAL), [[-1, 1], [2, -1]], atol=ATOL
    )


def test_nonneg_majorant_known_values():
    np.testing.assert_allclose(
        nonneg_metzler_majorant(DAMPED_SPIRAL), [[0, 1], [2, 0]], atol=ATOL
    )
    Z = np.zeros((3, 3))
    np.testing.assert_allclose(nonneg_metzler_majorant(Z), Z, atol=ATOL)
    N = np.array([[0.5, 1.0], [2.0, 0.0]])
    np.testing.assert_allclose(nonneg_metzler_majorant(N), N, atol=ATOL)


def test_majorant_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(1, 8)
        A = rng.normal(size=(n, n))
        M = metzler_majorant(A)
        assert is_metzler(M)
        np.testing.assert_allclose(metzler_majorant(M), M, atol=ATOL)
        off = ~np.eye(n, dtype=bool)
        assert np.all(M[off] >= A[off])
        np.testing.assert_allclose(np.diag(M), np.diag(A), atol=ATOL)
        assert np.all(nonneg_metzler_majorant(A) >= M - ATOL)


def test_principal_submatrix():
    A = np.arange(9, dtype=float).reshape(3, 3)
    np.testing.assert_allclose(
        principal_submatrix(A, (0, 2)), [[A[0, 0], A[0, 2]], [A[2, 0], A[2, 2]]]
    )
    np.testing.assert_allclose(principal_submatrix(A, (0, 1, 2)), A)
    np.testing.assert_allclose(
        principal_submatrix(SKEW_RING, (1, 2)), [[0.0, 15.0], [-15.0, 0.0]]
    )


def test_pad():
    np.testing.assert_allclose(pad([4.0, 7.0], (0, 2), 3), [4.0, 0.0, 7.0])
    np.testing.assert_allclose(pad([1.0, 2.0], (0, 1), 2), [1.0, 2.0])
    np.testing.assert_allclose(pad([0.0, 0.0], (1, 3), 5), np.zeros(5))


def test_pad_then_restrict_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        idx = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        y = rng.normal(size=k)
        np.testing.assert_allclose(pad(y, idx, n)[list(idx)], y, atol=ATOL)


def test_validation_errors():
    with pytest.raises(ValueError):
        as_matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_weights([1.0, 0.0])
    with pytest.raises(IndexError):
        principal_submatrix(np.eye(2), (0, 2))
    with pytest.raises(ValueError):
        principal_submatrix(np.eye(3), (2, 0))
    with pytest.raises(ValueError):
        pad([1.0], (0, 1), 3)
    with pytest.raises(ValueError):
        check_diagonal([[1.0, 1e-15], [0.0, 1.0]])
    with pytest.raises(ValueError):
        check_diagonal([[-1.0, 0.0], [0.0, 1.0]])


def test_is_irreducible_matches_closure_reference():
    # One strongly connected block iff the closure of the nonzero pattern is
    # all true.
    rng = np.random.default_rng(15)
    dense = rng.uniform(0.1, 1.0, size=(6, 6))
    one_zero = dense.copy()
    one_zero[2, 4] = 0.0
    triangular = np.triu(dense)  # reducible: block-triangular with 1x1 blocks
    blocks = dense.copy()
    blocks[3:, :3] = 0.0  # two irreducible 3x3 blocks, the first fed by the second
    cases = [
        np.array([[0.0]]),
        np.array([[-2.5]]),
        dense,
        -dense,
        np.diag(rng.normal(size=5)),
        np.zeros((4, 4)),
        one_zero,
        triangular,
        blocks,
        blocks.T,
        np.asfortranarray(blocks),
    ]
    for A in cases:
        assert is_irreducible(A) == closure_reference(A).all()
    assert is_irreducible(dense) and not is_irreducible(blocks)
    assert len(strong_blocks(one_zero)) == 1 and len(strong_blocks(triangular)) == 6


def _layered(rng, widths, density):
    """A feed-forward pattern: dense layers, each fed by every later layer
    at the given density and by none before it."""
    n = sum(widths)
    bounds = np.cumsum([0] + widths)
    A = np.zeros((n, n))
    for a, b in zip(bounds[:-1], bounds[1:]):
        A[a:b, a:] = rng.normal(size=(b - a, n - a)) * (rng.random((b - a, n - a)) < density)
        A[a:b, a:b] = rng.uniform(0.1, 1.0, size=(b - a, b - a))
    return A


def test_strong_blocks_match_csgraph_in_dependency_order():
    rng = np.random.default_rng(16)
    cases = []
    for trial in range(80):
        n = int(rng.integers(1, 25))
        cases.append(rng.normal(size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.02, 0.4)))
    chain = np.diag(np.ones(599), 1)  # i feeds i + 1 only: 600 single-index blocks
    layered = _layered(rng, [5, 1, 12, 3, 7], 0.3)
    cases += [chain, chain.T, layered]
    cases.append(rng.normal(size=(1024, 1024)) * (rng.random((1024, 1024)) < 0.01))
    for A in cases:
        n = A.shape[0]
        blocks = strong_blocks(A)
        _, label = scipy.sparse.csgraph.connected_components(A != 0.0, connection="strong")
        assert sorted(B.tolist() for B in blocks) == sorted(
            np.flatnonzero(label == k).tolist() for k in np.unique(label))
        assert all(np.all(np.diff(B) > 0) for B in blocks)  # each ascending
        # Each row of a block reads only its own block and blocks before it;
        # in the transposed pattern the reverse order has that property.
        for order, M in ((blocks, A), (blocks[::-1], A.T)):
            done = np.zeros(n, dtype=bool)
            for B in order:
                done[B] = True
                assert not np.any(M[B][:, ~done])
    assert len(strong_blocks(chain)) == 600
    assert [B.size for B in strong_blocks(layered)] == [7, 3, 12, 1, 5]


def test_block_resolvent_solves_the_whole_system():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(2, 16))
        M = np.abs(rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.3)
        np.fill_diagonal(M, rng.normal(size=n))
        b = float(np.max(np.linalg.eigvals(M).real)) + rng.uniform(0.1, 1.0)
        blocks = strong_blocks(M)
        w = _resolvent_weights(M, blocks, b)
        assert np.all(w > 0.0)
        np.testing.assert_allclose((b * np.eye(n) - M) @ w, 1.0, rtol=1e-9, atol=0.0)
        wt = _resolvent_weights(M, blocks, b, left=True)
        np.testing.assert_allclose((b * np.eye(n) - M.T) @ wt, 1.0, rtol=1e-9, atol=0.0)
    with pytest.raises(NumericalError):
        _resolvent_weights(np.zeros((2, 2)), strong_blocks(np.zeros((2, 2))), 0.0)


def test_integers_beyond_the_float_range_are_not_finite():
    # numpy and float() raise OverflowError on them; the constructors refuse
    # them as non-finite values instead.
    big = 10**400
    slopes = SlopeInterval(0, 1)
    cases = [
        (lambda: as_vector([big]), "vector entries must be finite"),
        (lambda: as_matrix([[1, -big]]), "matrix entries must be finite"),
        (lambda: as_weights([1.0, big]), "vector entries must be finite"),
        (lambda: Hopfield(C=[[1.0]], A=[[big]], slopes=slopes), "matrix entries must be finite"),
        (lambda: MultiLure([[-1.0]], [[big]], [[1.0]], slopes), "matrix entries must be finite"),
        (lambda: PolytopeSpec([[0.0]], [big], slopes, "left"), "vector entries must be finite"),
        (lambda: SlopeInterval(0, big), "upper slope bound"),
        (lambda: SlopeInterval(-big, 1), "lower slope bound d1 must be finite"),
        (lambda: Activation("linear", k=big), "linear needs a finite gain k"),
        (lambda: Activation("rect_poly", r=big), "rect_poly needs an integer exponent"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
    # The largest float and an integer that rounds to it stay valid.
    top = np.finfo(float).max
    assert SlopeInterval(0, int(top)).d2 == top
    assert Activation("linear", k=-int(top)).k == -int(top)


def test_empty_index_sets_are_refused():
    for make in (lambda: principal_submatrix(np.eye(2), []), lambda: pad([], (), 3)):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == "index set must be nonempty"


# The number rule (see the matrices module docstring) at every entry point
# that reads a number: each entry places the value v in one slot, a scalar
# argument or one entry of an array argument, and `nan` says whether the
# slot requires a finite value (or, for d2, a value that is not NaN).
_C2, _A2, _M2 = np.eye(2), [[0.0, 0.4], [0.3, 0.0]], [[-1.0, 0.5], [0.5, -1.0]]
_SLOPES = SlopeInterval(0.0, 1.0)
_TANH = Activation("tanh")
_HOPFIELD = Hopfield(_C2, _A2, _SLOPES)
_CERT = certify(_HOPFIELD)


def _verify(**kwargs):
    return verify_contraction(_HOPFIELD, _TANH, _CERT,
                              **{"pairs": 2, "horizon": 1.0, "step": 0.125, **kwargs})


_ARRAY_REFUSAL = "entries of {0} must be numbers|{0} entries must be finite"
NUMBER_SLOTS = {
    "SlopeInterval-d1": (lambda v: SlopeInterval(v, 2.0), True, "lower slope bound d1"),
    "SlopeInterval-d2": (lambda v: SlopeInterval(0.0, v), True, "upper slope bound d2"),
    "certify_hopfield_mh-d2": (lambda v: certify_hopfield_mh(_C2, _A2, v), True,
                               "d2 must be finite and nonnegative"),
    "verify_contraction-horizon": (lambda v: _verify(horizon=v), True, "horizon .* and step"),
    "verify_contraction-step": (lambda v: _verify(horizon=2.0, step=v), True,
                                "horizon .* and step"),
    "verify_contraction-initial_pairs": (
        lambda v: _verify(initial_pairs=([v, 0.0], [0.0, 0.5])), True,
        _ARRAY_REFUSAL.format("initial pair") + "|pair 0 has a non-finite entry"),
    "integrate-horizon": (lambda v: integrate(_HOPFIELD, _TANH, [0.1, 0.2], v, 0.25), True,
                          "horizon .* and step"),
    "integrate-step": (lambda v: integrate(_HOPFIELD, _TANH, [0.1, 0.2], 2.0, v), True,
                       "horizon .* and step"),
    "integrate-x0": (lambda v: integrate(_HOPFIELD, _TANH, [v, 0.2], 2.0, 0.25), True,
                     _ARRAY_REFUSAL.format("vector")),
    "sample_jacobian_mu-scale": (lambda v: sample_jacobian_mu(_HOPFIELD, _TANH, 4, "l1", scale=v),
                                 True, "scale must be finite"),
    "jacobian-x": (lambda v: jacobian(_HOPFIELD, _TANH, [v, 0.0]), False,
                   _ARRAY_REFUSAL.format("vector")),
    "FeasibilityProblem-b": (lambda v: FeasibilityProblem((_M2,), v), True, "level b"),
    "scaled_majorant_identity-gamma": (lambda v: scaled_majorant_identity(v, _A2), True,
                                       "matrix entries must be finite"),
    "bisect_min_mu-tol": (lambda v: bisect_min_mu([_M2], "l1", tol=v), True, "tol must be"),
    "bisect_min_mu-matrices": (lambda v: bisect_min_mu([[[-1.0, v], [0.5, -1.0]]], "l1"), True,
                               _ARRAY_REFUSAL.format("matrix")),
    "perron_pair-delta": (lambda v: perron_pair(_M2, v), True, "delta must be"),
    "perron_weights-p": (lambda v: perron_weights(_M2, v), True, "p must be 1 or inf"),
    "edge_removal_check-shift": (lambda v: edge_removal_check(_M2, [(0, 1)], v), True,
                                 "shift must be finite"),
    "as_matrix": (lambda v: as_matrix([[v, 0.5], [0.5, v]]), True,
                  _ARRAY_REFUSAL.format("matrix")),
    "as_vector": (lambda v: as_vector([v, 2.0]), True, _ARRAY_REFUSAL.format("vector")),
    "as_weights": (lambda v: as_weights((2.0, v)), True, _ARRAY_REFUSAL.format("vector")),
    "is_irreducible": (lambda v: is_irreducible([[v, 1.0], [1.0, v]]), True,
                       _ARRAY_REFUSAL.format("matrix")),
    "is_metzler": (lambda v: is_metzler([[v, 1.0], [1.0, v]]), False,
                   _ARRAY_REFUSAL.format("matrix")),
    "is_metzler-tol": (lambda v: is_metzler([[0.0, -1.0], [0.0, 0.0]], tol=v), True,
                       "tol must be finite and nonnegative"),
    "log_norm-weights": (lambda v: log_norm(_M2, "l1", [v, 1.0]), True,
                         _ARRAY_REFUSAL.format("vector")),
    "weighted_norm-x": (lambda v: weighted_norm([v, 2.0], "l1"), False,
                        _ARRAY_REFUSAL.format("vector")),
    "Hopfield-A": (lambda v: Hopfield(_C2, [[v, 0.4], [0.3, 0.0]], _SLOPES), True,
                   _ARRAY_REFUSAL.format("matrix")),
    "Hopfield-C": (lambda v: Hopfield([[v, 0.0], [0.0, 1.0]], _A2, _SLOPES), True,
                   _ARRAY_REFUSAL.format("matrix")),
    "Hopfield-u": (lambda v: Hopfield(_C2, _A2, _SLOPES, [v, 0.0]), True,
                   _ARRAY_REFUSAL.format("vector")),
    "MultiLure-B": (lambda v: MultiLure(_M2, [[v], [0.5]], [[0.5, 1.0]], _SLOPES), True,
                    _ARRAY_REFUSAL.format("matrix")),
    "Lure-c": (lambda v: Lure(_M2, [1.0, 0.5], [v, 0.5], _SLOPES), True,
               _ARRAY_REFUSAL.format("vector")),
    "PolytopeSpec-c": (lambda v: PolytopeSpec(_A2, [v, -1.0], _SLOPES, "left"), True,
                       _ARRAY_REFUSAL.format("vector")),
    "Activation-k": (lambda v: Activation("linear", k=v), True, "finite gain k"),
}


def _bits(x):
    """x with every number replaced by the hex of its float and every array
    by its shape, dtype and bytes: equal iff the values are bit-identical and
    of one dtype (`integrate` at an integer step gives float64 times)."""
    if dataclasses.is_dataclass(x):
        return _bits({f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, x.tobytes()
    if isinstance(x, (bool, np.bool_, str)) or x is None:
        return x
    return float(x).hex()


@pytest.mark.parametrize("slot", list(NUMBER_SLOTS))
def test_every_entry_point_reads_numbers_by_one_rule(slot, monkeypatch):
    # Every spelling of the number 1 gives the same bits.  A bool, a string
    # and an integer beyond the float range are refused with ValueError
    # before any work, and NaN too where the slot needs a finite value.
    call, finite, message = NUMBER_SLOTS[slot]
    want = _bits(call(1.0))
    for one in (1, np.float64(1.0), np.int64(1)):
        assert _bits(call(one)) == want, one
    if finite:
        with pytest.raises(ValueError, match=message):
            call(np.nan)

    def work(*args, **kwargs):
        raise AssertionError("work started before the input was read")

    for module, name in ((spectral, "_perron"), (spectral, "_secular_pair"),
                         (optimize, "_policy_iteration"), (simulate, "_state_blocks"),
                         (simulate, "_max_jacobian_mu"), (classify, "is_hurwitz"),
                         (networks, "_perron_certificate")):
        monkeypatch.setattr(module, name, work)
    monkeypatch.setattr(networks._SlopeScaled, "jacobians", work)
    monkeypatch.setitem(lognorm._KERNELS, "l1", (work, work))
    for bad in (True, np.True_, "1.5", 10**400):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call(bad)


def test_is_metzler_refuses_a_negative_tol():
    with pytest.raises(ValueError, match="tol must be finite and nonnegative, got -0.5"):
        is_metzler(np.eye(2), tol=-0.5)
    assert is_metzler([[0.0, -1.0], [0.0, 0.0]], tol=1.0)
    assert not is_metzler([[0.0, -1.0], [0.0, 0.0]], tol=0.5)


# The integer rule (`matrices._check_integers`) for index inputs: each entry
# places the value v in one index slot, where the index 1 is valid.
INDEX_SLOTS = {
    "principal_submatrix": (lambda v: principal_submatrix(np.eye(3), [0, v]), "index"),
    "pad": (lambda v: pad([1.0, 2.0], (0, v), 3), "index"),
    "edge_removal_check-row": (lambda v: edge_removal_check(_M2, [(v, 0)]), "row"),
    "edge_removal_check-col": (lambda v: edge_removal_check(_M2, [(0, v)]), "col"),
}


@pytest.mark.parametrize("slot", list(INDEX_SLOTS))
def test_index_inputs_read_integers_by_one_rule(slot):
    # Every integer spelling of 1 gives the same bits.  A float, even 1.0, a
    # bool, a string and a negative integer are refused with ValueError,
    # where int() would have read 1.7 as 1, True as 1 and "1" as 1.
    call, name = INDEX_SLOTS[slot]
    want = _bits(call(1))
    for one in (np.int64(1), np.int32(1), np.uint8(1)):
        assert _bits(call(one)) == want, one
    for bad in (1.0, 1.7, np.float64(1.0), True, np.True_, "1", -1):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0, got "):
            call(bad)
    with pytest.raises(IndexError):
        call(3)
