"""Shared fixtures and random-instance generators for the test suite."""

import itertools
import math

import numpy as np

from mucert import (
    L1,
    LINF,
    Activation,
    FiringRate,
    Hopfield,
    Lure,
    MultiLure,
    Persidskii,
    SlopeInterval,
    metzler_majorant,
    spectral_abscissa,
)

# Stable spiral (eigenvalues -1 +/- i*sqrt(2)): negative unweighted l2 log norm
# but an unstable Metzler majorant.
DAMPED_SPIRAL = np.array([[-1.0, -1.0], [2.0, -1.0]])

# Hurwitz (double eigenvalue -1) despite a positive diagonal entry, so its
# 1x1 principal submatrix is unstable.
STABLE_POS_DIAG = np.array([[1.0, 1.0], [-4.0, -3.0]])

# Scaled rotation (eigenvalues 1 +/- i); its majorant is rank-one-plus-shift
# with eigenvalues {2, 0}.
ROTATION_SHIFT = np.array([[1.0, 1.0], [-1.0, 1.0]])

# Skew-symmetric ring coupling: zero symmetric part, but removing one strong
# edge destabilizes the -I-shifted matrix.
SKEW_RING = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, 15.0], [-1.0, -15.0, 0.0]])
SKEW_RING_EDGE = (2, 1)  # 0-based position of the strong edge to remove


def field_at(model, act, X):
    """The model's vector field at the columns of X, as a fresh array: its
    map at h = 1 and x = 0, built for X's width."""
    out = np.empty(X.shape)
    model.euler_map(act, 1.0, X.shape[1], 0.0)[0](np.ascontiguousarray(X, dtype=float), out)
    return out


def closure_reference(A):
    """Boolean matrix R with R[i, j] true iff i == j or a chain of nonzero
    entries A[i, k1], ..., A[km, j] leads from i to j: the transitive closure
    of the nonzero pattern by repeated boolean squaring, as a test-only
    oracle for strongly connected blocks."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    reach = (A != 0.0) | np.eye(n, dtype=bool)
    for _ in range(int(math.ceil(math.log2(n))) + 1):
        new = reach @ reach
        if np.array_equal(new, reach):
            break
        reach = new
    return reach


def random_matrix(rng, n, scale=1.0):
    return rng.normal(scale=scale, size=(n, n))


def random_weights(rng, n, lo=0.2, hi=3.0):
    return rng.uniform(lo, hi, size=n)


def random_irreducible_metzler(rng, n):
    """Dense positive off-diagonal entries make the digraph complete."""
    M = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(M, rng.normal(size=n))
    return M


def near_tie_metzler(rng, k):
    """Two diagonally similar k x k blocks (equal Perron roots) coupled by
    1e-9 both ways: irreducible, but its two leading eigenvalues lie about
    1e-9 apart, so power iteration cannot converge."""
    B = rng.uniform(0.1, 1.0, size=(k, k))
    d = rng.uniform(0.5, 2.0, size=k)
    M = np.full((2 * k, 2 * k), 1e-9)
    M[:k, :k] = B
    M[k:, k:] = (d[:, None] * B) / d[None, :]
    np.fill_diagonal(M, -1.0)
    return M


def closed_form_models(rng, count, sizes):
    """(model, family) pairs on which a closed form applies: Hopfield l1 and
    FiringRate linf, with d1 = 0 and a positive diagonal leak or with a
    scalar leak and d1 >= 0; every third coupling is made reducible."""
    models = []
    for k in range(count):
        n = int(rng.choice(sizes))
        A = random_matrix(rng, n)
        if k % 3 == 2:
            A[n // 2:, : n // 2] = 0.0
        if k % 2:
            C = float(rng.uniform(0.2, 2.0)) * np.eye(n)
            d1 = float(rng.uniform(0.0, 0.5))
            slopes = SlopeInterval(d1, d1 + float(rng.uniform(0.1, 1.5)))
        else:
            C = np.diag(rng.uniform(0.2, 2.0, size=n))
            slopes = SlopeInterval(0.0, float(rng.uniform(0.2, 1.5)))
        models += [(Hopfield(C, A, slopes), L1), (FiringRate(C, A, slopes), LINF)]
    return models


def random_metzler(rng, n, density=0.6):
    M = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random(size=(n, n)) < density)
    np.fill_diagonal(M, rng.normal(size=n))
    return M


def random_mh_matrix(rng, n, gap_lo=0.05, gap_hi=1.0):
    """Random matrix whose Metzler majorant is Hurwitz by a diagonal shift."""
    A = rng.normal(size=(n, n))
    a = spectral_abscissa(metzler_majorant(A))
    return A - (a + rng.uniform(gap_lo, gap_hi)) * np.eye(n)


def random_slope_pair(rng, pattern):
    """d1 < d2 with the requested sign pattern."""
    if pattern == "negative":
        hi = -rng.uniform(0.05, 1.0)
        return hi - rng.uniform(0.1, 2.0), hi
    if pattern == "straddle":
        return -rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
    if pattern == "positive":
        lo = rng.uniform(0.05, 1.0)
        return lo, lo + rng.uniform(0.1, 2.0)
    raise ValueError(pattern)


SLOPE_PATTERNS = ("negative", "straddle", "positive")


def multilure_linf_by_sign_patterns(model, w):
    """Oracle for the worst-case weighted linf log norm of A + B diag(d) C
    over the slope box, by a different algorithm from vertex enumeration:
    for each active row i and each sign pattern of its off-diagonal entries
    the objective is linear in d, so every slope sits at the endpoint that
    its coefficient's sign selects (n * 2^(n-1) patterns)."""
    n = model.n
    w = np.asarray(w, dtype=float)
    A, B, C = model.A, model.B, model.C
    d1, d2 = model.slopes.d1, model.slopes.d2
    best = -np.inf
    for i in range(n):
        others = [j for j in range(n) if j != i]
        ratio = w[others] / w[i]
        if others:
            signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n - 1)))
            const = A[i, i] + signs @ (A[i, others] * ratio)
            # coef[p, k] = B[i, k] * (C[k, i] + sum_j signs[p, j] C[k, j] w_j / w_i)
            coef = B[i, :] * (C[:, i] + (signs @ (C[:, others] * ratio).T))
        else:
            const = np.array([A[i, i]])
            coef = (B[i, :] * C[:, i])[None, :]
        vals = const + d2 * np.clip(coef, 0.0, None).sum(axis=1) \
            + d1 * np.clip(coef, None, 0.0).sum(axis=1)
        best = max(best, float(np.max(vals)))
    return best


def acceptance_fixtures():
    """Certifiably contracting model/activation pairs used by the
    simulation-verification and sampled-bound tests."""
    return [
        (
            "hopfield-tanh",
            Hopfield(np.eye(2), [[0.0, 0.4], [0.3, 0.0]], SlopeInterval(0.0, 1.0)),
            Activation("tanh"),
            "l1",
        ),
        (
            "hopfield-relu",
            Hopfield(
                np.eye(3),
                [[0.0, 0.3, 0.2], [0.1, 0.0, 0.4], [0.25, 0.15, 0.0]],
                SlopeInterval(0.0, 1.0),
                u=[0.3, -0.2, 0.1],
            ),
            Activation("relu"),
            "l1",
        ),
        (
            "firing-rate-relu",
            FiringRate(
                np.diag([1.2, 1.0]),
                [[0.3, -0.5], [0.4, 0.2]],
                SlopeInterval(0.0, 1.0),
                u=[0.4, -0.2],
            ),
            Activation("relu"),
            "linf",
        ),
        (
            "persidskii-leaky",
            Persidskii([[-2.0, 1.0], [1.0, -2.0]], SlopeInterval(0.25, 1.0)),
            Activation("leaky_relu", a=0.25),
            None,
        ),
        (
            "lure-tanh",
            Lure(
                [[-2.0, 1.0], [0.0, -3.0]],
                [1.0, 0.5],
                [0.3, -0.2],
                SlopeInterval(0.0, 1.0),
            ),
            Activation("tanh"),
            "l1",
        ),
        (
            "multilure-tanh",
            MultiLure(
                [[-3.0, 0.5], [0.4, -2.5]],
                [[0.6, -0.3], [0.2, 0.5]],
                [[0.5, 0.3], [-0.4, 0.6]],
                SlopeInterval(0.0, 1.0),
            ),
            Activation("tanh"),
            None,
        ),
    ]
