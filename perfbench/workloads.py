"""Seeded inputs, operations and output checks for the four benchmark workloads.

Each workload hands out *rounds*: fixed-composition lists of operations built
from fresh seeded inputs.  The runner times the operations and runs each
check outside the timed region.  Every round has the same mix of sizes and
input properties, and a run does a number of whole rounds fixed by its
length (`Workload.rounds_for`), so one seed always measures the same inputs.

Workloads and the layers they isolate:

* ``certify-lp``      -- LP bisection (``optimize``); no ``spectral`` call.
* ``certify-perron``  -- Perron pairs (``spectral``) at large n, reducible
  majorants and near-tied dominant blocks; no ``optimize`` call.
* ``verify-rk4``      -- ``simulate`` + ``lognorm`` norms on certificates
  made during set-up; no ``optimize``/``spectral`` work in the timed region.
* ``matrix-cli``      -- ``classify`` (thousands of tiny eigen solves) and
  the ``mucert`` command line as a subprocess on n <= 4 files.

Every input generator uses dense ``numpy.linalg.eigvals`` (never mucert's own
spectral code) to place abscissas, and the checks use the same independent
routes, plus ``scipy.optimize.linprog`` for LP optimality.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import mucert
from mucert import cli as mucert_cli

# Relative tolerances of the output checks.
OSL_RTOL = 1e-9      # re-evaluated bound vs the certified one (same formula)
LP_GAP_RTOL = 1e-5   # the LP must be infeasible this far below the certified level
ALPHA_RTOL = 1e-8    # reported abscissa vs dense eigvals

VERIFY_PAIRS = 20
VERIFY_HORIZON = 1.0
VERIFY_STEP = 1e-3

# The exact multilure solver enumerates n * 2^(n-1) sign patterns; above this
# size the check samples slope vertices instead.
MULTILURE_EXACT_MAX_N = 12

CLI_STREAM = 999_999  # rng substream for the CLI model files, apart from rounds


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


@dataclass
class Op:
    """One timed call.  `call` does the work; `check` inspects its result
    (raising CheckFailed) and runs untimed.  `props` records the input
    properties reported per run (near-tie, reducible, m_hurwitz, ...)."""

    kind: str
    n: int
    call: Callable[[], object]
    check: Callable[[object], None]
    props: dict = field(default_factory=dict)
    work: int = 0  # pair-steps for verify operations
    in_process: Callable[[], object] | None = None  # traced twin of a subprocess call


# ---------------------------------------------------------------------------
# independent matrix helpers (dense numpy only)


def majorant(A):
    M = np.abs(A)
    np.fill_diagonal(M, np.diag(A))
    return M


def dense_abscissa(A) -> float:
    return float(np.max(np.linalg.eigvals(A).real))


def signed(rng, M):
    """Same Metzler majorant as M, random signs off the diagonal."""
    S = M * rng.choice((-1.0, 1.0), size=M.shape)
    np.fill_diagonal(S, np.diag(M))
    return S


def metzler_base(rng, n, gap, reducible=False, near_tie=False, normalize=False):
    """Metzler matrix with dense-eigvals abscissa exactly -gap (up to rounding).

    normalize: scale the off-diagonal part to Perron root 1 first, so entries
    are O(1/n) as in the Hopfield/firing-rate inputs, not O(1).

    reducible: block upper triangular, so the digraph is not strongly
    connected; the lower block is scaled by 1/2 so the two diagonal blocks
    have well separated Perron roots (near ties are their own share).
    near_tie: two diagonally similar blocks (equal Perron roots) coupled by
    1e-9 both ways, so power iteration sees a dominant-eigenvalue ratio within
    ~1e-9 of one and stalls until its iteration cap.
    """
    if near_tie:
        k = n // 2
        B = rng.uniform(0.1, 1.0, size=(k, k))
        d = rng.uniform(0.5, 2.0, size=k)
        P = np.full((n, n), 1e-9)
        P[:k, :k] = B
        P[k:, k:] = (d[:, None] * B) / d[None, :]
    else:
        P = rng.uniform(0.0, 1.0, size=(n, n))
        if reducible:
            P[n // 2:, : n // 2] = 0.0
            P[n // 2:, n // 2:] *= 0.5
    np.fill_diagonal(P, 0.0)
    alpha = dense_abscissa(P)
    if normalize:
        P, alpha = P / alpha, 1.0
    return P - (alpha + gap) * np.eye(n)


def check_close(name, got, want, tol):
    if not (abs(got - want) <= tol):
        raise CheckFailed(f"{name}: got {got!r}, expected {want!r} within {tol:.3g}")


def check_rate(cert):
    """`rate == -osl` when contracting, 0 otherwise."""
    if cert.contracting:
        if cert.rate != -cert.osl or not cert.osl <= -mucert.networks.CONTRACTION_MARGIN:
            raise CheckFailed(f"rate {cert.rate!r} != -osl {cert.osl!r}")
    elif cert.rate != 0.0:
        raise CheckFailed(f"non-contracting certificate with rate {cert.rate!r}")


def check_fixed_weight(model, family, weights, cert_osl, scale):
    value, _ = mucert.fixed_weight_osl(model, family, weights)
    if not value <= cert_osl + OSL_RTOL * scale:
        raise CheckFailed(
            f"fixed-weight bound {value!r} exceeds certified osl {cert_osl!r}"
        )


# ---------------------------------------------------------------------------
# certify-lp


def _lp_matrices(model, family):
    """The two matrices the LP bisection runs over, rebuilt from the model."""
    side = mucert.RIGHT if isinstance(model, mucert.Hopfield) else mucert.LEFT
    spec = mucert.PolytopeSpec(model.A, -np.diag(model.C), model.slopes, side)
    return list(mucert.envelope_matrices(spec, family))


def lp_is_infeasible(mats, family, level) -> bool:
    """scipy oracle: no w >= 1 with majorant(M_k) w <= level w for every k
    (majorants transposed for l1), as in the package's own LP tests."""
    maj = [majorant(M) for M in mats]
    if family == mucert.L1:
        maj = [M.T for M in maj]
    import scipy.optimize  # check-only dependency, kept out of set-up time

    n = maj[0].shape[0]
    G = np.vstack([M - level * np.eye(n) for M in maj])
    res = scipy.optimize.linprog(
        c=np.zeros(n), A_ub=G, b_ub=np.zeros(G.shape[0]),
        bounds=[(1.0, None)] * n, method="highs",
    )
    return res.status == 2


def check_lp_certificate(model, family, cert):
    if cert.weights is None or not cert.theorem.endswith("/weight-lp"):
        raise CheckFailed(f"expected an LP certificate, got {cert.theorem!r}")
    mats = _lp_matrices(model, family)
    scale = 1.0 + max(float(np.max(np.abs(M))) for M in mats)
    check_fixed_weight(model, family, cert.weights, cert.osl, scale)
    check_rate(cert)
    if not lp_is_infeasible(mats, family, cert.osl - LP_GAP_RTOL * scale):
        raise CheckFailed(f"LP feasible below certified osl {cert.osl!r}")


def lp_model(rng, kind, n):
    """Hopfield/firing-rate with d1 < 0, so no closed form applies.  Couplings
    are drawn on a scale where about 80 % are contracting.

    Scalar-loop (lure) models are left out: on a small share of them the LP
    bisection raises or returns weights that miss its own optimum, a defect
    of the package that lure_defect_repro.py reproduces."""
    slopes = mucert.SlopeInterval(-rng.uniform(0.1, 0.5), 1.0)
    G = rng.normal(size=(n, n))
    A = rng.uniform(0.4, 1.1) * G / dense_abscissa(majorant(G))
    C = np.diag(rng.uniform(0.8, 1.2, size=n))
    cls = mucert.Hopfield if kind == "hopfield" else mucert.FiringRate
    return cls(C, A, slopes)


LP_KINDS = ("hopfield", "firing_rate")
LP_FAMILY = {"hopfield": mucert.L1, "firing_rate": mucert.LINF}


def certify_lp_round(rng, r, tiny):
    sizes = {4: 3, 6: 2} if tiny else {16: 10, 32: 30, 64: 4, 128: 1}
    ops = []
    for n, count in sizes.items():
        for i in range(count):
            kind = LP_KINDS[(i + r + n) % len(LP_KINDS)]
            ops.append(_lp_op(lp_model(rng, kind, n), kind, n))
    return ops


def _lp_op(model, kind, n):
    family = LP_FAMILY[kind]
    return Op(
        "certify", n,
        call=lambda: mucert.certify(model, family),
        check=lambda cert: check_lp_certificate(model, family, cert),
        props={"model": kind},
    )


# ---------------------------------------------------------------------------
# certify-perron

PERRON_KINDS = (
    "persidskii", "ax_minus_cphi", "entrywise", "multilure",
    "hopfield_unbounded", "firing_rate_unbounded",
)


def perron_model(rng, kind, n, reducible=False, near_tie=False):
    """A model whose certificate takes the Perron route, built so that the
    relevant Metzler matrix T is a known base matrix.  Returns (model, T)."""
    gap = rng.uniform(0.05, 0.5)
    if kind == "multilure":
        M = metzler_base(rng, n, gap)
        m = max(2, n // 64)
        s = rng.uniform(0.05, 0.3) * math.sqrt(gap)
        B = rng.normal(scale=s, size=(n, m)) / math.sqrt(m)
        Cm = rng.normal(scale=s, size=(m, n)) / math.sqrt(n)
        model = mucert.MultiLure(signed(rng, M), B, Cm, mucert.SlopeInterval(0.0, 1.0))
        return model, majorant(mucert.multilure_coupling_bound(model))
    M = metzler_base(rng, n, gap, reducible, near_tie)
    if kind == "persidskii":
        d1 = rng.uniform(0.2, 0.8)
        return mucert.Persidskii(signed(rng, M), mucert.SlopeInterval(d1, d1 + 0.5)), M
    if kind == "ax_minus_cphi":
        d1 = rng.uniform(0.1, 0.5)
        C = np.diag(rng.uniform(0.5, 1.5, size=n))
        A = signed(rng, M) + d1 * C
        return mucert.AxMinusCPhi(A, C, mucert.SlopeInterval(d1, 1.0)), M
    if kind == "entrywise":
        d1 = rng.uniform(0.3, 0.8)
        d2 = d1 + rng.uniform(0.1, 1.0)
        A = signed(rng, M) / d2
        np.fill_diagonal(A, np.diag(M) / d1)
        return mucert.Entrywise(A, mucert.SlopeInterval(d1, d2)), M
    C = np.diag(rng.uniform(0.5, 1.5, size=n))
    slopes = mucert.SlopeInterval(rng.uniform(0.0, 0.5), math.inf)
    cls = mucert.Hopfield if kind == "hopfield_unbounded" else mucert.FiringRate
    return cls(C, signed(rng, M), slopes), M


def _vertex_bound_check(model, cert, scale, rng):
    """Multivariable loops too large for the exact solver: the certified
    bound must dominate both log norms at sampled slope vertices."""
    d1, d2 = model.slopes.d1, model.slopes.d2
    for _ in range(4):
        d = np.where(rng.random(model.m) < 0.5, d1, d2)
        J = model.A + model.B @ (d[:, None] * model.C)
        for fam, w in ((mucert.L1, cert.weights), (mucert.LINF, cert.alt_weights)):
            value = mucert.log_norm(J, fam, w)
            if not value <= cert.osl + OSL_RTOL * scale:
                raise CheckFailed(f"vertex {fam} log norm {value!r} > osl {cert.osl!r}")


def check_perron_certificate(model, kind, T, cert, perturbed, check_seed):
    """Compare with dense eigvals of the Metzler matrix T behind the route.

    Unperturbed, the certified bound equals alpha(T).  With a reducible T the
    weights come from T + delta * ones, so the bound may sit anywhere between
    alpha(T) and alpha(T + delta * ones); that gap is the delta allowance
    (computed densely, it can be far larger than delta itself).
    """
    if cert.weights is None:
        raise CheckFailed(f"no weights in {cert.theorem!r}")
    if "weight-lp" in cert.theorem:
        raise CheckFailed(f"Perron workload took the LP route: {cert.theorem!r}")
    if cert.tight and perturbed:
        raise CheckFailed("perturbed (reducible) certificate claims to be tight")
    check_rate(cert)
    n = T.shape[0]
    scale = 1.0 + float(np.max(np.abs(T)))
    tol = ALPHA_RTOL * scale
    alpha = dense_abscissa(T)
    gap = 0.0
    if perturbed:
        gap = dense_abscissa(T + mucert.spectral.DEFAULT_DELTA * np.ones((n, n))) - alpha
    d = cert.details
    key = {
        "persidskii": "alpha_majorant", "ax_minus_cphi": "alpha_shifted_majorant",
        "entrywise": "alpha_envelope", "multilure": "alpha_coupling",
    }.get(kind, "alpha_majorant")
    check_close(key, d[key], alpha, tol + gap)
    if kind in ("hopfield_unbounded", "firing_rate_unbounded"):
        d1 = model.slopes.d1
        check_close("osl", cert.osl, float(np.max(-np.diag(model.C))) + d1 * alpha, tol + gap)
        # The fixed-weight bound needs finite slopes: every truncation
        # [d1, D] of the slope range must stay within the certified osl.
        for D in (1.0, 10.0):
            trunc = type(model)(model.C, model.A, mucert.SlopeInterval(d1, D), model.u)
            value, _ = mucert.fixed_weight_osl(trunc, cert.family, cert.weights)
            if not value <= cert.osl + D * (tol + gap):
                raise CheckFailed(f"truncated bound {value!r} > osl {cert.osl!r}")
        return
    # The bound is an increasing function f of the weighted log norm m of T,
    # and alpha(T) <= m <= alpha(T + delta * ones).
    f = (lambda m: max(model.slopes.d1 * m, model.slopes.d2 * m)) \
        if kind == "persidskii" else (lambda m: m)
    slope = model.slopes.d2 if kind == "persidskii" else 1.0
    if not f(alpha) - slope * tol <= cert.osl <= f(alpha + gap) + slope * tol:
        raise CheckFailed(f"osl {cert.osl!r} outside [{f(alpha)!r}, {f(alpha + gap)!r}]")
    if kind == "multilure":
        if n <= MULTILURE_EXACT_MAX_N:
            check_fixed_weight(model, mucert.LINF, cert.alt_weights, cert.osl, scale)
        else:
            _vertex_bound_check(model, cert, scale, np.random.default_rng(check_seed))
        return
    check_fixed_weight(model, cert.family, cert.weights, cert.osl, scale)
    if kind == "entrywise":
        check_fixed_weight(model, cert.alt_family, cert.alt_weights, cert.osl, scale)


def certify_perron_round(rng, r, tiny):
    """Per round: 9 per kind at the small and middle sizes, 2 per kind at the
    large size; 5 reducible (2 small, 3 middle); one near-tied case at the
    small size.  Only the near tie is slower than the large-size class, so
    the tail lands inside that class."""
    small, mid, large = (4, 6, 8) if tiny else (16, 64, 256)
    plan = []
    for kind in PERRON_KINDS:
        plan += [(kind, small, False)] * 9 + [(kind, mid, False)] * 9 + [(kind, large, False)] * 2
    reducible_kinds = [k for k in PERRON_KINDS if k != "multilure"]
    for i, n in enumerate((small, small, mid, mid, mid)):
        kind = reducible_kinds[(i + r) % len(reducible_kinds)]
        plan.append((kind, n, True))
    ops = [_perron_op(rng, kind, n, reducible, False, (r, i))
           for i, (kind, n, reducible) in enumerate(plan)]
    tie_kind = ("persidskii", "ax_minus_cphi")[r % 2]
    tie_n = large if tiny else small  # two blocks of at least 4
    ops.append(_perron_op(rng, tie_kind, tie_n, False, True, (r, len(plan))))
    return ops


def _perron_op(rng, kind, n, reducible, near_tie, seed):
    model, T = perron_model(rng, kind, n, reducible, near_tie)
    return Op(
        "certify", n,
        call=lambda: mucert.certify(model),
        check=lambda cert: check_perron_certificate(
            model, kind, T, cert, reducible, list(seed)),
        props={"model": kind, "reducible": reducible, "near_tie": near_tie},
    )


# ---------------------------------------------------------------------------
# verify-rk4

ACTIVATIONS = ("tanh", "relu", "sigmoid", "rect_poly")


def verify_model(rng, act, n):
    """A model certified contracting for `act`, plus its certificate.

    n <= 32: Hopfield/firing-rate with bounded slopes (LP certificate);
    larger n: Ax - C act(x) (Perron certificate), which keeps set-up short.
    rect_poly has unbounded slope and always takes the unbounded-slope
    Hopfield certificate.
    """
    slopes = act.slopes()
    for _ in range(20):
        if act.kind == "rect_poly":
            M = metzler_base(rng, n, rng.uniform(0.2, 0.6))
            model = mucert.Hopfield(np.diag(rng.uniform(0.5, 1.5, size=n)),
                                    signed(rng, M), slopes)
        elif n <= 32:
            G = rng.normal(size=(n, n))
            A = rng.uniform(0.3, 0.7) * G / dense_abscissa(majorant(G))
            C = np.diag(rng.uniform(0.8, 1.2, size=n))
            u = rng.normal(scale=0.5, size=n)
            cls = mucert.FiringRate if act.kind == "relu" else mucert.Hopfield
            model = cls(C, A, slopes, u)
        else:
            M = metzler_base(rng, n, rng.uniform(0.2, 0.6))
            C = np.diag(rng.uniform(0.5, 1.5, size=n))
            model = mucert.AxMinusCPhi(signed(rng, M), C, slopes)
        cert = mucert.certify(model)
        if cert.contracting:
            return model, cert
    raise RuntimeError("could not draw a contracting verify-rk4 model")


def verify_round(rng, r, tiny):
    """Per round: every activation at the small and large size, twice at the
    middle size, so the median sits inside the middle-size class."""
    sizes = {3: 1, 4: 1} if tiny else {4: 1, 32: 2, 128: 1}
    horizon = 0.05 if tiny else VERIFY_HORIZON
    ops = []
    for n, reps in sizes.items():
        for _ in range(reps):
            for kind in ACTIVATIONS:
                act = mucert.Activation(kind, r=2 if kind == "rect_poly" else None)
                model, cert = verify_model(rng, act, n)
                ops.append(_verify_op(model, act, cert, n, horizon, int(rng.integers(2**31))))
    return ops


def _verify_op(model, act, cert, n, horizon, seed):
    step = VERIFY_STEP * (0.5 if act.kind == "rect_poly" else 1.0)
    steps = int(np.floor(horizon / step))

    def check(report):
        if not report.passed:
            raise CheckFailed(f"decay check failed: ratio {report.worst_decay_ratio!r}")
        if report.pairs != VERIFY_PAIRS or report.step != step:
            raise CheckFailed("report does not echo the requested pairs/step")

    return Op(
        "verify", n,
        call=lambda: mucert.verify_contraction(
            model, act, cert, pairs=VERIFY_PAIRS, horizon=horizon,
            step=VERIFY_STEP, seed=seed),
        check=check,
        props={"model": type(model).__name__, "activation": act.kind, "contracting": True},
        work=VERIFY_PAIRS * steps,
    )


# ---------------------------------------------------------------------------
# matrix-cli


def mh_matrix(rng, n):
    """M-Hurwitz (hence Hurwitz and totally Hurwitz)."""
    G = rng.normal(size=(n, n))
    return G - (dense_abscissa(majorant(G)) + rng.uniform(0.1, 1.0)) * np.eye(n)


def hurwitz_not_mh_matrix(rng, n):
    """Negative-definite symmetric part (so every principal submatrix is
    Hurwitz) plus a strong skew part that makes the majorant unstable."""
    while True:
        Q = rng.normal(size=(n, n))
        S = Q @ Q.T / n + rng.uniform(0.2, 1.0) * np.eye(n)
        K = rng.normal(size=(n, n))
        A = -S + rng.uniform(0.8, 1.5) * (K - K.T)
        if dense_abscissa(majorant(A)) > 0.05:
            return A


def check_class_report(A, report, designed_mh):
    scale = 1.0 + float(np.max(np.abs(A)))
    check_close("alpha", report.alpha, dense_abscissa(A), ALPHA_RTOL * scale)
    check_close("alpha_majorant", report.alpha_majorant,
                dense_abscissa(majorant(A)), ALPHA_RTOL * scale)
    if report.hurwitz != (report.alpha < -mucert.classify.STRICT_TOL):
        raise CheckFailed("hurwitz flag disagrees with alpha")
    if report.m_hurwitz != designed_mh:
        raise CheckFailed(f"m_hurwitz {report.m_hurwitz} but input built with {designed_mh}")
    if report.m_hurwitz and not (report.hurwitz and report.totally_hurwitz):
        raise CheckFailed("M-Hurwitz must imply Hurwitz and totally Hurwitz")
    if not report.totally_hurwitz:
        raise CheckFailed("inputs are built totally Hurwitz")


def check_pruning_report(A, report, designed_mh, rng):
    n = A.shape[0]
    if len(report.entries) != 2**n - 1:
        raise CheckFailed(f"{len(report.entries)} subsets, expected {2**n - 1}")
    if report.all_m_hurwitz != all(e.m_hurwitz for e in report.entries):
        raise CheckFailed("all_m_hurwitz disagrees with the entries")
    if designed_mh and not report.all_m_hurwitz:
        raise CheckFailed("M-Hurwitz input must stay M-Hurwitz under pruning")
    scale = 1.0 + float(np.max(np.abs(A)))
    picks = list(rng.choice(len(report.entries), size=6, replace=False)) + [len(report.entries) - 1]
    for i in picks:
        e = report.entries[i]
        idx = list(e.indices)
        want = dense_abscissa(majorant(A[np.ix_(idx, idx)]))
        check_close(f"alpha_majorant{e.indices}", e.alpha_majorant, want, ALPHA_RTOL * scale)


def _matrix_op(kind, rng, n, mh, check_seed):
    A = mh_matrix(rng, n) if mh else hurwitz_not_mh_matrix(rng, n)
    if kind == "classify":
        return Op("classify", n,
                  call=lambda: mucert.classify_matrix(A),
                  check=lambda rep: check_class_report(A, rep, mh),
                  props={"m_hurwitz": mh})
    return Op("prune", n,
              call=lambda: mucert.pruning_robustness(A),
              check=lambda rep: check_pruning_report(
                  A, rep, mh, np.random.default_rng(check_seed)),
              props={"m_hurwitz": mh})


def matrix_round(rng, r, tiny):
    """Per round: classify 4/10/6 at n = 8/10/12 (half M-Hurwitz in each
    size) and prune once at each size; `Workload.round` adds one run of each
    CLI command."""
    if tiny:
        classify_sizes, prune_sizes = {4: 2, 5: 2}, (4, 5)
    else:
        classify_sizes, prune_sizes = {8: 4, 10: 10, 12: 6}, (8, 10, 12)
    ops = []
    for n, count in classify_sizes.items():
        for i in range(count):
            ops.append(_matrix_op("classify", rng, n, i % 2 == 0, None))
    for j, n in enumerate(prune_sizes):
        ops.append(_matrix_op("prune", rng, n, j % 2 == 0, [r, j]))
    return ops


def _model_file(path, doc):
    path.write_text(json.dumps(dict(doc, schema_version="1")), encoding="utf-8")


def write_cli_files(rng, directory):
    """Small (n <= 4) files so CLI latency measures start-up, not solving.
    The certify file takes the Perron route, so no LP runs on this workload."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "certify": directory / "persidskii.json",
        "classify": directory / "classify.json",
        "prune": directory / "prune.json",
    }
    M = metzler_base(rng, 3, rng.uniform(0.2, 0.6))
    _model_file(files["certify"], {
        "model": "persidskii", "A": signed(rng, M).tolist(),
        "slopes": {"d1": 0.5, "d2": 1.0}, "activation": {"kind": "leaky_relu", "a": 0.5},
    })
    _model_file(files["classify"], {"model": "matrix", "A": mh_matrix(rng, 4).tolist()})
    _model_file(files["prune"], {"model": "matrix", "A": hurwitz_not_mh_matrix(rng, 4).tolist()})
    return files


class CliCommand:
    """`mucert <command> <file>` as a subprocess with BLAS pinned to one
    thread.  Its stdout must match the in-process `mucert.cli.main` output
    byte for byte, which also makes every rerun byte-identical."""

    def __init__(self, command, path, src_dir):
        self.command = command
        self.argv = [command, str(path)]
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.cmd = [sys.executable, "-c",
                    "import sys; from mucert.cli import main; sys.exit(main())",
                    *self.argv]

    def run(self):
        return subprocess.run(self.cmd, env=self.env, capture_output=True, timeout=60)

    def in_process(self) -> bytes:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mucert_cli.main(self.argv)
        if code != 0:
            raise CheckFailed(f"in-process mucert {self.command} exited {code}")
        return buf.getvalue().encode("utf-8")

    def check(self, proc):
        if proc.returncode != 0:
            raise CheckFailed(
                f"mucert {self.command} exited {proc.returncode}: {proc.stderr[-300:]!r}")
        json.loads(proc.stdout)
        if proc.stdout != self.in_process():
            raise CheckFailed(f"mucert {self.command} output is not byte-identical")

    def op(self):
        return Op("cli", 4, call=self.run, check=self.check, props={"command": self.command},
                  in_process=self.in_process)


# ---------------------------------------------------------------------------
# workload registry


@dataclass
class Workload:
    """A named input generator.  `primary` is the operation kind whose latency
    the end-to-end p50/tail report."""

    name: str
    primary: str
    why: str
    round_fn: Callable
    nominal_round_s: float
    seed: int
    tiny: bool = False
    work_dir: object = None
    src_dir: object = None
    cli_ops: list = field(default_factory=list)

    def rounds_for(self, seconds):
        """Whole rounds whose nominal busy time comes closest to `seconds`."""
        return 1 if self.tiny else max(1, round(seconds / self.nominal_round_s))

    def rng(self, r):
        return np.random.default_rng([self.seed, WORKLOAD_NAMES.index(self.name), r])

    def round(self, r):
        """Round r's operations (plus the CLI runs) in a seeded random order."""
        rng = self.rng(r)
        ops = self.round_fn(rng, r, self.tiny) + self.cli_ops
        return [ops[i] for i in rng.permutation(len(ops))]

    def prepare(self):
        """Set-up beyond input generation: CLI model files."""
        if self.name == "matrix-cli":
            files = write_cli_files(self.rng(CLI_STREAM), self.work_dir / f"cli-{self.seed}")
            self.cli_ops = [CliCommand(c, p, self.src_dir).op() for c, p in files.items()]


# name: (primary operation, round function, nominal busy seconds of one round
# at the commit that defined the benchmark, why).  The nominal time fixes how
# many rounds a run of a given length does, so every run of one seed measures
# the same inputs whatever the speed of the commit under test.
WORKLOADS = {
    "certify-lp": ("certify", certify_lp_round, 4.9,
                   "LP bisection only: d1 < 0 Hopfield/firing-rate, n 16-128"),
    "certify-perron": ("certify", certify_perron_round, 5.3,
                       "Perron route only: large n, reducible and near-tied majorants"),
    "verify-rk4": ("verify", verify_round, 4.9,
                   "RK4 pair simulation and weighted norms, n 4 (interpreter) to 128 (matmul)"),
    "matrix-cli": ("classify", matrix_round, 7.7,
                   "thousands of tiny eigen solves, plus CLI start-up on n <= 4 files"),
}
WORKLOAD_NAMES = tuple(WORKLOADS)


def make_workload(name, seed, tiny=False, work_dir=None, src_dir=None):
    primary, fn, round_s, why = WORKLOADS[name]
    return Workload(name, primary, why, fn, round_s, seed, tiny, work_dir, src_dir)
