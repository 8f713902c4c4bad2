"""mucert benchmark: one closed-loop client, one process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload certify-lp --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports mucert from ``src/``.
Each run builds seeded inputs, times calls into the public API (and the
``mucert`` command line as a subprocess), checks every output outside the
timed region, and prints:

* a ``{"report": ...}`` line with the environment, the input properties,
  per-size breakdowns and every workload-specific metric with its unit;
* as the last line, ``{"correct", "attempted", "failed", "metrics"}`` with the
  end-to-end metrics (``--trace 0``, timings normalised to machine speed, see
  CALIBRATION_REF_MS) or the per-layer metrics (``--trace 1``).

``--self-test`` runs every workload once at tiny sizes and checks the output
format and the checker itself.  See perfbench/README.md.
"""

import os

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 5
READY = "READY"
WARMUP_ROUND = 1_000_000  # rng substream of the warm-up inputs

# Machine-speed calibration.  On a shared VM the same code runs up to 1.5 to
# 2 times faster or slower for stretches of seconds, which moves a run's
# medians by tens of percent.  A fixed kernel (interpreter loop, small numpy
# calls, a BLAS matmul) is timed between operations once CALIBRATION_EVERY_S
# of wall time has passed since its last run, so checks and input generation
# between operations do not leave long stretches unsampled.  Each
# timed interval (an operation, a set-up probe) is scaled by
# CALIBRATION_REF_MS / the median of the CALIBRATION_NEAREST kernel timings
# nearest to it, i.e. expressed at the speed the machine had when the
# benchmark was defined.  The report line keeps the raw figures.
CALIBRATION_REF_MS = 9.5
CALIBRATION_EVERY_S = 0.2
CALIBRATION_NEAREST = 3

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Workload-specific figures printed in the report line: (name, unit).
NAMED = {
    "certify-lp": (("certify_p50_ms", "ms"), ("certify_tail_ms", "ms"), ("certs_per_s", "1/s")),
    "certify-perron": (("certify_p50_ms", "ms"), ("certify_tail_ms", "ms"),
                       ("certs_per_s", "1/s")),
    "verify-rk4": (("verify_pair_steps_per_s", "pair-steps/s"), ("verify_p50_ms", "ms"),
                   ("verify_tail_ms", "ms")),
    "matrix-cli": (("classify_p50_ms", "ms"), ("classify_tail_ms", "ms"),
                   ("prune_p50_ms", "ms"), ("cli_p50_ms", "ms")),
}
COMMON_NAMED = (("setup_s", "s"), ("fail_frac", "ratio"), ("peak_rss_mb", "MB"))

# Figures the project roadmap quotes (2 cores, BLAS pinned); each run reports
# its own measurement next to them.
REFERENCE = {
    "certify-lp": {"certify_ms_n64": 300.0},
    "certify-perron": {"near_tie_certify_ms_n16": 5300.0},
    "verify-rk4": {"pair_steps_per_s_n4": 157e3, "pair_steps_per_s_n128": 36e3},
    "matrix-cli": {"prune_ms_n12": 10600.0, "cli_ms": 235.0},
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_mucert():
    """Import mucert from this checkout's src/ and nowhere else."""
    if not (SRC / "mucert" / "__init__.py").is_file():
        fail(f"no mucert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mucert

    if Path(mucert.__file__).resolve().parent != (SRC / "mucert").resolve():
        fail(f"mucert imported from {mucert.__file__}, not from {SRC}")
    return mucert


# ---------------------------------------------------------------------------
# environment


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def environment(seed):
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
        "seed": seed,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# set-up


def setup(args):
    """Everything between interpreter start and the first timed operation:
    import, round-0 inputs, and one warm-up call per operation kind."""
    import_mucert()
    import workloads

    wl = workloads.make_workload(args.workload, args.seed, args.tiny,
                                 work_dir=OUT_DIR, src_dir=SRC)
    wl.prepare()
    first = wl.round(0)
    # Warm-up on tiny inputs: one call of each operation kind (lazy imports,
    # first-call allocations, the OS file cache for CLI start-up).
    warm = workloads.make_workload(args.workload, args.seed, tiny=True, work_dir=OUT_DIR,
                                   src_dir=SRC)
    warm.cli_ops = wl.cli_ops
    seen = set()
    for op in warm.round(WARMUP_ROUND):
        if op.kind not in seen and not op.props.get("near_tie"):
            seen.add(op.kind)
            op.call()
    return wl, first


def measure_setup(args, cal):
    """Wall time from spawning a fresh interpreter until it is ready to run
    its first timed operation: the median over the probes, raw and scaled
    to the reference machine speed.  The kernel runs before each probe and
    after the last."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    probes = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        cal.kernel()
        t0 = time.perf_counter_ns()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter_ns()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != READY or code != 0:
            fail(f"set-up probe failed (exit {code}, said {line!r})")
        probes.append((t0, t1))
    cal.kernel()
    raw = [(t1 - t0) * 1e-9 for t0, t1 in probes]
    scaled = [(t1 - t0) * 1e-9 / cal.slowness(t0, t1) for t0, t1 in probes]
    return statistics.median(raw), statistics.median(scaled), raw


# ---------------------------------------------------------------------------
# timed loop


class Record:
    """Latencies, failures and input properties of one run."""

    def __init__(self):
        self.samples = []  # (kind, n, ns, props)
        self.starts = []  # perf_counter_ns at the start of each sample
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.busy_ns = 0
        self.work = 0
        self.work_by_n = defaultdict(lambda: [0, 0])  # n -> [work, ns]

    def add(self, op, start_ns, ns, error, result):
        self.attempted += 1
        self.starts.append(start_ns)
        self.busy_ns += ns
        props = dict(op.props)
        if hasattr(result, "contracting"):
            props["contracting"] = bool(result.contracting)
        self.samples.append((op.kind, op.n, ns, props))
        if op.work:
            self.work += op.work
            self.work_by_n[op.n][0] += op.work
            self.work_by_n[op.n][1] += ns
        if error is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{op.kind} n={op.n} {op.props}: {error}")

    def latencies(self, kind, n=None, **props):
        return [ns * 1e-6 for k, m, ns, p in self.samples
                if k == kind and (n is None or m == n)
                and all(p.get(key) == v for key, v in props.items())]

    def scaled_ns(self, cal):
        """Each sample's duration at the reference machine speed."""
        return [ns / cal.slowness(t0, t0 + ns)
                for t0, (_, _, ns, _) in zip(self.starts, self.samples)]


class Calibration:
    """Calibration kernel timings taken between operations."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._small = rng.random((64, 64)) / 64
        self._big = rng.random((128, 128))
        self._block = rng.random((128, 40))
        self.samples = []  # (perf_counter_ns at the middle, ms)
        self._last_ns = None

    def kernel(self):
        import numpy as np

        t0 = time.perf_counter_ns()
        x = np.full(64, 1 / 64)
        for _ in range(400):
            y = self._small @ x
            y /= y.sum()
            x = y
        for _ in range(50):
            self._big @ self._block
        s = 0
        for i in range(60000):
            s += i * i
        t1 = time.perf_counter_ns()
        self._last_ns = t1
        self.samples.append(((t0 + t1) // 2, (t1 - t0) * 1e-6))

    def tick(self):
        if self._last_ns is None or time.perf_counter_ns() - self._last_ns >= CALIBRATION_EVERY_S * 1e9:
            self.kernel()

    def samples_ms(self):
        return [ms for _, ms in self.samples]

    def factor(self):
        """Run-wide machine slowness relative to the reference: >1 when slower."""
        return statistics.median(self.samples_ms()) / CALIBRATION_REF_MS

    def slowness(self, start_ns, end_ns):
        """Machine slowness around the interval [start_ns, end_ns]: from the
        kernel timings nearest to it (inside it counts as distance 0)."""
        nearest = sorted(self.samples,
                         key=lambda s: max(start_ns - s[0], s[0] - end_ns, 0))
        return statistics.median(ms for _, ms in nearest[:CALIBRATION_NEAREST]) / CALIBRATION_REF_MS


def execute(op, record, tracer=None, op_id=0):
    from workloads import CheckFailed

    error = None
    result = None
    t0 = time.perf_counter_ns()
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer.op(op_id, op.kind):
                result = op.call()
    except Exception as exc:  # any raise is a failed operation, counted below
        error = f"raised {type(exc).__name__}: {exc}"
    ns = time.perf_counter_ns() - t0
    if error is None:
        if tracer is not None:
            tracer.enabled = False
        try:
            op.check(result)
        except CheckFailed as exc:
            error = str(exc)
        except Exception as exc:  # a crashing check is a failed output
            error = f"check raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.enabled = True
    record.add(op, t0, ns, error, result)
    return ns


def run_untraced(wl, first, seconds, cal):
    record = Record()
    rounds = wl.rounds_for(seconds)
    for r in range(rounds):
        for op in wl.round(r) if r else first:
            cal.tick()
            execute(op, record)
    return record, rounds, None


def run_traced(wl, first, seconds, cal):
    """Each round runs twice on the same inputs, once traced and once not,
    alternating which goes first; per-layer figures come from the traced
    passes and the paired difference is the tracing overhead."""
    import tracing

    tracer = tracing.Tracer()
    record = Record()
    traced_ns = untraced_ns = 0
    # Both passes count against the run length.
    rounds = wl.rounds_for(seconds / 2)
    op_id = 0
    for r in range(rounds):
        ops = wl.round(r) if r else first
        for traced_pass in ((True, False) if r % 2 == 0 else (False, True)):
            if traced_pass:
                tracer.install()
            try:
                for op in ops:
                    cal.tick()
                    ns = execute(op, record, tracer if traced_pass else None, op_id)
                    if traced_pass:
                        traced_ns += ns
                        if op.in_process is not None:
                            with tracer.op(op_id, op.kind + ".in_process"):
                                op.in_process()
                    else:
                        untraced_ns += ns
                    op_id += 1
            finally:
                tracer.uninstall()
    return record, rounds, (tracer, 100.0 * (traced_ns / untraced_ns - 1.0))


# ---------------------------------------------------------------------------
# figures


def tail_percentile(n_samples: int) -> int:
    """Highest integer percentile with at least ten samples beyond it
    (nearest rank); the maximum when there are too few samples for that."""
    if n_samples <= 20:
        return 100
    return math.floor(100 * (n_samples - 10) / n_samples)


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def latency_summary(values):
    pct = tail_percentile(len(values))
    return {
        "p50_ms": statistics.median(values),
        "tail_ms": nearest_rank(values, pct),
        "tail_percentile": pct,
        "samples": len(values),
        "beyond_tail": sum(1 for v in values if v > nearest_rank(values, pct)),
    }


def input_properties(record):
    kinds = defaultdict(list)
    for kind, n, _, props in record.samples:
        kinds[kind].append((n, props))
    out = {}
    for kind, items in kinds.items():
        total = len(items)
        share = {}
        for prop in ("near_tie", "reducible", "m_hurwitz", "contracting"):
            flagged = [p[prop] for _, p in items if prop in p]
            if flagged:
                share[prop] = sum(flagged) / len(flagged)
        hist = defaultdict(int)
        for n, _ in items:
            hist[n] += 1
        out[kind] = {"count": total, "share": share,
                     "n_histogram": {str(k): v for k, v in sorted(hist.items())}}
    return out


def by_size(record):
    table = defaultdict(dict)
    for kind, n in sorted({(k, m) for k, m, _, _ in record.samples}):
        lat = record.latencies(kind, n)
        table[kind][str(n)] = {"p50_ms": statistics.median(lat), "count": len(lat)}
    return table


def named_metrics(name, record, setup_s, rss_mb):
    busy_s = record.busy_ns * 1e-9
    m = {"setup_s": setup_s, "fail_frac": record.failed / record.attempted,
         "peak_rss_mb": rss_mb}
    if name in ("certify-lp", "certify-perron"):
        s = latency_summary(record.latencies("certify"))
        m.update(certify_p50_ms=s["p50_ms"], certify_tail_ms=s["tail_ms"],
                 certs_per_s=len(record.latencies("certify")) / busy_s)
    elif name == "verify-rk4":
        s = latency_summary(record.latencies("verify"))
        m.update(verify_pair_steps_per_s=record.work / busy_s,
                 verify_p50_ms=s["p50_ms"], verify_tail_ms=s["tail_ms"])
    else:
        s = latency_summary(record.latencies("classify"))
        m.update(classify_p50_ms=s["p50_ms"], classify_tail_ms=s["tail_ms"],
                 prune_p50_ms=statistics.median(record.latencies("prune")),
                 cli_p50_ms=statistics.median(record.latencies("cli")))
    units = dict(NAMED[name] + COMMON_NAMED)
    return {k: {"value": v, "unit": units[k]} for k, v in m.items()}, s


def reference_figures(name, record):
    measured = {}
    if name == "certify-lp":
        measured["certify_ms_n64"] = record.latencies("certify", 64)
    elif name == "certify-perron":
        measured["near_tie_certify_ms_n16"] = record.latencies("certify", 16, near_tie=True)
    elif name == "verify-rk4":
        for n in (4, 128):
            work, ns = record.work_by_n.get(n, (0, 0))
            measured[f"pair_steps_per_s_n{n}"] = [work / (ns * 1e-9)] if ns else []
    else:
        measured["prune_ms_n12"] = record.latencies("prune", 12)
        measured["cli_ms"] = record.latencies("cli")
    out = {}
    for key, ref in REFERENCE[name].items():
        vals = measured.get(key) or []
        got = statistics.median(vals) if vals else None
        out[key] = {"reference": ref, "measured": got,
                    "ratio": None if got is None else got / ref}
    return out


def import_times():
    """Fresh-interpreter import times (ms) of numpy and of mucert.cli."""
    code = ("import time; t0 = time.perf_counter(); import numpy; "
            "t1 = time.perf_counter(); import mucert.cli; t2 = time.perf_counter(); "
            "print((t1 - t0) * 1e3, (t2 - t0) * 1e3)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    numpy_ms, total_ms = [], []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60, cwd=ROOT).stdout.split()
        numpy_ms.append(float(out[0]))
        total_ms.append(float(out[1]))
    return statistics.median(numpy_ms), statistics.median(total_ms)


def per_layer_spec():
    import tracing

    return tuple(tracing.LAYER_METRICS) + (
        ("cli.import_ms", "ms"),
        ("cli.numpy_import_ms", "ms"),
        ("fail_frac", "ratio"),
        ("trace.overhead_pct", "%"),
    )


def run(args):
    cal = Calibration()
    setup_s, setup_scaled_s, setup_samples = measure_setup(args, cal)
    wl, first = setup(args)
    if args.trace:
        record, rounds, (tracer, overhead) = run_traced(wl, first, args.seconds, cal)
    else:
        record, rounds, _ = run_untraced(wl, first, args.seconds, cal)
    slow = cal.factor()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named, primary = named_metrics(args.workload, record, setup_s, rss_mb)
    busy_s = record.busy_ns * 1e-9

    if args.trace:
        layer = tracer.summary(rounds)
        numpy_ms, import_ms = import_times()
        layer.update({"cli.import_ms": import_ms, "cli.numpy_import_ms": numpy_ms,
                      "fail_frac": record.failed / record.attempted,
                      "trace.overhead_pct": overhead})
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in per_layer_spec()}
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        scaled_ns = record.scaled_ns(cal)
        scaled = latency_summary([ns * 1e-6 for ns, (kind, _, _, _)
                                  in zip(scaled_ns, record.samples) if kind == wl.primary])
        e2e = {"setup_s": setup_scaled_s, "op_p50_ms": scaled["p50_ms"],
               "op_tail_ms": scaled["tail_ms"],
               "ops_per_s": record.attempted / (sum(scaled_ns) * 1e-9), "peak_rss_mb": rss_mb}
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    report = {
        "workload": args.workload,
        "why": wl.why,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(args.seed),
        "load": "closed loop, one client, one operation at a time",
        "rounds": rounds,
        "busy_s": busy_s,
        "primary_op": wl.primary,
        "primary_latency": primary,
        "setup_samples_s": setup_samples,
        "end_to_end_raw": {"setup_s": setup_s, "op_p50_ms": primary["p50_ms"],
                           "op_tail_ms": primary["tail_ms"],
                           "ops_per_s": record.attempted / busy_s},
        "calibration": {"reference_ms": CALIBRATION_REF_MS,
                        "median_ms": statistics.median(cal.samples_ms()),
                        "samples": len(cal.samples), "slowness": slow},
        "named_metrics": named,
        "by_size": by_size(record),
        "input_properties": input_properties(record),
        "reference": reference_figures(args.workload, record),
        "failures": record.failures,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": record.failed == 0, "attempted": record.attempted,
                      "failed": record.failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(NAMED))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes (used by --self-test)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload once at tiny sizes and test the checker")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.self_test:
        import selftest

        sys.exit(selftest.main(Path(__file__).resolve(), ROOT))
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup(args)
        print(READY, flush=True)
        return
    run(args)


if __name__ == "__main__":
    main()
