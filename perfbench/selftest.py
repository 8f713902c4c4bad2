"""Self-test of the benchmark: every workload once at tiny sizes, traced and
untraced, checking that each metric is printed with its unit; then a
deliberately corrupted certificate, which the output checks must count as a
failure.

    python3 perfbench/run.py --self-test
"""

import dataclasses
import json
import math
import subprocess
import sys

import run


def _problems_in_output(lines, workload, trace, spec):
    """Format problems of one run's stdout (empty list when it conforms)."""
    problems = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: {result.get('failed')} failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    metrics = result.get("metrics", {})
    if set(metrics) != {name for name, _ in spec}:
        problems.append(f"metric names {sorted(set(metrics) ^ {n for n, _ in spec})}")
    for name, unit in spec:
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    report = json.loads(lines[-2])["report"]
    for name, unit in run.NAMED[workload] + run.COMMON_NAMED:
        entry = report["named_metrics"].get(name)
        if entry is None or entry["unit"] != unit:
            problems.append(f"report metric {name} missing or without unit {unit!r}")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def _declared_metrics(root):
    """(end_to_end, per_layer, workload names) as declared in BENCHMARK.json."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"]) for m in doc["end_to_end"]],
            [(m["name"], m["unit"]) for m in doc["per_layer"]],
            [w["name"] for w in doc["workloads"]])


def _corrupted_certificates_are_caught():
    """Scale one weight coordinate of a valid certificate; the check must
    turn the operation into a counted failure."""
    import numpy as np
    import workloads

    rng = np.random.default_rng(7)
    cases = [
        workloads._lp_op(workloads.lp_model(rng, "hopfield", 5), "hopfield", 5),
        workloads._perron_op(rng, "persidskii", 6, False, False, (0, 0)),
    ]
    record = run.Record()
    for op in cases:
        cert = op.call()
        op.check(cert)  # the genuine certificate passes
        weights = cert.weights.copy()
        weights[0] *= 8.0
        bad = dataclasses.replace(cert, weights=weights)
        run.execute(dataclasses.replace(op, call=lambda bad=bad: bad), record)
    if record.failed != len(cases) or record.attempted != len(cases):
        return [f"corrupted certificates: {record.failed} of {len(cases)} counted as failed"]
    return []


def main(run_path, root):
    run.import_mucert()
    e2e, layer, names = _declared_metrics(root)
    problems = []
    if e2e != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layer != list(run.per_layer_spec()):
        problems.append("BENCHMARK.json per_layer differs from the traced metrics")
    if names != list(run.NAMED):
        problems.append("BENCHMARK.json workloads differ from run.NAMED")
    for workload in run.NAMED:
        for trace, spec in ((0, e2e), (1, layer)):
            cmd = [sys.executable, str(run_path), "--workload", workload, "--seed", "3",
                   "--seconds", "0.2", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=root)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
                continue
            problems += _problems_in_output(proc.stdout.strip().splitlines(),
                                            workload, trace, spec)
            print(f"self-test: {workload} trace={trace} ran", file=sys.stderr)
    problems += _corrupted_certificates_are_caught()
    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
