"""Spans recorded from outside mucert, around calls into its public functions.

`Tracer.install` replaces each traced function with a timing wrapper at every
place the package binds it: modules import with ``from .x import y``, so
``mucert.networks.bisect_min_mu`` is patched as well as
``mucert.optimize.bisect_min_mu`` and ``mucert.bisect_min_mu``.
`Tracer.uninstall` puts the originals back.  Spans (name, start, end, parent,
op id) stay in memory until `write`.
"""

import contextlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# "<module>.<function>" under the mucert package.
TRACED = (
    "optimize.bisect_min_mu",
    "optimize.feasible_weights",
    "spectral.perron_pair",
    "spectral.spectral_abscissa",
    "spectral.is_irreducible",
    "lognorm.weighted_norm",
    "lognorm.log_norm",
    "lognorm.envelope_matrices",
    "simulate.verify_contraction",
    "simulate.jacobian",
    "classify.is_totally_hurwitz",
    "classify.is_hurwitz",
    "classify.pruning_robustness",
    "networks.certify",
    "matrices.metzler_majorant",
    "cli.main",
)

ROOT_SPAN = "op"

# Per-round layer metrics: (name, unit).  Each maps to the end-to-end figure
# it should move, listed in the benchmark's README.
LAYER_METRICS = (
    ("optimize.bisect_min_mu.calls", "calls/round"),
    ("optimize.bisect_min_mu.ms", "ms/round"),
    ("optimize.bisect_min_mu.iterations", "iters/round"),
    ("optimize.feasible_weights.calls", "calls/round"),
    ("optimize.feasible_weights.ms", "ms/round"),
    ("spectral.perron_pair.calls", "calls/round"),
    ("spectral.perron_pair.ms", "ms/round"),
    ("spectral.perron_pair.max_ms", "ms"),
    ("spectral.spectral_abscissa.calls", "calls/round"),
    ("spectral.spectral_abscissa.ms", "ms/round"),
    ("spectral.is_irreducible.ms", "ms/round"),
    ("lognorm.weighted_norm.calls", "calls/round"),
    ("lognorm.weighted_norm.ms", "ms/round"),
    ("lognorm.log_norm.calls", "calls/round"),
    ("lognorm.log_norm.ms", "ms/round"),
    ("lognorm.envelope_matrices.ms", "ms/round"),
    ("simulate.verify_contraction.self_ms", "ms/round"),
    ("simulate.jacobian.calls", "calls/round"),
    ("simulate.jacobian.ms", "ms/round"),
    ("simulate.pair_steps", "steps/round"),
    ("classify.is_totally_hurwitz.ms", "ms/round"),
    ("classify.is_hurwitz.calls", "calls/round"),
    ("classify.pruning_robustness.ms", "ms/round"),
    ("classify.subsets", "subsets/round"),
    ("networks.certify.self_ms", "ms/round"),
    ("matrices.metzler_majorant.calls", "calls/round"),
    ("matrices.metzler_majorant.ms", "ms/round"),
    ("cli.main.ms", "ms"),
)


def _result_count(name, result):
    """Work counted from a traced call's return value."""
    if name == "optimize.bisect_min_mu":
        return result.iterations
    if name == "classify.pruning_robustness":
        return len(result.entries)
    if name == "simulate.verify_contraction":
        return result.pairs * int(np.floor(result.horizon / result.step))
    return 0


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index, op id, count]
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self.op_id = -1
        self.enabled = True  # off while output checks run

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op_id, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                span[5] = _result_count(name, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "mucert" or k.startswith("mucert."))]
        for qual in TRACED:
            mod_name, attr = qual.split(".")
            original = getattr(sys.modules["mucert." + mod_name], attr)
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def op(self, op_id, kind):
        """One benchmark operation: a root span that its calls nest in."""
        self.op_id = op_id
        span = [ROOT_SPAN + "." + kind, time.perf_counter_ns(), 0, -1, op_id, 0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def summary(self, rounds: int) -> dict:
        """Per-round layer metrics (see LAYER_METRICS)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        count = defaultdict(int)
        max_ns = defaultdict(int)
        durations = defaultdict(list)
        for i, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            calls[name] += 1
            self_ns[name] += dur - child_ns[i]
            count[name] += s[5]
            max_ns[name] = max(max_ns[name], dur)
            durations[name].append(dur)
            total[name] += dur  # no traced function calls itself
        # subsets enumerated: is_hurwitz calls made by is_totally_hurwitz,
        # plus the entries of every pruning report
        th_subsets = sum(1 for s in spans if s[0] == "classify.is_hurwitz" and s[3] >= 0
                         and spans[s[3]][0] == "classify.is_totally_hurwitz")
        ms = 1e-6
        out = {}
        for metric, _ in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            if metric == "simulate.pair_steps":
                value = count["simulate.verify_contraction"]
            elif metric == "classify.subsets":
                value = th_subsets + count["classify.pruning_robustness"]
            elif metric == "cli.main.ms":
                d = durations["cli.main"]
                out[metric] = float(np.median(d)) * ms if d else 0.0
                continue
            elif field == "calls":
                value = calls[base]
            elif field == "ms":
                value = total[base] * ms
            elif field == "self_ms":
                value = self_ns[base] * ms
            elif field == "max_ms":
                out[metric] = max_ns[base] * ms
                continue
            elif field == "iterations":
                value = count[base]
            else:
                raise KeyError(metric)
            out[metric] = value / rounds
        return out

    def write(self, path):
        """Spans as JSON lines: name, start/end (ns), parent index, op id, count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

