"""Reproduce two defects of the LP bisection on scalar-loop (lure) models,
which is why the certify-lp workload has no lure models.

1. The phase-1 simplex raises NumericalError ("unbounded direction").  The
   weight LP is invariant under scaling the model matrices by s > 0, yet this
   happens far more often on models whose Metzler part has O(1) off-diagonal
   entries and a diagonal near -n/2 than on the same models scaled to O(1/n)
   entries, which still fail now and then.
2. `certify` returns weights that miss the optimum the bisection reported:
   the certified osl, evaluated at the returned weights, lies far above
   `details["b_star"]`.  scipy's linprog finds the LP feasible well below the
   certified osl, so the benchmark's LP check counts such a certificate as
   failed.  A small share of O(1/n)-scaled models hits one of the two
   defects (2 of 800 sampled at n = 32); CASES lists two that do.

    python3 perfbench/lure_defect_repro.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import mucert  # noqa: E402
from workloads import metzler_base, signed  # noqa: E402

SCALE_N, SCALE_MODELS = 64, 30
# rng seeds of O(1/n)-scaled models that hit a defect: (seed, n, defect).
CASES = (([12345, 107, 32], 32, "weights miss b_star"),
         ([12345, 181, 32], 32, "NumericalError"))
MISS_TOL = 1e-6  # certified osl above b_star by more than this is a miss


def lure_model(rng, n, normalize):
    """The lure inputs certify-lp used: Metzler part with abscissa in
    [-1, -0.3], loop gain in [0.2, 2.6], d1 < 0."""
    slopes = mucert.SlopeInterval(-rng.uniform(0.1, 0.5), 1.0)
    A = signed(rng, metzler_base(rng, n, rng.uniform(0.3, 1.0), normalize=normalize))
    b, c = rng.normal(size=n), rng.normal(size=n)
    c *= rng.uniform(0.2, 2.6) / (np.linalg.norm(b) * np.linalg.norm(c))
    return mucert.Lure(A, b, c, slopes)


def outcome(model):
    try:
        cert = mucert.certify(model, "l1")
    except mucert.NumericalError as exc:
        return "raised", f"NumericalError: {exc}"
    b_star = cert.details["b_star"]
    detail = (f"osl {cert.osl:.6g}, b_star {b_star:.6g}, "
              f"weights in [{cert.weights.min():.6g}, {cert.weights.max():.6g}]")
    if cert.osl > b_star + MISS_TOL * (1.0 + abs(b_star)):
        return "missed", detail
    return "ok", detail


def main():
    n = SCALE_N
    for normalize, scale in ((False, "O(1)"), (True, "O(1/n)")):
        raised = sum(outcome(lure_model(np.random.default_rng([seed, n]), n, normalize))[0]
                     == "raised" for seed in range(SCALE_MODELS))
        print(f"n={n} {scale:6} scale: NumericalError on {raised}/{SCALE_MODELS}", flush=True)
    for seed, n, defect in CASES:
        result, detail = outcome(lure_model(np.random.default_rng(seed), n, True))
        print(f"rng {seed}, n={n} (expect {defect}): {result}; {detail}")


if __name__ == "__main__":
    main()
