"""Command-line front end: reads JSON model files, dispatches to the library,
emits deterministic JSON reports.

Exit codes: 0 success, 1 numerical failure (solver or simulation), 2
validation / guard / parse failure.  All numbers are printed with 17
significant digits and keys are sorted, so reruns with the same inputs and
seeds are byte-identical.  Matrix positions on the command line (and index
sets in reports) are 1-based, matching the usual neuron numbering; the
library API is 0-based.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import classify as classify_mod
from .lognorm import (
    FAMILIES,
    L1,
    LEFT,
    LINF,
    RIGHT,
    PolytopeSpec,
    SlopeInterval,
    log_norm,
    worst_case_mu,
)
from .networks import (
    CONTRACTION_MARGIN,
    MODELS,
    ContractionCertificate,
    certify,
    fixed_weight_osl,
    osl_multilure_linf,
)
from .simulate import Activation, DivergenceError, verify_contraction
from .spectral import NumericalError
from .matrices import as_matrix, as_vector, as_weights

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_VALIDATION = 2


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_canonical(obj, indent: int | None = None) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats,
    infinities as the strings "inf" / "-inf"."""

    def emit(o, depth):
        pad = "" if indent is None else "\n" + " " * (indent * (depth + 1))
        endpad = "" if indent is None else "\n" + " " * (indent * depth)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                f"{pad}{json.dumps(str(k))}: {emit(v, depth + 1)}"
                if indent is not None
                else f"{json.dumps(str(k))}:{emit(v, depth + 1)}"
                for k, v in sorted(o.items())
            ]
            return "{" + ",".join(items) + endpad + "}"
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            if len(o) == 0:
                return "[]"
            items = [
                f"{pad}{emit(v, depth + 1)}" if indent is not None else emit(v, depth + 1)
                for v in o
            ]
            return "[" + ",".join(items) + endpad + "]"
        if isinstance(o, (bool, np.bool_)):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _format_float(float(o))
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o)
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj, 0)


# ---------------------------------------------------------------------------
# model files

# (required, optional) keys of the files that hold no network model.  A
# network model file takes its class's dataclass fields (those without a
# default are required) plus an optional "activation".
_MODEL_KEYS = {
    "matrix": ({"A"}, set()),
    "polytope": ({"A", "c", "slopes", "side"}, set()),
}

_ACT_KEYS = {
    "relu": set(),
    "leaky_relu": {"a"},
    "tanh": set(),
    "sigmoid": set(),
    "rect_poly": {"r"},
    "linear": {"k"},
}


def _slope_number(x, name):
    if isinstance(x, str):
        if x == "inf":
            return math.inf
        raise ValueError(f"slope bound {name} must be a number or \"inf\", got {x!r}")
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"slope bound {name} must be a number, got {x!r}")
    return float(x)


def parse_slopes(doc) -> SlopeInterval:
    if not isinstance(doc, dict) or set(doc) != {"d1", "d2"}:
        raise ValueError('slopes must be an object {"d1": ..., "d2": ...}')
    return SlopeInterval(_slope_number(doc["d1"], "d1"), _slope_number(doc["d2"], "d2"))


def parse_activation(doc) -> Activation:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError('activation must be an object with a "kind" field')
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _ACT_KEYS:
        raise ValueError(f"unknown activation kind {kind!r}")
    extra = set(doc) - {"kind"} - _ACT_KEYS[kind]
    if extra:
        raise ValueError(f"unknown activation fields: {sorted(extra)}")
    missing = _ACT_KEYS[kind] - set(doc)
    if missing:
        raise ValueError(f"activation {kind!r} is missing fields: {sorted(missing)}")
    return Activation(kind=kind, **{k: doc[k] for k in _ACT_KEYS[kind]})


def parse_model_dict(doc):
    """Parse a model-file dictionary into (tag, payload, activation | None)."""
    if not isinstance(doc, dict):
        raise ValueError("model file must contain a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f'model file must declare "schema_version": "{SCHEMA_VERSION}"')
    tag = doc.get("model")
    if not isinstance(tag, str) or tag not in MODELS.keys() | _MODEL_KEYS.keys():
        raise ValueError(f"unknown model tag {tag!r}")
    if tag in MODELS:
        model_fields = dataclasses.fields(MODELS[tag])
        required = {f.name for f in model_fields if f.default is dataclasses.MISSING}
        optional = {f.name for f in model_fields} - required | {"activation"}
    else:
        required, optional = _MODEL_KEYS[tag]
    present = set(doc) - {"schema_version", "model"}
    unknown = present - required - optional
    if unknown:
        raise ValueError(f"unknown fields for model {tag!r}: {sorted(unknown)}")
    missing = required - present
    if missing:
        raise ValueError(f"model {tag!r} is missing fields: {sorted(missing)}")

    act = parse_activation(doc["activation"]) if "activation" in doc else None

    if tag == "matrix":
        return tag, as_matrix(doc["A"]), act
    if tag == "polytope":
        if doc["side"] not in (LEFT, RIGHT):
            raise ValueError(f'side must be "{LEFT}" or "{RIGHT}"')
        spec = PolytopeSpec(
            as_matrix(doc["A"]), as_vector(doc["c"]), parse_slopes(doc["slopes"]), doc["side"]
        )
        return tag, spec, act

    arrays = {k: doc[k] for k in present - {"slopes", "activation"}}
    return tag, MODELS[tag](**arrays, slopes=parse_slopes(doc["slopes"])), act


def load_model_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return parse_model_dict(doc)


def _slopes_dict(slopes: SlopeInterval):
    return {"d1": slopes.d1, "d2": "inf" if not slopes.bounded else slopes.d2}


def model_to_dict(tag: str, model, act: Activation | None = None) -> dict:
    """Serialize a model back into the file schema (round-trips exactly)."""
    doc = {"schema_version": SCHEMA_VERSION, "model": tag}
    if tag == "matrix":
        doc["A"] = model.tolist()
        return doc
    for f in dataclasses.fields(model):
        value = getattr(model, f.name)
        if isinstance(value, SlopeInterval):
            value = _slopes_dict(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        doc[f.name] = value
    if act is not None:
        a = {"kind": act.kind}
        for key in _ACT_KEYS[act.kind]:
            a[key] = getattr(act, key)
        doc["activation"] = a
    return doc


def parse_weights_arg(arg: str, n: int) -> np.ndarray:
    """--eta accepts a comma-separated list or a path to a JSON array."""
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            data = json.load(fh)
        return as_weights(data, n)
    try:
        values = [float(tok) for tok in arg.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse weight list {arg!r}") from exc
    return as_weights(values, n)


def certificate_to_dict(cert: ContractionCertificate) -> dict:
    return {
        "contracting": cert.contracting,
        "rate": cert.rate,
        "osl": cert.osl,
        "margin": cert.margin,
        "family": cert.family,
        "weights": None if cert.weights is None else cert.weights.tolist(),
        "theorem": cert.theorem,
        "tight": cert.tight,
        "alt_family": cert.alt_family,
        "alt_weights": None if cert.alt_weights is None else cert.alt_weights.tolist(),
        "details": dict(cert.details),
    }


# ---------------------------------------------------------------------------
# commands


def _expect(tag, got, command):
    if got != tag:
        raise ValueError(f"{command} expects a {tag!r} file, got model {got!r}")


def cmd_lognorm(args) -> dict:
    tag, A, _ = load_model_file(args.file)
    _expect("matrix", tag, "lognorm")
    w = None if args.eta is None else parse_weights_arg(args.eta, A.shape[0])
    return {"value": log_norm(A, args.family, w)}


def cmd_classify(args) -> dict:
    tag, A, _ = load_model_file(args.file)
    _expect("matrix", tag, "classify")
    report = classify_mod.classify_matrix(A)
    return {
        "hurwitz": report.hurwitz,
        "totally_hurwitz": report.totally_hurwitz,
        "m_hurwitz": report.m_hurwitz,
        "quasidominant": report.quasidominant,
        "lds_certified_at": None
        if report.lds_certified_at is None
        else report.lds_certified_at.tolist(),
        "alpha": report.alpha,
        "alpha_majorant": report.alpha_majorant,
        "marginal": list(report.marginal),
    }


def cmd_certify(args) -> dict:
    tag, model, _ = load_model_file(args.file)
    if tag in ("matrix", "polytope"):
        raise ValueError(f"certify expects a network model file, got {tag!r}")
    if args.eta is not None:
        if args.family is None:
            raise ValueError("--eta requires --family")
        w = parse_weights_arg(args.eta, model.n)
        osl, tight = fixed_weight_osl(model, args.family, w)
        contracting = osl <= -CONTRACTION_MARGIN
        return {
            "model": tag,
            "theorem": "fixed-weight",
            "family": args.family,
            "weights": w.tolist(),
            "osl": osl,
            "rate": -osl if contracting else 0.0,
            "contracting": contracting,
            "tight": tight,
        }
    cert = certify(model, args.family)
    out = certificate_to_dict(cert)
    out["model"] = tag
    return out


def cmd_verify(args):
    tag, model, act = load_model_file(args.file)
    if tag in ("matrix", "polytope"):
        raise ValueError(f"verify expects a network model file, got {tag!r}")
    if act is None:
        raise ValueError("verify requires an activation spec in the model file")
    cert = certify(model, None)
    if not cert.contracting:
        raise ValueError(
            f"certificate absent: the model was not certified contracting "
            f"(certified bound {cert.osl})"
        )
    report = verify_contraction(
        model, act, cert,
        pairs=args.pairs, horizon=args.horizon, step=args.step, seed=args.seed,
    )
    out = {
        "certificate": certificate_to_dict(cert),
        "report": {
            "worst_decay_ratio": report.worst_decay_ratio,
            "max_sampled_mu": report.max_sampled_mu,
            "pairs": report.pairs,
            "horizon": report.horizon,
            "step": report.step,
            "seed": report.seed,
            "passed": report.passed,
        },
    }
    return out, (EXIT_OK if report.passed else EXIT_NUMERICAL)


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--remove-edge expects 'row,col', got {text!r}")
    i, j = (int(p) for p in parts)
    if i < 1 or j < 1:
        raise ValueError("--remove-edge positions are 1-based")
    return i - 1, j - 1


def cmd_prune(args) -> dict:
    tag, A, _ = load_model_file(args.file)
    _expect("matrix", tag, "prune")
    report = classify_mod.pruning_robustness(A)
    out = {
        "subsets": [
            {
                "indices": [i + 1 for i in entry.indices],
                "m_hurwitz": entry.m_hurwitz,
                "alpha_majorant": entry.alpha_majorant,
            }
            for entry in report.entries
        ],
        "all_m_hurwitz": report.all_m_hurwitz,
    }
    if args.remove_edge:
        edges = [_parse_edge(e) for e in args.remove_edge]
        before, after = classify_mod.edge_removal_check(A, edges, args.shift)
        out["edge_removal"] = {
            "zeroed": [[i + 1, j + 1] for i, j in edges],
            "shift": args.shift,
            "before_hurwitz": before,
            "after_hurwitz": after,
        }
    return out


def cmd_worst_case(args) -> dict:
    tag, spec, _ = load_model_file(args.file)
    _expect("polytope", tag, "worst-case")
    w = None if args.eta is None else parse_weights_arg(args.eta, spec.n)
    return {"value": worst_case_mu(spec, args.family, w)}


def cmd_multilure_osl(args) -> dict:
    tag, model, _ = load_model_file(args.file)
    _expect("multilure", tag, "multilure-osl")
    w = None if args.eta is None else parse_weights_arg(args.eta, model.n)
    value, tight = osl_multilure_linf(model, w)
    return {"value": value, "tight": tight}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mucert",
        description="Weighted log-norm contraction certificates for "
        "continuous-time neural network models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="JSON model file")
        p.add_argument(
            "--json-indent", type=int, default=None, metavar="N",
            help="pretty-print output with N-space indentation",
        )
        p.set_defaults(func=func)
        return p

    p = add("lognorm", cmd_lognorm, help="fixed-weight log norm of a matrix")
    p.add_argument("--family", choices=list(FAMILIES), default=L1)
    p.add_argument("--eta", help="weight vector: comma-separated list or JSON file")

    add("classify", cmd_classify, help="stability class report for a matrix")

    p = add("certify", cmd_certify, help="contraction certificate for a model")
    p.add_argument("--family", choices=[L1, LINF], default=None)
    p.add_argument("--eta", help="report the fixed-weight bound instead of optimizing")

    p = add("verify", cmd_verify, help="certify, then check the decay bound by simulation")
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--horizon", type=float, default=5.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)

    p = add("prune", cmd_prune, help="principal-submatrix stability report")
    p.add_argument(
        "--remove-edge", action="append", metavar="I,J",
        help="also zero the (1-based) off-diagonal entry I,J and compare",
    )
    p.add_argument("--shift", type=float, default=0.0,
                   help="diagonal shift applied before the edge-removal comparison")

    p = add("worst-case", cmd_worst_case, help="worst-case log norm over a slope polytope")
    p.add_argument("--family", choices=[L1, LINF], default=L1)
    p.add_argument("--eta", help="weight vector: comma-separated list or JSON file")

    p = add("multilure-osl", cmd_multilure_osl,
            help="exact worst-case linf log norm of a multivariable loop")
    p.add_argument("--eta", help="weight vector: comma-separated list or JSON file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except (NumericalError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if isinstance(result, tuple):
        result, code = result
    else:
        code = EXIT_OK
    print(dumps_canonical(result, indent=args.json_indent))
    return code


if __name__ == "__main__":
    sys.exit(main())
