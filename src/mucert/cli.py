"""Command-line front end: reads JSON model files, dispatches to the library,
emits deterministic JSON reports.

The library's dataclasses are the file and report schema.  A network-model
file holds its class's fields (plus an optional "activation") and a
"polytope" file holds `PolytopeSpec`'s; only "matrix" files, which hold one
matrix "A", are not a dataclass.  An activation object holds "kind" plus the
parameters that its `simulate.ACTIVATIONS` spec lists.  Reports print
every field of `ContractionCertificate`, `ClassReport` and `SimReport` under
its own name; `certify` adds "model", `verify` adds "passed", and
`certify --eta` prints a fixed subset.  `prune` is the one exception: it
converts its index sets to 1-based positions.

Each command is one `add(...)` line in `build_parser`, which names the file
kind it reads (a tag, or `MODELS` for any network model) and, where it takes
them, its --family choices and --eta help, plus a `cmd_x(args, payload,
act, w)` function.  `_run` does the shared work once: it loads the file,
checks its kind, parses --eta at the payload's dimension (None without it)
and calls the command.  File values are read by the library's number rule
(see `matrices`): matrix and vector fields and --eta files by
`matrices._floats`, which names the field or the file in its refusal, and
slope bounds and activation parameters by their classes.

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
    LINF,
    PolytopeSpec,
    SlopeInterval,
    log_norm,
    worst_case_mu,
)
from .networks import (
    MODELS,
    _certificate,
    certify,
    fixed_weight_osl,
    osl_multilure_linf,
)
from .simulate import ACTIVATIONS, Activation, DivergenceError, verify_contraction
from .spectral import NumericalError
from .matrices import _floats, as_matrix, as_weights

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
    sep = ":" if indent is None else ": "

    def emit(o, depth):
        # Each item of a nonempty container starts on its own line at
        # `pad` when indenting; the closing bracket sits at `endpad`.
        pad = "" if indent is None else "\n" + " " * (indent * (depth + 1))
        endpad = "" if indent is None else "\n" + " " * (indent * depth)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f"{pad}{json.dumps(str(k))}{sep}{emit(v, depth + 1)}"
                     for k, v in sorted(o.items())]
            return "{" + ",".join(items) + endpad + "}"
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            return "[" + ",".join(pad + emit(v, depth + 1) for v in o) + endpad + "]"
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

# Model-file tag -> the dataclass whose fields are the file's keys (those
# without a default are required).  A "matrix" file holds just "A".
_FILE_TYPES = {**MODELS, "polytope": PolytopeSpec}


def parse_slopes(doc) -> SlopeInterval:
    """The slope interval of a {"d1": ..., "d2": ...} object, where the
    string "inf" reads as inf; `SlopeInterval` refuses any other value that
    is not a number."""
    if not isinstance(doc, dict) or set(doc) != {"d1", "d2"}:
        raise ValueError('slopes must be an object {"d1": ..., "d2": ...}')
    return SlopeInterval(*(math.inf if doc[k] == "inf" else doc[k] for k in ("d1", "d2")))


def parse_activation(doc) -> Activation:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError('activation must be an object with a "kind" field')
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation kind {kind!r}")
    params = set(ACTIVATIONS[kind].params)
    extra = set(doc) - {"kind"} - params
    if extra:
        raise ValueError(f"unknown activation fields: {sorted(extra)}")
    missing = params - set(doc)
    if missing:
        raise ValueError(f"activation {kind!r} is missing fields: {sorted(missing)}")
    return Activation(kind=kind, **{k: doc[k] for k in params})


def parse_model_dict(doc):
    """Parse a model-file dictionary into (tag, payload, activation | None)."""
    if not isinstance(doc, dict):
        raise ValueError("model file must contain a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f'model file must declare "schema_version": "{SCHEMA_VERSION}"')
    tag = doc.get("model")
    if not isinstance(tag, str) or tag not in _FILE_TYPES.keys() | {"matrix"}:
        raise ValueError(f"unknown model tag {tag!r}")
    if tag == "matrix":
        required, optional = {"A"}, set()
    else:
        file_fields = [f for f in dataclasses.fields(_FILE_TYPES[tag]) if f.init]
        required = {f.name for f in file_fields if f.default is dataclasses.MISSING}
        optional = {f.name for f in file_fields} - required
    if tag in MODELS:
        optional.add("activation")
    present = set(doc) - {"schema_version", "model"}
    unknown = present - required - optional
    if unknown:
        raise ValueError(f"unknown fields for model {tag!r}: {sorted(unknown)}")
    missing = required - present
    if missing:
        raise ValueError(f"model {tag!r} is missing fields: {sorted(missing)}")

    act = parse_activation(doc["activation"]) if "activation" in doc else None
    # Every other field but the side is a matrix or a vector (or u = null),
    # read in name order by the number rule, which names the field.
    values = {k: doc[k] if k == "side" or doc[k] is None else _floats(doc[k], k)
              for k in sorted(present - {"slopes", "activation"})}
    if tag == "matrix":
        return tag, as_matrix(values["A"]), act
    return tag, _FILE_TYPES[tag](**values, slopes=parse_slopes(doc["slopes"])), act


def _read_json(path, name):
    """Parse the JSON file at `path`; errors call it `name`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"invalid JSON in {name}: {exc}") from exc
    except OSError as exc:
        raise ValueError(f"cannot read {name}: {exc}") from exc


def _fields(obj) -> dict:
    """A dataclass instance's constructor fields by name: its file or report
    keys."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}


def model_to_dict(tag: str, model, act: Activation | None = None) -> dict:
    """Serialize a model back into the file schema (round-trips exactly)."""
    doc = {"schema_version": SCHEMA_VERSION, "model": tag}
    if tag == "matrix":
        doc["A"] = model.tolist()
        return doc
    for name, value in _fields(model).items():
        if isinstance(value, SlopeInterval):
            value = {"d1": value.d1, "d2": value.d2 if value.bounded else "inf"}
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        doc[name] = value
    if act is not None:
        doc["activation"] = {
            "kind": act.kind, **{k: getattr(act, k) for k in ACTIVATIONS[act.kind].params}
        }
    return doc


def parse_weights_arg(arg: str, n: int) -> np.ndarray:
    """--eta accepts a comma-separated list or a path to a JSON array."""
    if os.path.exists(arg):
        name = f"--eta file {arg}"
        return as_weights(_floats(_read_json(arg, name), name), n)
    try:
        values = [float(tok) for tok in arg.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse weight list {arg!r}") from exc
    return as_weights(values, n)


# ---------------------------------------------------------------------------
# commands


def _run(args):
    """Check --json-indent, load the command's file, check that it is of
    the kind the command reads, parse --eta at its dimension and call the
    command."""
    if args.json_indent is not None and not 0 <= args.json_indent <= 16:
        raise ValueError(f"--json-indent must be 0 to 16, got {args.json_indent}")
    tag, payload, act = parse_model_dict(_read_json(args.file, args.file))
    if args.reads is MODELS:
        if tag not in MODELS:
            raise ValueError(f"{args.command} expects a network model file, got {tag!r}")
    elif tag != args.reads:
        raise ValueError(f"{args.command} expects a {args.reads!r} file, got model {tag!r}")
    # certify's --family is the one that may be unset; multilure-osl has none.
    if args.eta is not None and "family" in vars(args) and args.family is None:
        raise ValueError("--eta requires --family")
    n = len(payload) if tag == "matrix" else payload.n
    w = None if args.eta is None else parse_weights_arg(args.eta, n)
    return args.func(args, payload, act, w)


def cmd_lognorm(args, A, act, w) -> dict:
    return {"value": log_norm(A, args.family, w)}


def cmd_classify(args, A, act, w) -> dict:
    return _fields(classify_mod.classify_matrix(A))


def cmd_certify(args, model, act, w) -> dict:
    if w is not None:
        osl, tight = fixed_weight_osl(model, args.family, w)
        cert = _fields(_certificate(osl, args.family, w, "fixed-weight", tight))
        keys = ("theorem", "family", "weights", "osl", "rate", "contracting", "tight")
        return {"model": model.tag, **{k: cert[k] for k in keys}}
    return {"model": model.tag, **_fields(certify(model, args.family))}


def cmd_verify(args, model, act, w):
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
    out = {"certificate": _fields(cert), "report": {**_fields(report), "passed": report.passed}}
    return out, (EXIT_OK if report.passed else EXIT_NUMERICAL)


def _parse_edge(text: str) -> tuple[int, int]:
    try:
        i, j = (int(p) for p in text.split(","))
    except ValueError:  # not two parts, or one is not an integer
        raise ValueError(f"--remove-edge expects 'row,col', got {text!r}") from None
    if i < 1 or j < 1:
        raise ValueError("--remove-edge positions are 1-based")
    return i - 1, j - 1


def cmd_prune(args, A, act, w) -> dict:
    if args.shift is not None and not args.remove_edge:
        raise ValueError("--shift applies only with --remove-edge")
    report = classify_mod.pruning_robustness(A)
    out = {
        "subsets": [{**_fields(e), "indices": [i + 1 for i in e.indices]} for e in report.entries],
        "all_m_hurwitz": report.all_m_hurwitz,
    }
    if args.remove_edge:
        edges = [_parse_edge(e) for e in args.remove_edge]
        shift = 0.0 if args.shift is None else args.shift
        before, after = classify_mod.edge_removal_check(A, edges, shift)
        out["edge_removal"] = {
            "zeroed": [[i + 1, j + 1] for i, j in edges],
            "shift": shift,
            "before_hurwitz": before,
            "after_hurwitz": after,
        }
    return out


def cmd_worst_case(args, spec, act, w) -> dict:
    return {"value": worst_case_mu(spec, args.family, w)}


def cmd_multilure_osl(args, model, act, w) -> dict:
    value, tight = osl_multilure_linf(model, w)
    return {"value": value, "tight": tight}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mucert",
        description="Weighted log-norm contraction certificates for "
        "continuous-time neural network models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, reads, eta=None, family=None, **kwargs):
        """One command: it reads a file of model tag `reads` (MODELS: any
        network model), takes --family with `family`'s (choices, default)
        and --eta with help text `eta` where given, and is run by `_run`."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="JSON model file")
        p.add_argument(
            "--json-indent", type=int, default=None, metavar="N",
            help="pretty-print output with N-space indentation",
        )
        if family is not None:
            p.add_argument("--family", choices=family[0], default=family[1])
        if eta is not None:
            p.add_argument("--eta", help=eta)
        p.set_defaults(func=func, reads=reads, eta=None)
        return p

    weights = "weight vector: comma-separated list or JSON file"
    add("lognorm", cmd_lognorm, "matrix", eta=weights, family=(list(FAMILIES), L1),
        help="fixed-weight log norm of a matrix")
    add("classify", cmd_classify, "matrix", help="stability class report for a matrix")
    add("certify", cmd_certify, MODELS, family=([L1, LINF], None),
        eta="report the fixed-weight bound instead of optimizing",
        help="contraction certificate for a model")

    p = add("verify", cmd_verify, MODELS,
            help="certify, then check the decay bound by simulation")
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--horizon", type=float, default=5.0)
    p.add_argument("--step", type=float, default=1e-3,
                   help="forward-Euler step; halved where the model needs a smaller "
                        "one, and the report gives the step that ran")
    p.add_argument("--seed", type=int, default=0)

    p = add("prune", cmd_prune, "matrix", help="principal-submatrix stability report")
    p.add_argument(
        "--remove-edge", action="append", metavar="I,J",
        help="also zero the (1-based) off-diagonal entry I,J and compare",
    )
    p.add_argument("--shift", type=float,
                   help="diagonal shift applied before the edge-removal comparison (default 0)")

    add("worst-case", cmd_worst_case, "polytope", eta=weights, family=([L1, LINF], L1),
        help="worst-case log norm over a slope polytope")
    add("multilure-osl", cmd_multilure_osl, "multilure", eta=weights,
        help="exact worst-case linf log norm of a multivariable loop")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _run(args)
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
