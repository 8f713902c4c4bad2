import dataclasses
import json
import re
import typing
import warnings

import numpy as np
import pytest

from mucert import NetworkModel
from mucert.classify import ClassReport
from mucert.cli import build_parser, dumps_canonical, main, model_to_dict, parse_model_dict
from mucert.lognorm import log_norm, worst_case_mu
from mucert.networks import MODELS, ContractionCertificate, fixed_weight_osl, osl_multilure_linf
from mucert.simulate import ACTIVATIONS, Activation, SimReport

from helpers import DAMPED_SPIRAL, ROTATION_SHIFT, SKEW_RING


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def matrix_doc(A):
    return {"schema_version": "1", "model": "matrix", "A": np.asarray(A).tolist()}


HOPFIELD_DOC = {
    "schema_version": "1",
    "model": "hopfield",
    "A": [[0.0, 0.4], [0.3, 0.0]],
    "C": [[1.0, 0.0], [0.0, 1.0]],
    "slopes": {"d1": 0, "d2": 1},
    "activation": {"kind": "tanh"},
}


FILE_DOCS = [
    HOPFIELD_DOC,
    {
        "schema_version": "1",
        "model": "firing_rate",
        "A": [[0.3, -0.5], [0.4, 0.2]],
        "C": [[1.2, 0.0], [0.0, 1.0]],
        "u": [0.4, -0.2],
        "slopes": {"d1": 0, "d2": 1},
        "activation": {"kind": "relu"},
    },
    {
        "schema_version": "1",
        "model": "persidskii",
        "A": [[-2.0, 1.0], [1.0, -2.0]],
        "slopes": {"d1": 0.25, "d2": 1},
        "activation": {"kind": "leaky_relu", "a": 0.25},
    },
    {
        "schema_version": "1",
        "model": "ax_minus_cphi",
        "A": [[-1.0, 0.5], [0.5, -1.0]],
        "C": [[1.0, 0.0], [0.0, 2.0]],
        "slopes": {"d1": 0, "d2": 1},
    },
    {
        "schema_version": "1",
        "model": "entrywise",
        "A": [[-3.0, 1.0], [1.0, -3.0]],
        "slopes": {"d1": 0.5, "d2": 1},
        "activation": {"kind": "linear", "k": 0.75},
    },
    matrix_doc([[-1.0, 0.5], [0.2, -2.0]]),
    {
        "schema_version": "1",
        "model": "polytope",
        "A": [[0.0, 0.4], [0.3, 0.0]],
        "c": [-1.0, -1.5],
        "slopes": {"d1": -0.5, "d2": 1},
        "side": "left",
    },
    {
        "schema_version": "1",
        "model": "lure",
        "A": [[-2.0, 1.0], [0.0, -3.0]],
        "b": [1.0, 0.5],
        "c": [0.3, -0.2],
        "slopes": {"d1": 0, "d2": 1},
    },
    {
        "schema_version": "1",
        "model": "multilure",
        "A": [[-2.0]],
        "B": [[1.0, 0.5]],
        "C": [[0.3], [0.2]],
        "slopes": {"d1": 0, "d2": 0.5},
    },
    {
        "schema_version": "1",
        "model": "lure",
        "A": [[-1.0, 0.5], [-0.5, -2.0]],
        "b": [0.5, 1.0],
        "c": [1.0, -0.4],
        "slopes": {"d1": 0, "d2": 0.25},
        "activation": {"kind": "sigmoid"},
    },
    {
        "schema_version": "1",
        "model": "hopfield",
        "A": [[-1.0]],
        "C": [[1.0]],
        "slopes": {"d1": 0, "d2": "inf"},
        "activation": {"kind": "rect_poly", "r": 2},
    },
]

CERTIFICATE_KEYS = {f.name for f in dataclasses.fields(ContractionCertificate)}


def test_lognorm_command(tmp_path, capsys):
    path = write(tmp_path, "m.json", matrix_doc(DAMPED_SPIRAL))
    code, out, _ = run(capsys, "lognorm", path, "--family", "l2")
    assert code == 0
    assert json.loads(out) == {"value": -0.5}

    path = write(tmp_path, "z.json", matrix_doc(np.zeros((3, 3))))
    for fam in ("l1", "linf", "l2"):
        code, out, _ = run(capsys, "lognorm", path, "--family", fam)
        assert code == 0 and json.loads(out)["value"] == 0

    path = write(tmp_path, "maj.json", matrix_doc([[1.0, 1.0], [1.0, 1.0]]))
    code, out, _ = run(capsys, "lognorm", path, "--family", "l1", "--eta", "1,1")
    assert code == 0 and json.loads(out)["value"] == 2


def test_classify_command(tmp_path, capsys):
    path = write(tmp_path, "p.json", matrix_doc([[1.0, 1.0], [-4.0, -3.0]]))
    code, out, _ = run(capsys, "classify", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["hurwitz"] is True and doc["totally_hurwitz"] is False
    assert doc["alpha"] == pytest.approx(-1.0, abs=1e-9)

    path = write(tmp_path, "i.json", matrix_doc(-np.eye(2)))
    code, out, _ = run(capsys, "classify", path)
    doc = json.loads(out)
    assert all(doc[k] for k in ("hurwitz", "totally_hurwitz", "m_hurwitz"))
    # quasidominance needs a positive diagonal, so it fails for -I (its
    # negation is the quasidominant one)
    assert doc["quasidominant"] is False
    assert doc["lds_certified_at"] is not None

    path = write(tmp_path, "s.json", matrix_doc(DAMPED_SPIRAL))
    code, out, _ = run(capsys, "classify", path)
    doc = json.loads(out)
    assert doc["m_hurwitz"] is False
    assert doc["alpha_majorant"] == pytest.approx(0.41421356, abs=1e-6)


def test_certify_command(tmp_path, capsys):
    doc = dict(HOPFIELD_DOC)
    doc["A"] = [[0.0, 0.0], [0.0, 0.0]]
    del doc["activation"]
    path = write(tmp_path, "h0.json", doc)
    code, out, _ = run(capsys, "certify", path, "--family", "l1")
    cert = json.loads(out)
    assert code == 0 and cert["contracting"] is True
    assert cert["rate"] == pytest.approx(1.0, abs=1e-6)

    doc = dict(HOPFIELD_DOC)
    doc["A"] = ROTATION_SHIFT.tolist()
    del doc["activation"]
    path = write(tmp_path, "hr.json", doc)
    code, out, _ = run(capsys, "certify", path, "--family", "l1")
    cert = json.loads(out)
    assert code == 0 and cert["contracting"] is False
    assert cert["details"]["closed_form"] == pytest.approx(1.0, abs=1e-6)

    doc = {
        "schema_version": "1",
        "model": "persidskii",
        "A": [[-2.0, 1.0], [1.0, -2.0]],
        "slopes": {"d1": 0.5, "d2": 1.0},
    }
    path = write(tmp_path, "pers.json", doc)
    code, out, _ = run(capsys, "certify", path)
    cert = json.loads(out)
    assert code == 0 and cert["rate"] == pytest.approx(0.5, abs=1e-9)
    assert cert["family"] == "l1" and len(cert["weights"]) == 2


PERSIDSKII_DOC = {
    "schema_version": "1",
    "model": "persidskii",
    "A": [[-3.0, 1.0], [0.5, -2.0]],
    "slopes": {"d1": 0.5, "d2": 1.0},
}


def test_persidskii_certifies_linf(tmp_path, capsys):
    # The linf certificate of a Persidskii file is the optimizer's, as for the
    # Hopfield file with C = 0: the same output apart from the model and the
    # theorem, and the same on a rerun.
    path = write(tmp_path, "pers.json", PERSIDSKII_DOC)
    code, out, _ = run(capsys, "certify", path, "--family", "linf")
    assert code == 0 and run(capsys, "certify", path, "--family", "linf") == (code, out, "")
    cert = json.loads(out)
    assert cert["theorem"] == "persidskii/linf/weight-lp" and cert["contracting"] is True
    hop = write(tmp_path, "hop.json", {**PERSIDSKII_DOC, "model": "hopfield",
                                       "C": [[0.0, 0.0], [0.0, 0.0]]})
    code, hop_out, _ = run(capsys, "certify", hop, "--family", "linf")
    assert code == 0
    assert out.replace("persidskii", "hopfield") == hop_out


@pytest.mark.parametrize("tag", ["persidskii", "entrywise"])
@pytest.mark.parametrize("key, value", [("C", [[0.0, 0.0], [0.0, 0.0]]), ("u", [0.0, 0.0])])
def test_zero_leak_files_take_no_leak_or_input(tmp_path, capsys, tag, key, value):
    # Persidskii and Entrywise hold C = 0 and u = 0, but their files carry
    # only A and the slopes, as before.
    path = write(tmp_path, "m.json", {**PERSIDSKII_DOC, "model": tag, key: value})
    code, out, err = run(capsys, "certify", path)
    assert code == 2 and out == ""
    assert f"unknown fields for model {tag!r}: [{key!r}]" in err
    doc = {**PERSIDSKII_DOC, "model": tag}
    assert model_to_dict(*parse_model_dict(doc)) == doc


def test_certify_fixed_weight(tmp_path, capsys):
    path = write(tmp_path, "h.json", HOPFIELD_DOC)
    code, out, _ = run(capsys, "certify", path, "--family", "l1", "--eta", "1,1")
    doc = json.loads(out)
    assert code == 0
    assert set(doc) == {"model", "theorem", "family", "weights", "osl", "rate",
                        "contracting", "tight"}
    assert doc["theorem"] == "fixed-weight"
    assert doc["osl"] == pytest.approx(-1.0 + 0.4, abs=1e-9)


def test_fixed_weight_bound_at_certificate_weights_reproduces_it(tmp_path, capsys):
    # A certificate's own weights, fed back through --eta, give the same
    # bound and verdict to the last printed digit.
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 5)) - 3.0 * np.eye(5)
    doc = {"schema_version": "1", "model": "persidskii", "A": A.tolist(),
           "slopes": {"d1": 0.3, "d2": 1.7}}
    path = write(tmp_path, "pers.json", doc)
    code, out, _ = run(capsys, "certify", path)
    cert = json.loads(out)
    assert code == 0 and cert["family"] == "l1" and cert["contracting"]
    eta = write(tmp_path, "eta.json", cert["weights"])
    code, out, _ = run(capsys, "certify", path, "--family", "l1", "--eta", eta)
    fixed = json.loads(out)
    assert code == 0 and fixed["theorem"] == "fixed-weight"
    for key in ("osl", "rate", "contracting"):
        assert fixed[key] == cert[key], key


# x' = -x (Hopfield with A = 0, C = I and tanh) has the exact certificate
# hopfield/l1/perron at rate 1 and floor -1, so a step h >= 1 is halved to the
# largest h / 2^k < 1.  The rect_poly model's run restarts at half the step
# where its starts visit slopes that break the step condition.  Each true
# certificate passes at the step that ran.  RK4 trajectories checked against
# exp(-rate t) refute them at these steps, with worst ratios of 1.10 to 62.4
# on x' = -x and 1.004 to 1.018 on rect_poly.
DECAY_DOC = dict(HOPFIELD_DOC, A=[[0.0]], C=[[1.0]])
POLY_DOC = dict(HOPFIELD_DOC, A=[[-0.5, 0.3], [0.3, -0.5]], slopes={"d1": 0, "d2": "inf"},
                activation={"kind": "rect_poly", "r": 2})


def test_verify_report_names_its_scheme(tmp_path, capsys):
    # Every report runs the Euler scheme and gives the step that ran: the
    # requested one, halved once for rect_poly's unbounded slopes.  At step
    # 1.2 (halved to 0.6) a start with x_i >= 2/3 visits slope 2 x_i, where
    # the floor -1 - 0.5 * 2 x_i breaks 0.6 * (1 + x_i) < 1, so the run
    # restarts at 0.3.
    for doc, step, ran in ((HOPFIELD_DOC, [], 1e-3), (POLY_DOC, [], 5e-4),
                           (POLY_DOC, ["--step", "1.2"], 0.3)):
        path = write(tmp_path, "model.json", doc)
        code, out, _ = run(capsys, "verify", path, "--pairs", "5", "--horizon", "1", *step)
        assert code == 0
        report = json.loads(out)["report"]
        assert (report["scheme"], report["step"], report["passed"]) == ("euler", ran, True)
        assert '"scheme":"euler"' in out


@pytest.mark.parametrize("doc, argv, ran", [
    (DECAY_DOC, ["--step", "1.0", "--horizon", "5"], 0.5),
    (DECAY_DOC, ["--step", "1.5", "--horizon", "5"], 0.75),
    (DECAY_DOC, ["--step", "2.0", "--horizon", "5"], 0.5),
    (DECAY_DOC, ["--step", "2.5", "--horizon", "5"], 0.625),
    (POLY_DOC, ["--step", "1.6", "--pairs", "5", "--horizon", "1"], 0.4),
    (POLY_DOC, ["--step", "2.0", "--pairs", "5", "--horizon", "1"], 0.25),
])
def test_verify_passes_exact_certificates_at_the_halved_step(tmp_path, capsys, doc, argv, ran):
    path = write(tmp_path, "model.json", doc)
    code, out, _ = run(capsys, "verify", path, *argv)
    assert code == 0
    report = json.loads(out)["report"]
    assert (report["scheme"], report["step"], report["passed"]) == ("euler", ran, True)
    assert abs(report["worst_decay_ratio"] - 1.0) <= 1e-12


def test_verify_command(tmp_path, capsys):
    path = write(tmp_path, "h.json", HOPFIELD_DOC)
    code, out, _ = run(capsys, "verify", path, "--pairs", "5", "--horizon", "2", "--seed", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["report"]["passed"] is True
    assert doc["report"]["worst_decay_ratio"] <= 1.001

    # byte-identical rerun
    code2, out2, _ = run(capsys, "verify", path, "--pairs", "5", "--horizon", "2", "--seed", "3")
    assert out2 == out

    # non-contracting models are rejected before simulation
    doc = dict(HOPFIELD_DOC)
    doc["A"] = [[0.0, 3.0], [3.0, 0.0]]
    path = write(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "verify", path)
    assert code == 2 and out == ""
    assert "certificate absent" in err

    # missing activation is a validation error
    doc = dict(HOPFIELD_DOC)
    del doc["activation"]
    path = write(tmp_path, "noact.json", doc)
    code, _, err = run(capsys, "verify", path)
    assert code == 2 and "activation" in err


def test_prune_command(tmp_path, capsys):
    path = write(tmp_path, "ring.json", matrix_doc(SKEW_RING))
    code, out, _ = run(capsys, "prune", path, "--remove-edge", "3,2", "--shift", "-1")
    doc = json.loads(out)
    assert code == 0
    assert doc["edge_removal"]["before_hurwitz"] is True
    assert doc["edge_removal"]["after_hurwitz"] is False
    assert doc["edge_removal"]["zeroed"] == [[3, 2]]

    path = write(tmp_path, "mh.json", matrix_doc([[-2.0, 1.0], [1.0, -2.0]]))
    code, out, _ = run(capsys, "prune", path)
    doc = json.loads(out)
    assert code == 0 and doc["all_m_hurwitz"] is True
    assert len(doc["subsets"]) == 3

    # the full-subset row mirrors classify's majorant verdict
    path = write(tmp_path, "s.json", matrix_doc(DAMPED_SPIRAL))
    code, out, _ = run(capsys, "prune", path)
    doc = json.loads(out)
    full = [s for s in doc["subsets"] if s["indices"] == [1, 2]][0]
    code, out, _ = run(capsys, "classify", path)
    assert full["m_hurwitz"] == json.loads(out)["m_hurwitz"]


def test_worst_case_command(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "model": "polytope",
        "A": [[-1.0, 0.0], [0.0, -1.0]],
        "c": [0.0, 0.0],
        "slopes": {"d1": 1, "d2": 2},
        "side": "left",
    }
    path = write(tmp_path, "poly.json", doc)
    for fam in ("l1", "linf"):
        code, out, _ = run(capsys, "worst-case", path, "--family", fam)
        assert code == 0
        assert json.loads(out)["value"] == -1

    # Polytope keys are PolytopeSpec's fields; "activation" belongs to
    # network-model files only.
    for change, message in (
        ({"side": "up"}, "side must be"),
        ({"extra": 1}, "unknown fields for model 'polytope': ['extra']"),
        ({"activation": {"kind": "tanh"}}, "unknown fields for model 'polytope': ['activation']"),
    ):
        path = write(tmp_path, "bad.json", {**doc, **change})
        code, out, err = run(capsys, "worst-case", path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


def test_multilure_osl_command(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "model": "multilure",
        "A": [[-2.0, 0.5], [0.3, -1.5]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "C": [[0.5, 0.1], [0.2, 0.4]],
        "slopes": {"d1": 0, "d2": 1},
    }
    path = write(tmp_path, "ml.json", doc)
    code, out, _ = run(capsys, "multilure-osl", path)
    doc_out = json.loads(out)
    assert code == 0 and doc_out["tight"] is True
    assert isinstance(doc_out["value"], float)


def test_validation_exit_codes(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "lognorm", str(path))
    assert code == 2 and out == ""

    for tag in ("mystery", ["hopfield"]):
        path = write(tmp_path, "tag.json", {"schema_version": "1", "model": tag, "A": [[1]]})
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2 and f"unknown model tag {tag!r}" in err

    path = write(tmp_path, "act.json", {**HOPFIELD_DOC, "activation": {"kind": ["tanh"]}})
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "unknown activation kind ['tanh']" in err

    path = write(
        tmp_path, "vers.json", {"schema_version": "2", "model": "matrix", "A": [[1]]}
    )
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2 and "schema_version" in err

    # infinite d2 is rejected for models without an unbounded-slope analysis
    doc = {
        "schema_version": "1",
        "model": "persidskii",
        "A": [[-1.0]],
        "slopes": {"d1": 0.5, "d2": "inf"},
    }
    path = write(tmp_path, "pinf.json", doc)
    code, _, err = run(capsys, "certify", str(path))
    assert code == 2 and "finite" in err

    # wrong file kind for the command
    path = write(tmp_path, "m.json", matrix_doc(np.eye(2)))
    code, _, err = run(capsys, "certify", str(path))
    assert code == 2

    # --eta naming a directory, or a file that is not JSON, names the path
    hop = write(tmp_path, "hop.json", HOPFIELD_DOC)
    bad_eta = tmp_path / "eta.json"
    bad_eta.write_text("[1, 2", encoding="utf-8")
    for eta in (tmp_path, bad_eta):
        code, out, err = run(capsys, "certify", hop, "--family", "l1", "--eta", str(eta))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"--eta file {eta}" in err


def test_overflowing_shift_is_a_numerical_error(tmp_path, capsys):
    # The Perron route's diagonal shift overflows float64 on this matrix.
    doc = {
        "schema_version": "1",
        "model": "persidskii",
        "A": [[1e308, 1.0], [1.0, -1.0]],
        "slopes": {"d1": 0.5, "d2": 1.0},
    }
    path = write(tmp_path, "big.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "certify", path)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: shifted matrix overflows float64; rescale the input"]


def test_eigensolver_failure_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    # LAPACK's refusal to converge reaches the user as exit 1 and one line.
    def refuse(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = write(tmp_path, "m.json", matrix_doc(SKEW_RING))
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    code, out, err = run(capsys, "classify", path)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: eigenvalue computation failed: Eigenvalues did not converge"]


_HOPFIELD_NO_C = {k: v for k, v in HOPFIELD_DOC.items() if k != "C"}


@pytest.mark.parametrize("doc, argv, message", [
    ({**HOPFIELD_DOC, "slopes": {"d1": "x", "d2": 1}}, ["certify"],
     "lower slope bound d1 must be finite, got 'x'"),
    ({**HOPFIELD_DOC, "slopes": {"d1": 0, "d2": True}}, ["certify"],
     "upper slope bound d2 must be a number or +inf, got True"),
    ({**HOPFIELD_DOC, "slopes": [0, 1]}, ["certify"],
     'slopes must be an object {"d1": ..., "d2": ...}'),
    ({**HOPFIELD_DOC, "activation": "tanh"}, ["verify"],
     'activation must be an object with a "kind" field'),
    ({**HOPFIELD_DOC, "activation": {"kind": "tanh", "a": 1}}, ["verify"],
     "unknown activation fields: ['a']"),
    ({**HOPFIELD_DOC, "activation": {"kind": "leaky_relu"}}, ["verify"],
     "activation 'leaky_relu' is missing fields: ['a']"),
    ([[1.0]], ["classify"], "model file must contain a JSON object"),
    (_HOPFIELD_NO_C, ["certify"], "model 'hopfield' is missing fields: ['C']"),
    (HOPFIELD_DOC, ["certify", "--family", "l1", "--eta", "1,x"],
     "cannot parse weight list '1,x'"),
    (matrix_doc(SKEW_RING), ["prune", "--remove-edge", "a,b"],
     "--remove-edge expects 'row,col', got 'a,b'"),
    (matrix_doc(SKEW_RING), ["prune", "--remove-edge", "1,2,3"],
     "--remove-edge expects 'row,col', got '1,2,3'"),
    (matrix_doc(SKEW_RING), ["prune", "--remove-edge", "0,1"],
     "--remove-edge positions are 1-based"),
    (matrix_doc(SKEW_RING), ["prune", "--remove-edge", "1,2", "--shift", "inf"],
     "shift must be finite, got inf"),
    (matrix_doc(SKEW_RING), ["prune", "--remove-edge", "1,2", "--shift=-inf"],
     "shift must be finite, got -inf"),
    (matrix_doc(SKEW_RING), ["prune", "--remove-edge", "1,2", "--shift", "nan"],
     "shift must be finite, got nan"),
    (matrix_doc(SKEW_RING), ["prune", "--shift", "1"],
     "--shift applies only with --remove-edge"),
])
def test_refusals_print_one_error_line(tmp_path, capsys, doc, argv, message):
    # Exit 2, no output, and one stderr line: no numpy warning comes first.
    path = write(tmp_path, "refused.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_canonical_json_refuses_what_it_cannot_print():
    for obj, error, message in ((float("nan"), ValueError, "cannot serialize NaN"),
                                ({"x": object()}, TypeError, "cannot serialize object")):
        with pytest.raises(error) as info:
            dumps_canonical(obj)
        assert str(info.value) == message


def test_unbounded_hopfield_via_cli(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "model": "hopfield",
        "A": [[-2.0, 1.0], [1.0, -2.0]],
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "slopes": {"d1": 1, "d2": "inf"},
    }
    path = write(tmp_path, "hu.json", doc)
    code, out, _ = run(capsys, "certify", path)
    cert = json.loads(out)
    assert code == 0 and cert["contracting"] is True
    assert cert["rate"] == pytest.approx(2.0, abs=1e-9)
    assert cert["theorem"] == "hopfield/l1/unbounded-slope"


def test_eta_on_unbounded_slope_file_asks_for_finite_d2(tmp_path, capsys):
    doc = {**HOPFIELD_DOC, "slopes": {"d1": 0, "d2": "inf"}}
    path = write(tmp_path, "hu.json", doc)
    code, out, err = run(capsys, "certify", path, "--family", "l1", "--eta", "1,1.5")
    assert code == 2 and out == ""
    assert "finite" in err and "d2" in err and "certify_unbounded_slope" not in err


def test_eta_file_argument(tmp_path, capsys):
    path = write(tmp_path, "m.json", matrix_doc([[1.0, 1.0], [1.0, 1.0]]))
    eta_path = tmp_path / "eta.json"
    eta_path.write_text("[1.0, 1.0]", encoding="utf-8")
    code, out, _ = run(capsys, "lognorm", path, "--family", "l1", "--eta", str(eta_path))
    assert code == 0 and json.loads(out)["value"] == 2


def test_json_indent_flag(tmp_path, capsys):
    path = write(tmp_path, "m.json", matrix_doc(np.zeros((2, 2))))
    code, out, _ = run(capsys, "lognorm", path, "--json-indent", "2")
    assert code == 0 and out.startswith("{\n  ")


def test_json_indent_out_of_range_is_a_validation_error(tmp_path, capsys):
    # Checked before the file is read (a missing file is not reported): a
    # huge indent would build a pad that wide for every line, or overflow.
    path = write(tmp_path, "m.json", matrix_doc(np.zeros((2, 2))))
    for indent in ("-1", "17", "10000000000000000000"):
        for file in (path, str(tmp_path / "missing.json")):
            code, out, err = run(capsys, "classify", file, "--json-indent", indent)
            assert code == 2 and out == ""
            assert err == f"error: --json-indent must be 0 to 16, got {indent}\n"
    code, compact, _ = run(capsys, "classify", path)
    for indent in (0, 16):
        code, out, _ = run(capsys, "classify", path, "--json-indent", str(indent))
        assert code == 0 and out == dumps_canonical(json.loads(compact), indent=indent) + "\n"


def test_deeply_nested_json_is_a_validation_error(tmp_path, capsys):
    # json.load raises RecursionError on 100 000 nested arrays; the model
    # file and an --eta file both report it as invalid JSON.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    path = write(tmp_path, "m.json", matrix_doc(np.zeros((2, 2))))
    for argv, name in ((("classify", str(deep)), str(deep)),
                       (("lognorm", path, "--eta", str(deep)), f"--eta file {deep}")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: invalid JSON in {name}: ") and err.count("\n") == 1


def test_round_trip_model_files():
    for doc in FILE_DOCS:
        tag, model, act = parse_model_dict(doc)
        emitted = model_to_dict(tag, model, act)
        assert set(doc) <= set(emitted) <= set(doc) | {"u"}  # u defaults to 0
        tag2, model2, act2 = parse_model_dict(emitted)
        assert tag2 == tag and act2 == act
        np.testing.assert_array_equal(getattr(model, "A", model), getattr(model2, "A", model2))
        assert getattr(model, "slopes", None) == getattr(model2, "slopes", None)
        assert model_to_dict(tag2, model2, act2) == emitted

    # The tag table holds every network model, and the files above cover it.
    assert set(MODELS.values()) == set(typing.get_args(NetworkModel))
    assert all(MODELS[cls.tag] is cls for cls in MODELS.values())
    assert set(MODELS) <= {doc["model"] for doc in FILE_DOCS}
    # They cover every activation kind too.
    kinds = {doc["activation"]["kind"] for doc in FILE_DOCS if "activation" in doc}
    assert set(ACTIVATIONS) <= kinds


def test_reports_print_their_dataclass_fields(tmp_path, capsys):
    # Every report key is a field of the library's result dataclass; certify
    # adds "model" and verify adds "passed".
    for i, doc in enumerate(FILE_DOCS):
        if doc["model"] not in MODELS:
            continue
        path = write(tmp_path, f"{i}.json", doc)
        code, out, _ = run(capsys, "certify", path)
        assert code == 0
        assert set(json.loads(out)) == CERTIFICATE_KEYS | {"model"}, doc["model"]

    report_keys = {f.name for f in dataclasses.fields(SimReport)} | {"passed"}
    poly = FILE_DOCS[-1]
    for doc in (HOPFIELD_DOC, poly):
        path = write(tmp_path, "verify.json", doc)
        code, out, _ = run(capsys, "verify", path, "--pairs", "2", "--horizon", "0.5")
        out = json.loads(out)
        assert code == 0 and set(out) == {"certificate", "report"}
        assert set(out["certificate"]) == CERTIFICATE_KEYS
        assert set(out["report"]) == report_keys

    path = write(tmp_path, "m.json", matrix_doc(DAMPED_SPIRAL))
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    assert set(json.loads(out)) == {f.name for f in dataclasses.fields(ClassReport)}


@pytest.mark.parametrize("r", ["1e400", "Infinity", "-Infinity", "NaN", "[2]"])
def test_bad_rect_poly_exponent_is_a_validation_error(tmp_path, capsys, r):
    # JSON reads 1e400 and Infinity as inf, which has no integer value.
    path = tmp_path / "poly.json"
    path.write_text(
        '{"schema_version": "1", "model": "hopfield", "A": [[-1.0]], "C": [[1.0]], '
        '"slopes": {"d1": 0, "d2": "inf"}, "activation": {"kind": "rect_poly", "r": %s}}' % r,
        encoding="utf-8",
    )
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == "error: rect_poly needs an integer exponent r >= 2\n"
    with pytest.raises(ValueError, match="integer exponent"):
        Activation("rect_poly", r=json.loads(r))


@pytest.mark.parametrize(
    "activation, message",
    [
        ({"kind": "linear", "k": "0.5"}, "linear needs a finite gain k"),
        ({"kind": "leaky_relu", "a": "0.5"}, "leaky_relu needs a slope parameter a in (0, 1)"),
    ],
    ids=["linear-k", "leaky_relu-a"],
)
def test_non_numeric_activation_parameter_is_a_validation_error(tmp_path, capsys,
                                                                activation, message):
    path = write(tmp_path, "act.json", {**HOPFIELD_DOC, "activation": activation})
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_canonical_float_formatting():
    s = dumps_canonical({"x": 1.0 / 3.0, "inf": np.inf, "neg": -np.inf, "i": 7})
    assert s == '{"i":7,"inf":"inf","neg":"-inf","x":0.33333333333333331}'


@pytest.mark.parametrize(
    "flags",
    [
        ("--horizon", "-1"),
        ("--step", "inf"),
        ("--horizon", "inf"),
        ("--pairs", "0"),
        ("--seed", "-1"),
    ],
)
def test_verify_rejects_runs_that_simulate_nothing(tmp_path, capsys, flags):
    path = write(tmp_path, "h.json", HOPFIELD_DOC)
    code, out, err = run(capsys, "verify", path, *flags)
    assert code == 2 and out == ""
    assert err.startswith("error:")


# The first file of each tag above.
DOC = {}
for _doc in FILE_DOCS:
    DOC.setdefault(_doc["model"], _doc)

# The file kind each command reads: a file of another kind is refused with
# the command's own message, before any output.
WRONG_KIND = {
    "lognorm": (HOPFIELD_DOC, "lognorm expects a 'matrix' file, got model 'hopfield'"),
    "classify": (DOC["polytope"], "classify expects a 'matrix' file, got model 'polytope'"),
    "certify": (DOC["matrix"], "certify expects a network model file, got 'matrix'"),
    "verify": (DOC["polytope"], "verify expects a network model file, got 'polytope'"),
    "prune": (DOC["lure"], "prune expects a 'matrix' file, got model 'lure'"),
    "worst-case": (DOC["matrix"], "worst-case expects a 'polytope' file, got model 'matrix'"),
    "multilure-osl": (DOC["lure"], "multilure-osl expects a 'multilure' file, got model 'lure'"),
}


def test_wrong_kind_cases_cover_every_command():
    usage = build_parser().format_usage()  # "usage: mucert [-h] {lognorm,...} ..."
    assert set(WRONG_KIND) == set(re.search(r"\{(.*)\}", usage).group(1).split(","))


@pytest.mark.parametrize("command", sorted(WRONG_KIND))
def test_command_refuses_a_file_of_the_wrong_kind(tmp_path, capsys, command):
    doc, message = WRONG_KIND[command]
    path = write(tmp_path, "wrong.json", doc)
    code, out, err = run(capsys, command, path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# The four commands that take --eta: a file of their kind, its dimension, the
# flags they need besides, and the library call that the weights reach.
ETA_COMMANDS = {
    "lognorm": (DOC["matrix"], 2, ("--family", "linf"),
                lambda doc, w: log_norm(doc["A"], "linf", w)),
    "certify": (DOC["persidskii"], 2, ("--family", "l1"),
                lambda doc, w: fixed_weight_osl(parse_model_dict(doc)[1], "l1", w)[0]),
    "worst-case": (DOC["polytope"], 2, (),
                   lambda doc, w: worst_case_mu(parse_model_dict(doc)[1], "l1", w)),
    "multilure-osl": (DOC["multilure"], 1, (),
                      lambda doc, w: osl_multilure_linf(parse_model_dict(doc)[1], w)[0]),
}


@pytest.mark.parametrize("command", sorted(ETA_COMMANDS))
def test_eta_is_parsed_at_the_file_dimension(tmp_path, capsys, command):
    doc, n, flags, library = ETA_COMMANDS[command]
    path = write(tmp_path, "m.json", doc)
    w = [1.0 + 0.5 * i for i in range(n)]
    code, out, err = run(capsys, command, path, *flags, "--eta", ",".join(map(str, w)))
    key = "osl" if command == "certify" else "value"
    assert code == 0 and err == ""
    assert json.loads(out)[key] == library(doc, np.array(w))

    long = ",".join(["1"] * (n + 1))
    code, out, err = run(capsys, command, path, *flags, "--eta", long)
    assert (code, out) == (2, "")
    assert err == f"error: expected a vector of length {n}, got {n + 1}\n"


def test_eta_requires_family_only_where_family_may_be_unset(tmp_path, capsys):
    path = write(tmp_path, "m.json", DOC["persidskii"])
    code, out, err = run(capsys, "certify", path, "--eta", "1,1")
    assert (code, out, err) == (2, "", "error: --eta requires --family\n")
    # multilure-osl has no --family at all; its weights are linf ones.
    path = write(tmp_path, "ml.json", DOC["multilure"])
    code, out, err = run(capsys, "multilure-osl", path, "--eta", "2")
    assert code == 0 and err == "" and out


BIG = "1" + "0" * 400


def _hopfield_text(slopes='{"d1": 0, "d2": 1}', activation='{"kind": "tanh"}'):
    return ('{"schema_version": "1", "model": "hopfield", "A": [[0.0, 0.4], [0.3, 0.0]], '
            '"C": [[1.0, 0.0], [0.0, 1.0]], "slopes": %s, "activation": %s}'
            % (slopes, activation))


@pytest.mark.parametrize(
    "command, text, eta, message",
    [
        ("classify", '{"schema_version": "1", "model": "matrix", "A": [[-1.0, %s], [0.0, -1.0]]}'
         % BIG, None, "A entries must be finite"),
        ("certify", _hopfield_text(slopes='{"d1": 0, "d2": %s}' % BIG), None,
         f"upper slope bound d2 must be a number or +inf, got {BIG}"),
        ("lognorm", '{"schema_version": "1", "model": "matrix", "A": [[-1.0]]}', "[%s]" % BIG,
         "--eta file {eta} entries must be finite"),
        ("verify", _hopfield_text(slopes='{"d1": -0.5, "d2": 1}',
                                  activation='{"kind": "linear", "k": %s}' % BIG), None,
         "linear needs a finite gain k"),
    ],
    ids=["classify-A", "certify-d2", "lognorm-eta", "verify-k"],
)
def test_integers_beyond_the_float_range_are_validation_errors(tmp_path, capsys, command,
                                                                text, eta, message):
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path)]
    eta_path = tmp_path / "eta.json"
    if eta is not None:
        eta_path.write_text(eta, encoding="utf-8")
        argv += ["--eta", str(eta_path)]
    code, out, err = run(capsys, *argv)
    # The file's own field, or the --eta file, is named.
    assert (code, out, err) == (2, "", f"error: {message.format(eta=eta_path)}\n")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("classify", matrix_doc([[0.0]]) | {"A": [["-1.5", True], [False, "-2"]]},
         "entries of A must be numbers, got '-1.5'"),
        ("classify", matrix_doc([[0.0]]) | {"A": [[1, True], [0, -2]]},
         "entries of A must be numbers, got True"),
        ("certify", {**HOPFIELD_DOC, "u": ["0.1", False]},
         "entries of u must be numbers, got '0.1'"),
        ("certify", {**DOC["lure"], "c": [0.3, True]}, "entries of c must be numbers, got True"),
        ("worst-case", {**DOC["polytope"], "c": ["-1", -1.5]},
         "entries of c must be numbers, got '-1'"),
        ("multilure-osl", {**DOC["multilure"], "C": [[0.3], [False]]},
         "entries of C must be numbers, got False"),
        # null and objects are not numbers either (null read as NaN, and an
        # object failed inside numpy with TypeError).
        ("certify", {**DOC["lure"], "b": [0.3, None]}, "entries of b must be numbers, got None"),
        ("classify", matrix_doc([[0.0]]) | {"A": {"x": 1}},
         "entries of A must be numbers, got {'x': 1}"),
    ],
    ids=["strings", "mixed", "hopfield-u", "lure-c", "polytope-c", "multilure-C", "lure-b-null",
         "object"],
)
def test_strings_and_booleans_in_arrays_are_validation_errors(tmp_path, capsys, command, doc,
                                                              message):
    path = write(tmp_path, "m.json", doc)
    code, out, err = run(capsys, command, path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("eta, shown", [(["2"], "'2'"), ([True], "True")])
def test_strings_and_booleans_in_eta_files_are_validation_errors(tmp_path, capsys, eta, shown):
    path = write(tmp_path, "m.json", matrix_doc([[-1.0]]))
    eta_path = write(tmp_path, "eta.json", eta)
    code, out, err = run(capsys, "lognorm", path, "--eta", eta_path)
    assert (code, out) == (2, "")
    assert err == f"error: entries of --eta file {eta_path} must be numbers, got {shown}\n"


# dumps_canonical's three layouts, as bytes recorded from the per-layout
# item formats it replaced.
CANONICAL_REPORT = {
    "report": {"b": [1, 2.5, {"x": [], "y": {}}], "a": {}, "c": [[], {}],
               "d": {"e": [True, None, "s", float("-inf")], "f": np.array([[1.0, -0.0]])},
               "g": (np.int64(3),)},
    "empty": [],
}
CANONICAL_LAYOUTS = {
    None: '{"empty":[],"report":{"a":{},"b":[1,2.5,{"x":[],"y":{}}],"c":[[],{}],'
          '"d":{"e":[true,null,"s","-inf"],"f":[[1,-0]]},"g":[3]}}',
    0: '{\n"empty": [],\n"report": {\n"a": {},\n"b": [\n1,\n2.5,\n{\n"x": [],\n"y": {}\n}\n],'
       '\n"c": [\n[],\n{}\n],\n"d": {\n"e": [\ntrue,\nnull,\n"s",\n"-inf"\n],\n"f": [\n[\n1,'
       '\n-0\n]\n]\n},\n"g": [\n3\n]\n}\n}',
    2: '{\n  "empty": [],\n  "report": {\n    "a": {},\n    "b": [\n      1,\n      2.5,\n'
       '      {\n        "x": [],\n        "y": {}\n      }\n    ],\n    "c": [\n      [],\n'
       '      {}\n    ],\n    "d": {\n      "e": [\n        true,\n        null,\n'
       '        "s",\n        "-inf"\n      ],\n      "f": [\n        [\n          1,\n'
       '          -0\n        ]\n      ]\n    },\n    "g": [\n      3\n    ]\n  }\n}',
}


@pytest.mark.parametrize("indent", [None, 0, 2])
def test_canonical_layouts_are_pinned(indent):
    assert dumps_canonical(CANONICAL_REPORT, indent=indent) == CANONICAL_LAYOUTS[indent]
