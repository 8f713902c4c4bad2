import json
import typing

import numpy as np
import pytest

from mucert import NetworkModel
from mucert.cli import dumps_canonical, main, model_to_dict, parse_model_dict
from mucert.networks import MODELS

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
    assert cert["details"]["b_star"] == pytest.approx(1.0, abs=1e-6)

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


def test_certify_fixed_weight(tmp_path, capsys):
    path = write(tmp_path, "h.json", HOPFIELD_DOC)
    code, out, _ = run(capsys, "certify", path, "--family", "l1", "--eta", "1,1")
    doc = json.loads(out)
    assert code == 0
    assert doc["theorem"] == "fixed-weight"
    assert doc["osl"] == pytest.approx(-1.0 + 0.4, abs=1e-9)


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


def test_round_trip_model_files():
    docs = [
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
            "model": "hopfield",
            "A": [[-1.0]],
            "C": [[1.0]],
            "slopes": {"d1": 0, "d2": "inf"},
        },
    ]
    for doc in docs:
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
    assert set(MODELS) <= {doc["model"] for doc in docs}


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
