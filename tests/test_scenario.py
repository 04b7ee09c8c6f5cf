"""Scenario configs, batch execution, report emission and the CLI."""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from minatt.cli import main
from minatt.gap import operator_gap_closed_form, operator_gap_diagonal, operator_gap_graph
from minatt.scenario import (
    ConfigError,
    load_config,
    report_to_csv,
    report_to_json,
    run_scenario,
)


def _config_doc():
    return {
        "operators": {
            "drop": {"variant": "diagonal", "generator": "one_plus_inv_n"},
            "vanish": {"variant": "diagonal", "generator": "inv_n"},
            "parity": {"variant": "diagonal", "generator": "alternating01"},
            "corner": {"variant": "matrix", "data": [[1.0, 1.0], [0.0, 1.0]]},
            "zero2": {"variant": "matrix", "data": [[0.0, 0.0], [0.0, 0.0]]},
        },
        "defaults": {"truncationN": 2000, "tolerance": 1e-8},
        "experiments": [
            {"kind": "perturb", "name": "case1", "target": "drop", "epsilon": 0.5},
            {"kind": "perturb", "name": "case3", "target": "vanish", "epsilon": 0.5,
             "variant": "positive"},
            {"kind": "gap", "name": "pair", "left": "zero2", "right": "corner"},
            {"kind": "gap", "name": "soak", "randomPairs": 5, "dims": [1, 4]},
            {"kind": "gap", "name": "diag", "left": "parity", "right": "parity",
             "route": "diagonal", "expect": {"value": 0.0, "tolerance": 1e-12}},
            {"kind": "spectrum", "name": "spec", "target": "drop"},
            {"kind": "weyl", "name": "weyl", "target": "drop", "truncationN": 5000,
             "terms": [{"coeff": -0.5, "index": 5}]},
        ],
    }


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

# integer fields that int() would truncate or take from a bool
_NOT_INTEGERS = [
    lambda d: d["defaults"].update(truncationN=1000.7),
    lambda d: d["defaults"].update(truncationN=True),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "truncationN": 1000.7}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "truncationN": True}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 2.5}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 3, "seed": True}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 3, "dims": [1.5, 3]}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 3, "dims": [1, 3.5]}),
    # vector dimensions that are not integers
    lambda d: d["operators"].update(bumped=_sum_term({"basis": 2, "dim": 3.5})),
    lambda d: d["operators"].update(bumped=_sum_term({"basis": 1, "dim": True})),
]

# numbers written as JSON strings, which float() and int() would convert
_NUMERIC_STRINGS = [
    lambda d: d["defaults"].update(truncationN="2000"),
    lambda d: d["defaults"].update(tolerance="1e-8"),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "truncationN": "2000"}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "tolerance": "1e-8"}),
    lambda d: d["experiments"].append({"kind": "perturb", "target": "drop",
                                       "epsilon": "0.5"}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": "3"}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 3, "seed": "4"}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 3, "dims": ["1", "3"]}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "expect": {"value": "1.0"}}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "expect": {"value": 1.0, "tolerance": "1e-9"}}),
]

# JSON booleans in operator scalars, which complex() would take as 0 or 1
_BOOLEAN_SCALARS = [
    lambda d: d["operators"].update(bumped={**_sum_term({"basis": 2}), "shift": True}),
    lambda d: d["operators"].update(bumped={**_sum_term({"basis": 2}), "terms": [
        {"coeff": True, "left": {"basis": 2}, "right": {"basis": 2}}]}),
    lambda d: d["operators"].update(bumped=_sum_term({"entries": [[2, True]]})),
    lambda d: d["operators"].update(bool_matrix={"variant": "matrix",
                                                 "data": [[True, 0], [0, 1]]}),
    lambda d: d["operators"].update(bool_tail={"variant": "diagonal", "generator": "inv_n",
                                               "tail": {"kind": "converges_to",
                                                        "limit": False}}),
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop",
                                       "terms": [{"coeff": True, "index": 5}]}),
]

# integers past the float range, and vectors of C^n in a sum on l2
_OUT_OF_RANGE = [
    lambda d: d["operators"].update(bumped={**_sum_term({"basis": 2}), "shift": 10**400}),
    lambda d: d["operators"].update(huge_matrix={"variant": "matrix",
                                                 "data": [[10**400, 0], [0, 1]]}),
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop",
                                       "terms": [{"coeff": 10**400, "index": 5}]}),
    lambda d: d["operators"].update(bumped=_sum_term({"basis": 2, "dim": 3})),
]


def _sum_term(vec):
    return {"variant": "sum", "base": {"variant": "diagonal", "generator": "inv_n"},
            "shift": 0.0, "terms": [{"coeff": 1.0, "left": vec, "right": vec}]}


def test_valid_config_loads():
    config = load_config(_config_doc())
    assert set(config.operators) == {"drop", "vanish", "parity", "corner", "zero2"}
    assert config.default_truncation == 2000


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(experiments=[]),
    lambda d: d.pop("experiments"),
    lambda d: d["experiments"].append({"kind": "melt"}),
    lambda d: d["experiments"].append({"kind": "perturb", "name": "case1",
                                       "target": "drop", "epsilon": 0.5}),
    lambda d: d["experiments"].append({"kind": "perturb", "target": "ghost",
                                       "epsilon": 0.5}),
    lambda d: d["experiments"].append({"kind": "perturb", "target": "drop",
                                       "epsilon": -1.0}),
    lambda d: d["experiments"].append({"kind": "perturb", "target": "drop",
                                       "epsilon": 0.5, "variant": "sideways"}),
    lambda d: d["experiments"].append({"kind": "gap", "left": "drop",
                                       "right": "drop", "route": "psychic"}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 0}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 3,
                                       "dims": [4, 1]}),
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop",
                                       "terms": []}),
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop",
                                       "terms": [{"coeff": 1.0}]}),
    lambda d: d["operators"].update(bad={"variant": "diagonal",
                                         "generator": "no_such"}),
    lambda d: d.update(defaults={"truncationN": 0}),
    lambda d: d.update(defaults={"tolerance": 0.0}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "expect": {"tolerance": 1e-9}}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "expect": {"value": "tall"}}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "expect": {"value": 1.0, "tolerance": 0}}),
    # values that do not convert, or convert to nothing usable
    lambda d: d["defaults"].update(truncationN="many"),
    lambda d: d["experiments"].append({"kind": "perturb", "target": "drop",
                                       "epsilon": "small"}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "truncationN": None}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 3,
                                       "dims": ["a", 3]}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": ["drop"]}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "tolerance": "loose"}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 3, "seed": "x"}),
    lambda d: d["experiments"].append({"kind": "gap", "randomPairs": 3, "seed": -1}),
    lambda d: d["experiments"].append({"kind": "perturb", "target": "drop",
                                       "epsilon": math.nan}),
    lambda d: d["experiments"].append({"kind": "perturb", "target": "drop",
                                       "epsilon": math.inf}),
    lambda d: d["defaults"].update(tolerance=math.nan),
    lambda d: d["defaults"].update(tolerance=math.inf),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "tolerance": math.nan}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                       "expect": {"value": 1.0, "tolerance": math.inf}}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop", "name": 3}),
    lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop", "name": ["x"]}),
    # weyl terms that do not convert into rank-one terms
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop",
                                       "terms": [{"coeff": "abc", "index": 5}]}),
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop",
                                       "terms": [{"coeff": 0.5, "index": "five"}]}),
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop",
                                       "terms": [{"coeff": 0.5, "index": 0}]}),
    # indices that are not integers, which int() would truncate
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop",
                                       "terms": [{"coeff": -0.5, "index": 5.7}]}),
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop",
                                       "terms": [{"coeff": -0.5, "index": True}]}),
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop", "terms": [
        {"coeff": -0.5, "left": {"basis": 5.7}, "right": {"basis": 5}}]}),
    lambda d: d["experiments"].append({"kind": "weyl", "target": "drop", "terms": [
        {"coeff": -0.5, "left": {"entries": [[True, 1.0]]}, "right": {"basis": 1}}]}),
    lambda d: d["operators"].update(bumped={"variant": "sum", "base": {
        "variant": "diagonal", "generator": "inv_n"}, "shift": 0.0, "terms": [
        {"coeff": 1.0, "left": {"entries": [[2.5, 1.0]]}, "right": {"basis": 2}}]}),
    *_NOT_INTEGERS,
    *_NUMERIC_STRINGS,
    *_BOOLEAN_SCALARS,
    lambda d: d["operators"].update(string_flag={"variant": "diagonal", "generator": "linear_n",
                                                 "tail": {"kind": "declared", "points": [],
                                                          "diverges_to_infinity": "false"}}),
    *_OUT_OF_RANGE,
    lambda d: d["operators"].update(listed=[1.0]),
    lambda d: d["operators"].update(listed={"variant": "sum", "base": {
        "variant": "diagonal", "generator": "inv_n"}, "terms": [[0.5, 1, 1]]}),
])
def test_structural_problems_raise_config_error(mutate):
    doc = _config_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        load_config(doc)


# a misspelt key would otherwise leave its default in force: "varient" ran the auto
# variant and "rout" the auto route
_UNKNOWN_KEYS = [
    (lambda d: d["experiments"].append({"kind": "perturb", "target": "drop", "epsilon": 0.5,
                                        "varient": "bounded_below"}), "varient", "variant"),
    (lambda d: d["experiments"].append({"kind": "gap", "left": "drop", "right": "vanish",
                                        "rout": "closed_form"}), "rout", "route"),
    (lambda d: d.update(truncationN=5), "truncationN", None),
    (lambda d: d.update(bogusKey=1), "bogusKey", None),
    (lambda d: d["defaults"].update(tolerence=1e-3), "tolerence", "tolerance"),
    (lambda d: d["experiments"].append({"kind": "spectrum", "target": "drop",
                                        "epsilon": 0.5}), "epsilon", None),
    # operator documents: "shfit" loaded a sum with shift 0, and "tial" kept the
    # registry's tail declaration
    (lambda d: d["operators"].update(shifted={"variant": "sum", "base": {
        "variant": "diagonal", "generator": "inv_n"}, "shfit": 0.5}), "shfit", "shift"),
    (lambda d: d["operators"].update(declared={"variant": "diagonal", "generator": "inv_n",
                                               "tial": {"kind": "converges_to", "limit": 0.0}}),
     "tial", "tail"),
    (lambda d: d["operators"].update(based={"variant": "sum", "base": {
        "variant": "matrix", "data": [[1.0]], "dtaa": [[2.0]]}}), "dtaa", "data"),
    (lambda d: d["operators"].update(termed={"variant": "sum", "base": {
        "variant": "diagonal", "generator": "inv_n"}, "terms": [
        {"coef": 0.5, "left": {"basis": 1}, "right": {"basis": 1}}]}), "coef", "coeff"),
    (lambda d: d["operators"].update(vectored={"variant": "sum", "base": {
        "variant": "diagonal", "generator": "inv_n"}, "terms": [
        {"coeff": 0.5, "left": {"bassis": 1}, "right": {"basis": 1}}]}), "bassis", "basis"),
    (lambda d: d["operators"].update(tailed={"variant": "diagonal", "generator": "inv_n", "tail": {
        "kind": "converges_to", "limit": 0.0, "limt": 1.0}}), "limt", "limit"),
    (lambda d: d["experiments"].append({"kind": "weyl", "target": "drop", "terms": [
        {"coeff": 0.5, "left": {"basis": 1, "dimm": 3}, "right": {"basis": 1}}]}), "dimm", "dim"),
]


@pytest.mark.parametrize("mutate, key, nearest", _UNKNOWN_KEYS)
def test_unknown_keys_are_config_errors(tmp_path, capsys, mutate, key, nearest):
    doc = _config_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=f"unknown key {key!r}; nearest allowed key "
                                          f"'{nearest or ''}") as err:
        load_config(doc)
    if nearest is None:
        assert str(err.value).rsplit(" ", 1)[-1].strip("'") in (
            "operators", "defaults", "experiments", "kind", "name", "truncationN",
            "tolerance", "seed", "expect", "target")
    assert main(["run", _write_config(tmp_path, doc)]) == 2
    assert "bad config" in capsys.readouterr().err


def test_every_allowed_key_loads():
    doc = _config_doc()
    doc["experiments"] = [
        {"kind": "perturb", "name": "p", "target": "drop", "epsilon": 0.5, "variant": "auto",
         "truncationN": 100, "tolerance": 1e-8, "seed": 1, "expect": {"value": 0.7}},
        {"kind": "gap", "name": "g", "left": "drop", "right": "vanish", "route": "auto"},
        {"kind": "gap", "name": "s", "randomPairs": 2, "dims": [1, 2], "seed": 3},
        {"kind": "spectrum", "name": "sp", "target": "drop"},
        {"kind": "weyl", "name": "w", "target": "drop", "terms": [{"coeff": -0.5, "index": 5}]},
    ]
    doc["operators"]["full"] = {
        "variant": "sum", "shift": 0.5,
        "base": {"variant": "diagonal", "generator": "inv_n",
                 "tail": {"kind": "converges_to", "limit": 0.0}},
        "terms": [{"coeff": -0.5, "left": {"basis": 2}, "right": {"entries": [[2, 1.0]]}}]}
    assert len(load_config(doc).experiments) == 5
    load_config(json.loads((Path(__file__).resolve().parents[1] / "demos" / "scenario.json")
                           .read_text(encoding="utf-8")))


def test_integral_floats_are_integers():
    doc = _config_doc()
    doc["defaults"]["truncationN"] = 1e4
    doc["experiments"] = [
        {"kind": "gap", "name": "soak", "randomPairs": 2.0, "dims": [1.0, 3.0], "seed": 3.0},
        {"kind": "gap", "name": "diag", "left": "parity", "right": "parity",
         "route": "diagonal"},
    ]
    config = load_config(doc)
    assert config.default_truncation == 10_000
    soak, diag = run_scenario(config).records
    assert soak.passed and soak.detail["pairs"] == 2 and soak.detail["seed"] == 3
    assert diag.detail["diagonal"]["truncationN"] == 10_000


def test_config_must_be_an_object():
    with pytest.raises(ConfigError):
        load_config(["not", "an", "object"])


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def report():
    return run_scenario(load_config(_config_doc()), seed=7)


def test_every_experiment_ran(report):
    assert [r.name for r in report.records] == [
        "case1", "case3", "pair", "soak", "diag", "spec", "weyl"]
    assert report.all_passed
    assert report.seed == 7


def test_perturb_records_carry_verification(report):
    rec = report.records[0]
    assert rec.kind == "perturb"
    assert abs(rec.value - 0.7) < 1e-12
    assert rec.detail["result"]["caseTag"] == "Case1"
    assert rec.detail["verification"]["passed"]


def test_matrix_gap_pair_compares_routes(report):
    rec = report.records[2]
    assert rec.detail["routeDeviation"] <= 1e-8
    assert {"graph", "closedForm"} <= set(rec.detail)


def test_soak_reports_worst_deviation(report):
    rec = report.records[3]
    assert rec.detail["pairs"] == 5
    assert rec.value <= 1e-8


def test_weyl_record(report):
    rec = report.records[6]
    assert rec.passed
    assert rec.detail["weyl"]["agree"] is True


def test_expectation_failure_fails_the_record():
    doc = _config_doc()
    doc["experiments"] = [{"kind": "gap", "name": "wrong", "left": "parity",
                           "right": "parity", "route": "diagonal",
                           "expect": {"value": 0.5, "tolerance": 1e-6}}]
    report = run_scenario(load_config(doc))
    assert not report.records[0].passed
    assert not report.all_passed


def test_expectations_apply_to_every_kind():
    doc = _config_doc()
    doc["experiments"] = [
        {"kind": "perturb", "name": "p", "target": "drop", "epsilon": 0.5,
         "expect": {"value": 0.9, "tolerance": 1e-9}},
        {"kind": "spectrum", "name": "s", "target": "drop",
         "expect": {"value": 1.0, "tolerance": 1e-12}},
    ]
    report = run_scenario(load_config(doc))
    assert not report.records[0].passed  # witness value is 0.7, not 0.9
    assert report.records[0].detail["expected"] == 0.9
    assert report.records[1].passed


def test_bounded_below_variant_record_serialises():
    doc = _config_doc()
    doc["experiments"] = [{"kind": "perturb", "name": "kept", "target": "drop",
                           "epsilon": 0.5, "variant": "bounded_below"}]
    report = run_scenario(load_config(doc))
    rec = report.records[0]
    assert rec.passed
    assert abs(rec.value - 0.7) < 1e-12
    assert rec.detail["verification"]["passed"]
    # the composed rank-one perturbation survives into the report verbatim
    assert rec.detail["result"]["perturbation"]["variant"] == "sum"
    json.loads(report_to_json(report))


def test_experiment_errors_are_recorded_not_raised():
    doc = _config_doc()
    doc["experiments"] = [{"kind": "perturb", "name": "boom", "target": "vanish",
                           "epsilon": 0.5, "variant": "bounded_below"}]
    report = run_scenario(load_config(doc))
    rec = report.records[0]
    assert not rec.passed
    assert math.isnan(rec.value)
    assert rec.detail["error"].startswith("ValueError")
    doc_json = json.loads(report_to_json(report))
    assert doc_json["experiments"][0]["value"] is None  # NaN never leaks out


def test_truncation_priority_experiment_over_cli_over_default():
    doc = _config_doc()
    doc["experiments"] = [
        {"kind": "gap", "name": "own", "left": "parity", "right": "parity",
         "route": "diagonal", "truncationN": 64},
        {"kind": "gap", "name": "inherited", "left": "parity", "right": "parity",
         "route": "diagonal"},
    ]
    report = run_scenario(load_config(doc), truncation=128)
    assert report.records[0].detail["diagonal"]["truncationN"] == 64
    assert report.records[1].detail["diagonal"]["truncationN"] == 128


def test_l2_graph_route_at_the_default_prefix_matches_the_diagonal_route():
    doc = _config_doc()
    doc["defaults"]["truncationN"] = 10_000
    doc["experiments"] = [{"kind": "gap", "name": route, "left": "drop",
                           "right": "vanish", "route": route}
                          for route in ("graph", "diagonal")]
    graph, diagonal = run_scenario(load_config(doc)).records
    assert graph.passed
    assert graph.detail["graph"]["truncationN"] == 10_000
    assert graph.value == diagonal.value
    assert graph.detail["graph"]["tailBound"] is not None


@pytest.mark.parametrize("right, route, label, direct", [
    ("vanish", "auto", "diagonal", operator_gap_diagonal),
    ("coupled", "auto", "graph", operator_gap_graph),
    ("coupled", "closed_form", "closed_form", operator_gap_closed_form),
])
def test_l2_gap_routes_through_the_runner(right, route, label, direct):
    doc = _config_doc()
    doc["operators"]["coupled"] = {"variant": "sum", "base": {
        "variant": "diagonal", "generator": "inv_n"}, "shift": 0.0, "terms": [
        {"coeff": 0.5, "left": {"basis": 1}, "right": {"basis": 2}}]}
    doc["experiments"] = [{"kind": "gap", "name": "pair", "left": "drop", "right": right,
                           "route": route, "truncationN": 500}]
    config = load_config(doc)
    (rec,) = run_scenario(config).records
    assert rec.passed and list(rec.detail) == [label]
    assert rec.detail[label]["truncationN"] == 500
    expect = direct(config.operators["drop"], config.operators[right], prefix=500)
    assert rec.detail[label] == expect.to_json_dict()
    assert rec.value == expect.value


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def test_json_report_is_deterministic():
    config = load_config(_config_doc())
    one = report_to_json(run_scenario(config, seed=7), include_timing=False)
    two = report_to_json(run_scenario(config, seed=7), include_timing=False)
    assert one == two  # byte identical once timing is stripped
    doc = json.loads(one)
    assert doc["summary"] == {"total": 7, "passed": 7, "failed": 0}
    assert "timing" not in doc


def test_json_report_can_include_timing():
    config = load_config(_config_doc())
    doc = json.loads(report_to_json(run_scenario(config, seed=7)))
    assert set(doc["timing"]) == {"perExperiment", "totalSeconds"}


def test_csv_report_quotes_names_with_commas():
    doc = {"operators": {"drop": {"variant": "diagonal", "generator": "one_plus_inv_n"}},
           "defaults": {"truncationN": 2000},
           "experiments": [{"kind": "spectrum", "name": "a,b", "target": "drop"}]}
    rows = list(csv.reader(io.StringIO(report_to_csv(run_scenario(load_config(doc))))))
    assert [len(r) for r in rows] == [5, 5]
    assert rows[1][:2] == ["a,b", "spectrum"]


def test_misdeclared_tail_is_a_config_error():
    for tail in ({"kind": "converges_to", "limit": 0.5},
                 {"kind": "declared", "points": [0.5]}):
        doc = _config_doc()
        doc["operators"]["drop"]["tail"] = tail
        with pytest.raises(ConfigError, match="drop"):
            load_config(doc)


def test_csv_report_shape():
    doc = _config_doc()
    doc["experiments"] = doc["experiments"][:2]
    text = report_to_csv(run_scenario(load_config(doc)))
    lines = text.strip().split("\n")
    assert lines[0] == "name,kind,value,pass,seconds"
    fields = lines[1].split(",")
    assert fields[:2] == ["case1", "perturb"]
    assert fields[2].startswith("0.7") and fields[3] == "true"
    assert float(fields[4]) >= 0.0
    # the value column repeats the JSON value to every printed digit
    doc_json = json.loads(report_to_json(run_scenario(load_config(doc))))
    assert fields[2] == repr(doc_json["experiments"][0]["value"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_run_prints_json_and_exits_zero(tmp_path, capsys):
    doc = _config_doc()
    doc["experiments"] = [{"kind": "gap", "name": "diag", "left": "parity",
                           "right": "parity", "route": "diagonal"}]
    code = main(["run", _write_config(tmp_path, doc)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["experiments"][0]["name"] == "diag"


def test_cli_seed_and_truncation_flags(tmp_path, capsys):
    doc = _config_doc()
    doc["experiments"] = [{"kind": "gap", "name": "diag", "left": "parity",
                           "right": "parity", "route": "diagonal"}]
    code = main(["run", _write_config(tmp_path, doc), "--seed", "11",
                 "--truncation", "256"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 11
    assert out["experiments"][0]["detail"]["diagonal"]["truncationN"] == 256


def test_cli_writes_csv_report(tmp_path, capsys):
    doc = _config_doc()
    doc["experiments"] = [{"kind": "gap", "name": "diag", "left": "parity",
                           "right": "parity", "route": "diagonal"}]
    out_path = tmp_path / "report.csv"
    code = main(["run", _write_config(tmp_path, doc),
                 "--format", "csv", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("name,kind,value,pass,seconds")


def test_cli_exit_one_on_failing_experiment(tmp_path, capsys):
    doc = _config_doc()
    doc["experiments"] = [{"kind": "gap", "name": "wrong", "left": "parity",
                           "right": "parity", "route": "diagonal",
                           "expect": {"value": 0.5}}]
    assert main(["run", _write_config(tmp_path, doc)]) == 1


def test_cli_exit_two_on_unusable_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    assert main(["run", str(garbled)]) == 2
    bad = _config_doc()
    bad["experiments"].append({"kind": "melt"})
    assert main(["run", _write_config(tmp_path, bad)]) == 2
    ok = _config_doc()
    assert main(["run", _write_config(tmp_path, ok), "--truncation", "0"]) == 2
    loose = _config_doc()
    loose["experiments"][0]["tolerance"] = "loose"
    assert main(["run", _write_config(tmp_path, loose)]) == 2
    for term in ({"coeff": "abc", "index": 5}, {"coeff": 0.5, "index": "five"},
                 {"coeff": 0.5, "index": 0}, {"coeff": -0.5, "index": 5.7},
                 {"coeff": -0.5, "index": True}):
        malformed = _config_doc()
        malformed["experiments"][-1]["terms"] = [term]
        assert main(["run", _write_config(tmp_path, malformed)]) == 2
    for mutate in _NOT_INTEGERS + _NUMERIC_STRINGS + _BOOLEAN_SCALARS + _OUT_OF_RANGE:
        unusable = _config_doc()
        mutate(unusable)
        assert main(["run", _write_config(tmp_path, unusable)]) == 2
        assert "bad config" in capsys.readouterr().err


def test_cli_exit_three_when_report_unwritable(tmp_path, capsys):
    doc = _config_doc()
    doc["experiments"] = [{"kind": "gap", "name": "diag", "left": "parity",
                           "right": "parity", "route": "diagonal"}]
    out_path = tmp_path / "no" / "such" / "dir" / "report.json"
    assert main(["run", _write_config(tmp_path, doc), "--out", str(out_path)]) == 3


def test_cli_lists_generators(capsys):
    assert main(["list-generators"]) == 0
    out = capsys.readouterr().out
    for name in ("one_plus_inv_n", "inv_n", "alternating01", "linear_n"):
        assert name in out
