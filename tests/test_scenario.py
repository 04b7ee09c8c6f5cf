"""Scenario configs, batch execution, report emission and the CLI."""

import csv
import io
import json
import math

import pytest

from minatt.cli import main
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
])
def test_structural_problems_raise_config_error(mutate):
    doc = _config_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        load_config(doc)


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


def test_l2_graph_route_past_its_limit_is_a_failed_record():
    # at the default truncation the two graph projections would need > 12 GB
    doc = _config_doc()
    doc["defaults"]["truncationN"] = 10_000
    doc["experiments"] = [{"kind": "gap", "name": "graph", "left": "drop",
                           "right": "vanish", "route": "graph"}]
    rec = run_scenario(load_config(doc)).records[0]
    assert not rec.passed
    assert rec.detail["error"].startswith("ValueError")
    assert "at most 1000" in rec.detail["error"]


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
