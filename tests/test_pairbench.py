"""tools/pairbench.py: reading perfbench's last line and summarising paired runs."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "pairbench.py"
_SPEC = importlib.util.spec_from_file_location("pairbench", _PATH)
pairbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairbench)

BETTER = {"questions_per_s": "higher", "peak_rss_mb": "lower"}


def _stdout(qps: float, rss: float, failed: int = 0, correct: bool = True) -> str:
    record = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {"questions_per_s": {"value": qps, "unit": "questions/s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return "workload dense-gap  seed 1\n  questions_per_s  1 questions/s\n" + json.dumps(record)


def _pairs(base, change):
    return [{"seed": i + 1, "base": pairbench.parse_run(_stdout(*b)),
             "change": pairbench.parse_run(_stdout(*c))}
            for i, (b, c) in enumerate(zip(base, change))]


# ten pairs the change wins on questions/s, by far more than the base's IQR
BASE = [(60.0, 64.0), (62.0, 64.2), (58.0, 64.1), (64.0, 64.3), (61.0, 64.0),
        (59.0, 64.1), (63.0, 64.2), (60.0, 64.0), (62.0, 64.1), (61.0, 64.2)]
CHANGE = [(80.0, 65.0), (83.0, 65.1), (61.0, 64.1), (85.0, 65.2), (82.0, 63.0),
          (81.0, 65.0), (84.0, 65.1), (80.0, 64.1), (82.0, 65.2), (83.0, 65.0)]


def test_parse_run_reads_the_last_line():
    run = pairbench.parse_run(_stdout(61.5, 64.4, failed=2))
    assert run == {"correct": True, "attempted": 100, "failed": 2,
                   "metrics": {"questions_per_s": 61.5, "peak_rss_mb": 64.4}}
    with pytest.raises(ValueError):
        pairbench.parse_run("\n")


def test_summary_counts_wins_by_direction_and_compares_with_the_base_iqr():
    summary = pairbench.summarise(_pairs(BASE, CHANGE), BETTER)
    qps = summary["questions_per_s"]
    # quartiles as statistics.quantiles(values, n=4) takes them, its default method
    assert qps["base"] == {"median": 61.0, "q1": 59.75, "q3": 62.25}
    assert qps["change"] == {"median": 82.0, "q1": 80.0, "q3": 83.25}
    assert qps["base_iqr"] == 2.5 and qps["change_wins"] == 10 and qps["pairs"] == 10
    assert qps["gain"] == pytest.approx(82.0 / 61.0 - 1.0)
    assert qps["claimable"]
    rss = summary["peak_rss_mb"]
    # lower is better: one pair won, one tied (counts for neither side), eight lost
    assert rss["change_wins"] == 1 and not rss["claimable"]
    assert summary["failed_share"] == {"base": 0.0, "change": 0.0}


def test_fewer_than_ten_pairs_claim_nothing():
    qps = pairbench.summarise(_pairs(BASE[:9], CHANGE[:9]), BETTER)["questions_per_s"]
    assert qps["change_wins"] == 9 and qps["pairs"] == 9
    assert not qps["claimable"]


def test_a_wrong_answer_or_more_failures_claim_nothing():
    wrong = _pairs(BASE, CHANGE)
    wrong[4]["change"]["correct"] = False
    assert not pairbench.summarise(wrong, BETTER)["questions_per_s"]["claimable"]
    failing = _pairs(BASE, [(q, r, 1) for q, r in CHANGE])
    summary = pairbench.summarise(failing, BETTER)
    assert summary["failed_share"] == {"base": 0.0, "change": 0.01}
    assert not summary["questions_per_s"]["claimable"]
    # a failed share no larger than the base's does not stand in the way
    even = pairbench.summarise(_pairs([(q, r, 1) for q, r in BASE],
                                      [(q, r, 1) for q, r in CHANGE]), BETTER)
    assert even["questions_per_s"]["claimable"]


def test_a_gain_inside_the_base_iqr_is_not_claimable():
    base = [(50.0, 64.0), (70.0, 64.0), (60.0, 64.0), (55.0, 64.0), (65.0, 64.0)] * 2
    change = [(q + 1.0, r) for q, r in base]
    qps = pairbench.summarise(_pairs(base, change), BETTER)["questions_per_s"]
    assert qps["change_wins"] == 10 and qps["base_iqr"] == 12.5
    assert not qps["claimable"]
