"""Accuracy metrics comparing mined results against ground truth."""

import json

import numpy as np
import pytest

from helpers import make_schema
from privmine import (
    MiningResult,
    accuracy_report,
    apriori_plain,
    generate_synthetic,
)
from privmine.schema import Dataset

A, B, C, D = ((0, 0),), ((1, 0),), ((2, 0),), ((3, 0),)
AB, AC = (A[0], B[0]), (A[0], C[0])


def result(by_length, sup_min=0.01, mechanism="test"):
    return MiningResult(by_length=by_length, sup_min=sup_min, mechanism=mechanism)


# ---------------------------------------------------------------------------
# support error
# ---------------------------------------------------------------------------

def test_support_error_single_itemset():
    truth = result({1: {A: 0.02}})
    report = accuracy_report(result({1: {A: 0.025}}), truth)
    assert report.row(1).support_error_pct == pytest.approx(25.0)
    assert report.overall.support_error_pct == pytest.approx(25.0)
    # deviation is absolute, so undershoot scores the same
    report = accuracy_report(result({1: {A: 0.015}}), truth)
    assert report.row(1).support_error_pct == pytest.approx(25.0)
    assert report.overall.support_error_pct == pytest.approx(25.0)


def test_exact_result_scores_zero():
    truth = result({1: {A: 0.5, B: 0.4}, 2: {AB: 0.3}})
    report = accuracy_report(truth, truth)
    assert report.overall.support_error_pct == pytest.approx(0.0)
    assert report.overall.false_positive_pct == pytest.approx(0.0)
    assert report.overall.false_negative_pct == pytest.approx(0.0)
    assert report.stray_found == 0


def test_support_error_none_when_nothing_correct():
    truth = result({1: {A: 0.5}})
    report = accuracy_report(result({1: {B: 0.5}}), truth)
    assert report.row(1).support_error_pct is None
    assert report.overall.support_error_pct is None


# ---------------------------------------------------------------------------
# identity errors
# ---------------------------------------------------------------------------

def test_identity_errors_counts():
    # 10 true singletons; the result misses two and adds one alien
    sch_items = [((0, c),) for c in range(11)]
    truth = result({1: {it: 0.3 for it in sch_items[:10]}})
    found = result({1: {**{it: 0.3 for it in sch_items[:8]}, sch_items[10]: 0.2}})
    report = accuracy_report(found, truth)
    for row in (report.row(1), report.overall):
        assert row.false_positive_pct == pytest.approx(10.0)
        assert row.false_negative_pct == pytest.approx(20.0)


def test_empty_result_is_all_false_negatives():
    truth = result({1: {A: 0.5, B: 0.4}})
    report = accuracy_report(result({}), truth)
    for row in (report.row(1), report.overall):
        assert row.false_positive_pct == pytest.approx(0.0)
        assert row.false_negative_pct == pytest.approx(100.0)


def test_empty_truth_gives_none():
    report = accuracy_report(result({}), result({}))
    assert report.per_length == ()
    assert report.overall.false_positive_pct is None
    assert report.overall.false_negative_pct is None


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def make_pair():
    truth = result({
        1: {A: 0.5, B: 0.4, C: 0.3, D: 0.3},
        2: {AB: 0.3, AC: 0.2},
    })
    found = result({
        1: {A: 0.5, B: 0.44, C: 0.3},
        2: {AB: 0.33},
    })
    return found, truth


def test_per_length_rows():
    report = accuracy_report(*make_pair())
    one = report.row(1)
    assert (one.n_true, one.n_found, one.n_correct) == (4, 3, 3)
    assert one.support_error_pct == pytest.approx(10.0 / 3)
    assert one.support_error_vs_true_pct == pytest.approx(2.5)
    assert one.false_negative_pct == pytest.approx(25.0)
    two = report.row(2)
    assert two.support_error_pct == pytest.approx(10.0)
    assert two.false_negative_pct == pytest.approx(50.0)
    with pytest.raises(KeyError):
        report.row(3)


def test_overall_is_weighted_average():
    report = accuracy_report(*make_pair())
    per = [r for r in report.per_length if r.n_true]
    # identity errors weight by |F_l|, support error by |F_l intersect R_l|
    fn = sum(r.false_negative_pct * r.n_true for r in per) / sum(r.n_true for r in per)
    assert report.overall.false_negative_pct == pytest.approx(fn)
    err = sum(r.support_error_pct * r.n_correct for r in per) / sum(r.n_correct for r in per)
    assert report.overall.support_error_pct == pytest.approx(err)
    assert report.overall.false_negative_pct == pytest.approx(200.0 / 6)


def test_strays_at_lengths_with_no_truth():
    truth = result({1: {A: 0.5, B: 0.4}})
    found = result({1: {A: 0.5, B: 0.4}, 2: {AB: 0.3}})
    report = accuracy_report(found, truth)
    assert report.stray_found == 1
    two = report.row(2)
    assert two.n_true == 0 and two.n_found == 1
    assert two.support_error_pct is None
    assert two.false_positive_pct is None
    # stray lengths never enter the overall aggregates
    assert report.overall.false_positive_pct == pytest.approx(0.0)


def test_threshold_mismatch_rejected():
    with pytest.raises(ValueError):
        accuracy_report(result({}, sup_min=0.02), result({}, sup_min=0.05))


def test_report_against_real_miner():
    # plain mining compared with itself through the metrics path
    sch = make_schema(3, 3)
    data = generate_synthetic(sch, 300, "uniform", seed=5)
    truth = apriori_plain(data, 0.05)
    report = accuracy_report(truth, truth)
    assert report.overall.n_true == truth.n_itemsets
    assert report.overall.support_error_pct == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_to_json_roundtrip():
    report = accuracy_report(*make_pair())
    blob = json.loads(report.to_json())
    assert blob["stray_found"] == 0
    assert blob["overall"]["n_true"] == 6
    assert blob["per_length"][0]["length"] == 1
    assert blob["per_length"][0]["false_negative_pct"] == pytest.approx(25.0)


def test_to_csv_rows():
    report = accuracy_report(*make_pair())
    rows = report.to_csv_rows("det-gd")
    assert all(r[0] == "det-gd" for r in rows)
    lengths = {r[1] for r in rows}
    assert lengths == {1, 2, "all"}
    by_key = {(r[1], r[2]): r[3] for r in rows}
    assert by_key[(1, "false_negative_pct")] == pytest.approx(25.0)
    assert by_key[("all", "n_true")] == 6
