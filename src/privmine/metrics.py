"""Accuracy metrics for reconstructed mining results.

Three percentages per itemset length, comparing a result R against ground
truth F:

- support error: mean relative support deviation over the correctly
  identified itemsets (F intersect R). Reported twice, normalized by
  |F intersect R| and by |F|; the two differ whenever itemsets were missed.
- false positives: |R - F| / |F| * 100.
- false negatives: |F - R| / |F| * 100.

Lengths where F is empty have no defined metrics; itemsets found there are
tallied separately as strays. Aggregation rule: overall numbers are computed
from the summed numerators and denominators across defined lengths, which
makes the overall identity errors exactly the |F_l|-weighted average of the
per-length values (and the support error the |F intersect R|-weighted one).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .mining import MiningResult


@dataclass(frozen=True)
class LengthAccuracy:
    """Metrics at one itemset length; None marks undefined values."""

    length: int | None  # None for the overall row
    n_true: int
    n_found: int
    n_correct: int
    support_error_pct: float | None
    support_error_vs_true_pct: float | None
    false_positive_pct: float | None
    false_negative_pct: float | None


@dataclass(frozen=True)
class AccuracyReport:
    per_length: tuple[LengthAccuracy, ...]
    overall: LengthAccuracy
    stray_found: int  # itemsets found at lengths with no true frequent itemsets

    def row(self, length: int) -> LengthAccuracy:
        for row in self.per_length:
            if row.length == length:
                return row
        raise KeyError(f"no metrics at length {length}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "per_length": [asdict(r) for r in self.per_length],
                "overall": asdict(self.overall),
                "stray_found": self.stray_found,
            },
            indent=2,
        )

    def to_csv_rows(self, mechanism: str) -> list[tuple]:
        """(mechanism, length, metric, value) rows; overall as length 'all'."""
        rows = []
        for r in (*self.per_length, self.overall):
            label = "all" if r.length is None else r.length
            for metric in (
                "support_error_pct",
                "support_error_vs_true_pct",
                "false_positive_pct",
                "false_negative_pct",
            ):
                rows.append((mechanism, label, metric, getattr(r, metric)))
            rows.append((mechanism, label, "n_true", r.n_true))
            rows.append((mechanism, label, "n_found", r.n_found))
        return rows


def _check_comparable(found: MiningResult, truth: MiningResult) -> None:
    if found.sup_min != truth.sup_min:
        raise ValueError(
            f"results use different thresholds: {found.sup_min} vs {truth.sup_min}"
        )


def _row(length: int | None, n_true: int, n_found: int, n_correct: int,
         err_sum: float) -> LengthAccuracy:
    """Metrics from the counts and the summed per-itemset support errors;
    every rate over ``n_true`` is None when ``n_true`` is 0."""
    return LengthAccuracy(
        length=length,
        n_true=n_true,
        n_found=n_found,
        n_correct=n_correct,
        support_error_pct=err_sum / n_correct if n_correct else None,
        support_error_vs_true_pct=err_sum / n_true if n_true else None,
        false_positive_pct=(n_found - n_correct) / n_true * 100.0 if n_true else None,
        false_negative_pct=(n_true - n_correct) / n_true * 100.0 if n_true else None,
    )


def accuracy_report(found: MiningResult, truth: MiningResult) -> AccuracyReport:
    """Full per-length and overall comparison of a mining result against
    ground truth."""
    _check_comparable(found, truth)
    rows, err_sums = [], []
    for length in sorted(set(found.by_length) | set(truth.by_length)):
        f_level = truth.by_length.get(length, {})
        r_level = found.by_length.get(length, {})
        correct = [i for i in f_level if i in r_level]
        err_sums.append(sum(abs(r_level[i] - f_level[i]) / f_level[i] * 100.0 for i in correct))
        rows.append(_row(length, len(f_level), len(r_level), len(correct), err_sums[-1]))
    defined = [r for r in rows if r.n_true]
    overall = _row(None, sum(r.n_true for r in defined), sum(r.n_found for r in defined),
                   sum(r.n_correct for r in defined), sum(err_sums))
    stray = sum(r.n_found for r in rows if not r.n_true)
    return AccuracyReport(tuple(rows), overall, stray)
