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


def accuracy_report(found: MiningResult, truth: MiningResult) -> AccuracyReport:
    """Full per-length and overall comparison of a mining result against
    ground truth."""
    _check_comparable(found, truth)
    lengths = sorted(set(found.by_length) | set(truth.by_length))
    rows = []
    stray = 0
    sum_err = sum_true = sum_correct = sum_fp = sum_fn = 0.0
    total_true = total_correct = total_found = 0
    for length in lengths:
        f_level = truth.by_length.get(length, {})
        r_level = found.by_length.get(length, {})
        if not f_level:
            stray += len(r_level)
            rows.append(LengthAccuracy(length, 0, len(r_level), 0, None, None, None, None))
            continue
        correct = [i for i in f_level if i in r_level]
        err_sum = sum(
            abs(r_level[i] - f_level[i]) / f_level[i] * 100.0 for i in correct
        )
        n_f, n_r, n_c = len(f_level), len(r_level), len(correct)
        rows.append(
            LengthAccuracy(
                length=length,
                n_true=n_f,
                n_found=n_r,
                n_correct=n_c,
                support_error_pct=err_sum / n_c if n_c else None,
                support_error_vs_true_pct=err_sum / n_f,
                false_positive_pct=(n_r - n_c) / n_f * 100.0,
                false_negative_pct=(n_f - n_c) / n_f * 100.0,
            )
        )
        sum_err += err_sum
        sum_fp += n_r - n_c
        sum_fn += n_f - n_c
        total_true += n_f
        total_correct += n_c
        total_found += n_r
    overall = LengthAccuracy(
        length=None,
        n_true=total_true,
        n_found=total_found,
        n_correct=total_correct,
        support_error_pct=sum_err / total_correct if total_correct else None,
        support_error_vs_true_pct=sum_err / total_true if total_true else None,
        false_positive_pct=sum_fp / total_true * 100.0 if total_true else None,
        false_negative_pct=sum_fn / total_true * 100.0 if total_true else None,
    )
    return AccuracyReport(tuple(rows), overall, stray)
