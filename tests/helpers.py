"""Shared builders and statistical helpers for the test suite."""

import csv
import json

import numpy as np
from hypothesis import settings

from privmine import Attribute, Schema, SubsetMarginalSpec, reconstruct_subset
from privmine.cli import _read_mining_result

# one profile for every property test: reproducible, no timing flakes, no
# example database written next to the checkout
PROPERTIES = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def make_schema(*sizes: int, name: str = "test") -> Schema:
    """Schema with anonymous attributes of the given category counts."""
    attrs = tuple(
        Attribute(name=f"a{j}", categories=tuple(f"c{v}" for v in range(s)))
        for j, s in enumerate(sizes)
    )
    return Schema(name=name, attributes=attrs)


def read_labels(directory, schema: Schema, labels):
    """What ``evaluate`` reads from a result directory whose itemsets.csv
    holds ``labels``, each at support 0.5 and filed under its item count."""
    directory.mkdir(exist_ok=True)
    (directory / "summary.json").write_text(json.dumps({"sup_min": 0.5, "mechanism": "x"}))
    with open(directory / "itemsets.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("itemset", "length", "support"))
        writer.writerows((label, label.count(";") + 1, 0.5) for label in labels)
    return _read_mining_result(directory, schema)


def reconstruct_all(Y: np.ndarray, spec) -> np.ndarray:
    """Full-domain closed-form inverse in counts: the subset inverse over
    every attribute, scaled by N = sum(Y)."""
    Y = np.asarray(Y, dtype=float)
    sub = SubsetMarginalSpec.for_subset(spec, tuple(range(spec.schema.n_attributes)))
    return reconstruct_subset(Y / Y.sum(), sub) * Y.sum()


class FixedUniformRng:
    """Stub generator returning a preset sequence of uniforms (cycled)."""

    def __init__(self, *values: float):
        self.values = values
        self.i = 0

    def random(self, size=None):
        if size is not None:
            out = np.array([self.random() for _ in range(int(size))])
            return out
        v = self.values[self.i % len(self.values)]
        self.i += 1
        return v


def gof_chisq(observed: np.ndarray, expected: np.ndarray) -> float:
    """Goodness-of-fit chi-square statistic, df = len - 1."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(((observed - expected) ** 2 / expected).sum())


def two_sample_chisq(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """Two-sample chi-square statistic for equal-length count vectors.

    With K1 = sqrt(N2/N1), K2 = 1/K1, the statistic
    sum (K1*a - K2*b)^2 / (a + b) is chi-square with df = cells - 1 under
    the hypothesis that both samples share one distribution.
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    k1 = np.sqrt(b.sum() / a.sum())
    k2 = 1.0 / k1
    mask = (a + b) > 0
    return float(((k1 * a[mask] - k2 * b[mask]) ** 2 / (a + b)[mask]).sum())
