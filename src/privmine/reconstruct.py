"""Distribution reconstruction from perturbed counts.

The miner observes perturbed counts Y with E(Y) = A X. For the
gamma-diagonal family, A over any attribute subset (the full domain is the
subset of all attributes) has the structure a*I + b*J, so its inverse is
closed-form and reconstruction costs O(n) instead of O(n^3). MASK
reconstruction works over the 2^k bit-pattern space of a k-itemset,
cut-and-paste over its k+1 overlap classes. The miner estimates a whole
Apriori level at once from overlap-class counts (mining.SupportEstimator);
the per-itemset paths here (mask_pattern_counts, reconstruct_mask_support,
cut_paste_class_counts, cut_paste_supports) stay as its test references.
Estimates are intentionally unclamped: negative entries are estimator
artifacts that downstream consumers may count but must not silently zero
out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .perturb import GammaDiagonalSpec, RandomizedGammaSpec
from .schema import Dataset, encode_rows

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SubsetMarginalSpec:
    """A gamma-diagonal spec viewed over an ordered attribute subset.

    The induced transition matrix between the subset's n_Cs cells is
    (gamma-1)*x*I + (n/n_Cs)*x*J, with gamma, x and the domain size n the
    base spec's: column-stochastic, and with condition number
    (gamma + n - 1)/(gamma - 1) regardless of which subset is chosen."""

    base: GammaDiagonalSpec
    subset: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.subset) == 0:
            raise ValueError("subset must be non-empty")
        if any(b <= a for a, b in zip(self.subset, self.subset[1:])):
            raise ValueError(f"subset indices must be strictly increasing, got {self.subset}")
        if not all(0 <= a < self.base.schema.n_attributes for a in self.subset):
            raise ValueError(f"subset {self.subset} references unknown attributes")

    @classmethod
    def for_subset(cls, spec: GammaDiagonalSpec | RandomizedGammaSpec, subset):
        return cls(spec.base if isinstance(spec, RandomizedGammaSpec) else spec, tuple(subset))

    @property
    def n_Cs(self) -> int:
        return math.prod(self.base.schema.sizes[a] for a in self.subset)

    @property
    def diag(self) -> float:
        return (self.base.gamma - 1) * self.base.x + self.off

    @property
    def off(self) -> float:
        return (self.base.n // self.n_Cs) * self.base.x

    def condition_number(self) -> float:
        """1/((gamma-1)*x) = (gamma + n - 1)/(gamma - 1); subset-independent."""
        return 1.0 / ((self.base.gamma - 1) * self.base.x)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_subset(dataset: Dataset, subset: tuple[int, ...]) -> np.ndarray:
    """Counts over the cells of an attribute-subset marginal, indexed by the
    subset's mixed-radix encoding (first attribute fastest)."""
    schema = dataset.schema
    codes = encode_rows(dataset.codes, schema, subset)
    n_Cs = math.prod(schema.sizes[a] for a in subset)
    counts = np.bincount(codes, minlength=n_Cs)
    return counts.astype(float)


# ---------------------------------------------------------------------------
# gamma-diagonal reconstruction
# ---------------------------------------------------------------------------

def reconstruct_subset(perturbed_supports: np.ndarray, spec: SubsetMarginalSpec) -> np.ndarray:
    """Closed-form inverse over a subset marginal, in relative-support units:
    s_hat = (s_V - (n_C/n_Cs)*x) / ((gamma-1)*x)."""
    s = np.asarray(perturbed_supports, dtype=float)
    if len(s) != spec.n_Cs:
        raise ValueError(f"expected length {spec.n_Cs}, got {len(s)}")
    if not abs(s.sum() - 1.0) <= _SUM_TOL:
        raise ValueError(f"relative supports must sum to 1, got {s.sum()!r}")
    return (s - spec.off) / ((spec.base.gamma - 1) * spec.base.x)


# ---------------------------------------------------------------------------
# MASK reconstruction
# ---------------------------------------------------------------------------

def mask_itemset_matrix(k: int, p: float) -> np.ndarray:
    """Transition matrix between the 2^k on/off patterns of k boolean items:
    entry[v, u] = p^matches * (1-p)^(k-matches). Pattern bit j of the index
    is item j's presence flag; index 2^k - 1 is the all-present cell."""
    if not 1 <= k <= 20:
        raise ValueError(f"itemset width must lie in [1, 20], got {k}")
    if not 0 < p < 1:
        raise ValueError(f"retention probability must lie in (0, 1), got {p}")
    idx = np.arange(1 << k, dtype=np.uint32)
    mismatches = np.bitwise_count(idx[:, None] ^ idx[None, :]).astype(float)
    return p ** (k - mismatches) * (1 - p) ** mismatches


def mask_itemset_condition(k: int, p: float) -> float:
    """Condition number of mask_itemset_matrix: the matrix is the k-fold
    Kronecker power of [[p, 1-p], [1-p, p]], whose eigenvalues are 1 and
    2p-1, so the extreme-eigenvalue ratio is (2p-1)^(-k)."""
    if not k >= 1:
        raise ValueError(f"itemset width must be >= 1, got {k}")
    if not 0.5 < p < 1:
        raise ValueError(f"retention probability must lie in (0.5, 1), got {p}")
    return (2 * p - 1) ** (-k)


def mask_pattern_counts(bits: np.ndarray, positions: tuple[int, ...]) -> np.ndarray:
    """Counts of the 2^k patterns that the given bit positions take across a
    boolean dataset; pattern code has position j at bit j."""
    k = len(positions)
    weights = 1 << np.arange(k)
    codes = bits[:, list(positions)].astype(np.int64) @ weights
    return np.bincount(codes, minlength=1 << k).astype(float)


def reconstruct_mask_support(pattern_counts: np.ndarray, k: int, p: float) -> float:
    """Estimated relative support of the all-items-present pattern, from
    observed pattern counts of one itemset's bits."""
    counts = np.asarray(pattern_counts, dtype=float)
    if len(counts) != 1 << k:
        raise ValueError(f"expected {1 << k} pattern counts, got {len(counts)}")
    total = counts.sum()
    if total <= 0:
        raise ValueError("pattern counts are empty")
    matrix = mask_itemset_matrix(k, p)
    estimate = np.linalg.solve(matrix, counts / total)
    return float(estimate[-1])


# ---------------------------------------------------------------------------
# cut-and-paste reconstruction
# ---------------------------------------------------------------------------

def cut_paste_class_counts(bits: np.ndarray, positions: tuple[int, ...]) -> np.ndarray:
    """Histogram of how many of the given bit positions each record carries
    (overlap classes 0..k)."""
    k = len(positions)
    overlap = bits[:, list(positions)].sum(axis=1)
    return np.bincount(overlap, minlength=k + 1).astype(float)


def cut_paste_supports(bits: np.ndarray, positions: tuple[int, ...], spec) -> np.ndarray:
    """Estimated original overlap-class distribution for one itemset under
    cut-and-paste; the last entry (all bits present) is the itemset's
    estimated support."""
    from .perturb import cut_paste_class_matrix

    if len(positions) > spec.K:  # the class matrix has rank at most K + 1
        raise np.linalg.LinAlgError(f"{len(positions)} positions exceed K = {spec.K}")
    counts = cut_paste_class_counts(bits, positions)
    total = counts.sum()
    if total <= 0:
        raise ValueError("class counts are empty")
    matrix = cut_paste_class_matrix(spec, len(positions))
    return np.linalg.solve(matrix, counts / total)
