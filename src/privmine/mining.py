"""Frequent-itemset mining with per-pass support reconstruction.

The miner never sees original records. Every mechanism's estimate for an
itemset I is a function of the all-present counts c(S), for S a subset of I,
in the perturbed table's boolean expansion. One estimator keeps those counts
(the count lattice), and a small map per mechanism turns them into a
support: c(I)/N for ground truth, the closed-form subset inverse for the
gamma-diagonal family, and for MASK and cut-and-paste the exact pattern and
overlap-class histograms, Moebius-inverted from the lattice, fed to the
per-itemset solves.

An itemset is a tuple of (attribute index, category index) pairs, sorted by
attribute, attributes distinct. Estimated supports may leave [0, 1]; negative
estimates simply fail the threshold and are tallied as a diagnostic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .perturb import (
    CutPasteSpec,
    GammaDiagonalSpec,
    MaskSpec,
    RandomizedGammaSpec,
    mask_expand_many,
)
from .reconstruct import SubsetMarginalSpec, count_subset, reconstruct_mask_support

# Unused here since supports come from the count lattice: perfbench's tracer
# wraps these names in this module, and drops them once its metrics are
# renamed (ROADMAP item 8).
from .reconstruct import cut_paste_supports, mask_pattern_counts, reconstruct_subset  # noqa: F401
from .schema import BooleanDataset, Dataset, Schema

Item = tuple[int, int]
Itemset = tuple[Item, ...]


def validate_itemset(itemset: Itemset, schema: Schema) -> None:
    attrs = [a for a, _ in itemset]
    if len(itemset) == 0:
        raise ValueError("itemset must be non-empty")
    if any(b <= a for a, b in zip(attrs, attrs[1:])):
        raise ValueError(f"itemset attributes must be sorted and distinct: {itemset}")
    for a, c in itemset:
        if not 0 <= a < schema.n_attributes:
            raise ValueError(f"unknown attribute index {a}")
        if not 0 <= c < schema.sizes[a]:
            raise ValueError(f"category {c} out of range for attribute {a}")


def itemset_label(itemset: Itemset, schema: Schema) -> str:
    return ";".join(
        f"{schema.attributes[a].name}={schema.attributes[a].categories[c]}" for a, c in itemset
    )


def parse_itemset(label: str, schema: Schema) -> Itemset:
    items = []
    for part in label.split(";"):
        name, _, category = part.partition("=")
        a = schema.attribute_index(name)
        items.append((a, schema.attributes[a].index_of(category)))
    itemset = tuple(sorted(items))
    validate_itemset(itemset, schema)
    return itemset


@dataclass(frozen=True)
class MiningResult:
    """Frequent itemsets grouped by length, with the supports the miner used."""

    by_length: dict[int, dict[Itemset, float]]
    sup_min: float
    mechanism: str
    negative_estimates: int = 0

    def __post_init__(self) -> None:
        for length, level in self.by_length.items():
            for itemset, support in level.items():
                if len(itemset) != length:
                    raise ValueError(f"itemset {itemset} filed under length {length}")
                if support < self.sup_min:
                    raise ValueError(f"itemset {itemset} below threshold: {support}")
                if length > 1:
                    prev = self.by_length.get(length - 1, {})
                    for t in range(length):
                        sub = itemset[:t] + itemset[t + 1:]
                        if sub not in prev:
                            raise ValueError(f"closure violated: {sub} missing for {itemset}")

    def counts_per_length(self) -> dict[int, int]:
        return {length: len(level) for length, level in sorted(self.by_length.items()) if level}

    def itemsets(self, length: int | None = None):
        lengths = [length] if length is not None else sorted(self.by_length)
        for ln in lengths:
            yield from self.by_length.get(ln, {}).items()

    @property
    def n_itemsets(self) -> int:
        return sum(len(level) for level in self.by_length.values())


# ---------------------------------------------------------------------------
# support estimation from the count lattice
# ---------------------------------------------------------------------------

class SupportEstimator:
    """Support estimates for every mechanism from one count lattice.

    A mechanism's support estimate for an itemset I is a function of the
    all-present counts c(S), for S a subset of I, of I's positions in the boolean
    expansion (the one-hot expansion of a categorical table). The table is
    kept as packed bit columns and the counts in a dict keyed by bit
    positions, with c(()) = N; a missing count is one AND of its columns and
    a popcount. Apriori makes every proper subset of a candidate an earlier
    candidate, so within ``mine`` each candidate costs one new count.

    ``support(estimator, itemset, bits)`` is the mechanism's map from these
    counts to one estimate; the default gives the true relative support."""

    def __init__(self, data: Dataset | BooleanDataset, support=None, description: str = "plain"):
        if data.n_records == 0:
            raise ValueError("cannot mine an empty dataset")
        bits = data.bits if isinstance(data, BooleanDataset) else mask_expand_many(
            data.codes, data.schema)
        self.columns = np.ascontiguousarray(np.packbits(bits, axis=0).T)
        self.n = data.n_records
        self.offsets = data.schema.boolean_offsets
        self.counts: dict[tuple[int, ...], int] = {(): self.n}
        self.support = support or _plain
        self.description = description

    def count(self, bits: tuple[int, ...]) -> int:
        """Records carrying every one of ``bits`` (ascending positions)."""
        c = self.counts.get(bits)
        if c is None:
            both = np.bitwise_and.reduce(self.columns[list(bits)], axis=0)
            c = self.counts[bits] = int(np.bitwise_count(both).sum())
        return c

    def pattern_counts(self, bits: tuple[int, ...]) -> np.ndarray:
        """Exact counts of the 2^k on/off patterns of ``bits`` (position j at
        bit j of the pattern code), Moebius-inverted from c(S) for every subset S."""
        keys = [()]
        for b in bits:
            keys += [key + (b,) for key in keys]
        counts = np.array([self.count(key) for key in keys], dtype=np.int64)
        for j in range(len(bits)):  # patterns without bit j lose those with it
            pairs = counts.reshape(-1, 2, 1 << j)
            pairs[:, 0] -= pairs[:, 1]
        return counts

    def class_counts(self, bits: tuple[int, ...]) -> np.ndarray:
        """Overlap-class histogram: records carrying exactly l of ``bits``."""
        k = len(bits)
        return np.bincount(np.bitwise_count(np.arange(1 << k)),
                           weights=self.pattern_counts(bits), minlength=k + 1)

    def estimate(self, candidates: list[Itemset]) -> np.ndarray:
        offsets = self.offsets
        out = np.empty(len(candidates))
        for pos, itemset in enumerate(candidates):
            out[pos] = self.support(self, itemset, tuple(offsets[a] + c for a, c in itemset))
        return out


def _plain(est: SupportEstimator, itemset: Itemset, bits: tuple[int, ...]) -> float:
    return est.count(bits) / est.n


def _gamma_diagonal(spec: GammaDiagonalSpec, est: SupportEstimator, itemset: Itemset,
                    bits: tuple[int, ...]) -> float:
    """The closed-form subset inverse of ``reconstruct_subset``, for one cell."""
    sub = SubsetMarginalSpec.for_subset(spec, tuple(a for a, _ in itemset))
    return (est.count(bits) / est.n - sub.off) / ((sub.gamma - 1) * sub.x)


def _mask(spec: MaskSpec, est: SupportEstimator, itemset: Itemset,
          bits: tuple[int, ...]) -> float:
    return reconstruct_mask_support(est.pattern_counts(bits), len(bits), spec.p)


def _cut_paste(spec: CutPasteSpec, est: SupportEstimator, itemset: Itemset,
               bits: tuple[int, ...]) -> float:
    # looked up at call time, like cut_paste_supports, so that a wrapper put on
    # privmine.perturb's binding (perfbench's tracer) sees the call
    from .perturb import cut_paste_class_matrix

    matrix = cut_paste_class_matrix(spec, len(bits))
    return np.linalg.solve(matrix, est.class_counts(bits) / est.n)[-1]


# ---------------------------------------------------------------------------
# Apriori driver
# ---------------------------------------------------------------------------

MAX_CANDIDATES = 10**6  # per level; a memory backstop when noise passes most items


def _join_and_prune(prev_frequent: list[Itemset]) -> list[Itemset]:
    """Standard candidate generation: join pairs sharing all but the last
    item, then drop candidates with an infrequent subset. Raises past
    ``MAX_CANDIDATES`` instead of exhausting memory."""
    prev_set = set(prev_frequent)
    ordered = sorted(prev_frequent)
    out = []
    for i, left in enumerate(ordered):
        for right in ordered[i + 1:]:
            if left[:-1] != right[:-1]:
                break  # sorted order: prefixes only diverge further
            if left[-1][0] == right[-1][0]:
                continue  # same attribute twice
            cand = left + (right[-1],)
            if all(cand[:t] + cand[t + 1:] in prev_set for t in range(len(cand))):
                out.append(cand)
                if len(out) > MAX_CANDIDATES:
                    raise ValueError(
                        f"{len(out)} candidates of length {len(cand)} exceed the ceiling of "
                        f"{MAX_CANDIDATES} per level"
                    )
    return out


def mine(estimator, schema: Schema, sup_min: float, max_length: int | None = None) -> MiningResult:
    """Level-wise mining loop; the estimator supplies support estimates for
    each pass's candidates."""
    if not sup_min > 0:
        raise ValueError(f"sup_min must be positive, got {sup_min}")
    limit = schema.n_attributes if max_length is None else min(max_length, schema.n_attributes)
    by_length: dict[int, dict[Itemset, float]] = {}
    negatives = 0
    candidates: list[Itemset] = [
        ((a, c),) for a in range(schema.n_attributes) for c in range(schema.sizes[a])
    ]
    length = 1
    while candidates and length <= limit:
        supports = estimator.estimate(candidates)
        negatives += int((supports < 0).sum())
        level = {
            itemset: float(s)
            for itemset, s in zip(candidates, supports)
            if s >= sup_min
        }
        if not level:
            break
        by_length[length] = level
        length += 1
        candidates = _join_and_prune(list(level)) if length <= limit else []
    return MiningResult(
        by_length=by_length,
        sup_min=sup_min,
        mechanism=estimator.description,
        negative_estimates=negatives,
    )


def apriori_plain(dataset: Dataset, sup_min: float,
                  max_length: int | None = None) -> MiningResult:
    """Reference miner on unperturbed data; ground truth for accuracy metrics."""
    return mine(SupportEstimator(dataset), dataset.schema, sup_min, max_length)


def apriori_reconstructed(
    perturbed: Dataset | BooleanDataset,
    schema: Schema,
    spec: GammaDiagonalSpec | RandomizedGammaSpec | MaskSpec | CutPasteSpec,
    sup_min: float,
    max_length: int | None = None,
) -> MiningResult:
    """Mining over a perturbed database with per-pass support reconstruction.

    The spec must be the one used by the clients (its public part: the
    randomized variant reconstructs with the expected matrix)."""
    if isinstance(spec, RandomizedGammaSpec):
        spec = spec.base
    if not isinstance(spec, (GammaDiagonalSpec, MaskSpec, CutPasteSpec)):
        raise ValueError(f"unsupported mechanism spec: {type(spec).__name__}")
    if spec.schema != schema:
        raise ValueError("mechanism schema does not match the mining schema")
    if perturbed.n_records == 0:
        raise ValueError("cannot mine an empty dataset")
    if isinstance(spec, GammaDiagonalSpec):
        if not isinstance(perturbed, Dataset):
            raise ValueError("gamma-diagonal mining expects a categorical dataset")
        support, description = _gamma_diagonal, f"gamma-diagonal(gamma={spec.gamma:g})"
    elif isinstance(spec, MaskSpec):
        if not isinstance(perturbed, BooleanDataset):
            raise ValueError("mask mining expects a boolean dataset")
        support, description = _mask, f"mask(p={spec.p:g})"
    else:
        if not isinstance(perturbed, BooleanDataset):
            raise ValueError("cut-and-paste mining expects a boolean dataset")
        support, description = _cut_paste, f"cut-paste(K={spec.K}, rho={spec.rho_cp:g})"
    if perturbed.schema != schema:
        raise ValueError("perturbed data schema does not match the mining schema")
    estimator = SupportEstimator(perturbed, partial(support, spec), description)
    return mine(estimator, schema, sup_min, max_length)


def brute_force_frequent(dataset: Dataset, sup_min: float,
                         max_length: int | None = None) -> MiningResult:
    """Exhaustive enumeration over every attribute subset; oracle for the
    level-wise miner. Exponential in attribute count, fine for small schemas."""
    if not sup_min > 0:
        raise ValueError(f"sup_min must be positive, got {sup_min}")
    schema = dataset.schema
    n = dataset.n_records
    if n == 0:
        raise ValueError("cannot mine an empty dataset")
    limit = schema.n_attributes if max_length is None else max_length
    by_length: dict[int, dict[Itemset, float]] = {}
    for k in range(1, limit + 1):
        level: dict[Itemset, float] = {}
        for subset in itertools.combinations(range(schema.n_attributes), k):
            rel = count_subset(dataset, subset).counts / n
            for cell in np.flatnonzero(rel >= sup_min):
                code = int(cell)
                items = []
                for a in subset:
                    items.append((a, code % schema.sizes[a]))
                    code //= schema.sizes[a]
                level[tuple(items)] = float(rel[cell])
        if not level:
            break
        by_length[k] = level
    return MiningResult(by_length, sup_min, "brute-force")
