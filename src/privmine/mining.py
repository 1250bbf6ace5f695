"""Frequent-itemset mining with per-pass support reconstruction.

The miner never sees original records. Each Apriori pass counts marginals
over the perturbed database and converts them to estimates of the original
supports through the mechanism's reconstruction: closed-form subset inverses
for the gamma-diagonal family, per-itemset pattern solves for the boolean
mechanisms. A plain estimator with no reconstruction provides ground truth.

An itemset is a tuple of (attribute index, category index) pairs, sorted by
attribute, attributes distinct. Estimated supports may leave [0, 1]; negative
estimates simply fail the threshold and are tallied as a diagnostic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .perturb import CutPasteSpec, GammaDiagonalSpec, MaskSpec, RandomizedGammaSpec
from .reconstruct import (
    SubsetMarginalSpec,
    count_subset,
    cut_paste_supports,
    mask_pattern_counts,
    reconstruct_mask_support,
    reconstruct_subset,
)
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
# support estimators (one per mechanism)
# ---------------------------------------------------------------------------

def _group_by_subset(candidates: list[Itemset]) -> dict[tuple[int, ...], list[int]]:
    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, itemset in enumerate(candidates):
        groups.setdefault(tuple(a for a, _ in itemset), []).append(pos)
    return groups


def _cell_index(itemset: Itemset, schema: Schema) -> int:
    code, weight = 0, 1
    for a, c in itemset:
        code += c * weight
        weight *= schema.sizes[a]
    return code


def count_itemset_supports(dataset: Dataset, candidates: list[Itemset],
                           max_subset_cells: int = 1 << 20):
    """Marginal count vectors for every attribute subset touched by the
    candidates; the reconstruction step needs whole marginals, not just the
    candidate cells. One pass over the data per subset."""
    out = {}
    for subset in _group_by_subset(candidates):
        n_cells = math.prod(dataset.schema.sizes[a] for a in subset)
        if n_cells > max_subset_cells:
            raise ValueError(
                f"subset {subset} spans {n_cells} cells, above the cap {max_subset_cells}"
            )
        out[subset] = count_subset(dataset, subset)
    return out


class PlainSupportEstimator:
    """True relative supports, counted directly (ground-truth miner). The
    gamma-diagonal estimators reuse its loop and override only ``_supports``,
    the map from a subset's relative marginal to support estimates."""

    description = "plain"

    def __init__(self, dataset: Dataset):
        self.dataset = dataset

    def _supports(self, rel: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
        return rel

    def estimate(self, candidates: list[Itemset]) -> np.ndarray:
        n = self.dataset.n_records
        if n == 0:
            raise ValueError("cannot mine an empty dataset")
        schema = self.dataset.schema
        marginals = count_itemset_supports(self.dataset, candidates)
        out = np.empty(len(candidates))
        for subset, positions in _group_by_subset(candidates).items():
            supports = self._supports(marginals[subset].counts / n, subset)
            for pos in positions:
                out[pos] = supports[_cell_index(candidates[pos], schema)]
        return out


class GammaDiagonalSupportEstimator(PlainSupportEstimator):
    """Counts perturbed subset marginals and inverts the induced subset
    matrix in closed form. Used unchanged for the randomized variant: the
    miner reconstructs with the expected matrix and never sees per-client
    draws."""

    def __init__(self, perturbed: Dataset, spec: GammaDiagonalSpec):
        if spec.schema != perturbed.schema:
            raise ValueError("mechanism schema does not match the perturbed dataset")
        super().__init__(perturbed)
        self.spec = spec
        self.description = f"gamma-diagonal(gamma={spec.gamma:g})"

    def _supports(self, rel: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
        return reconstruct_subset(rel, SubsetMarginalSpec.for_subset(self.spec, subset))


class NoiselessGammaDiagonalEstimator(PlainSupportEstimator):
    """Applies the subset matrix to the *true* marginals analytically and
    reconstructs back; isolates the algebra from sampling noise."""

    def __init__(self, original: Dataset, spec: GammaDiagonalSpec):
        if spec.schema != original.schema:
            raise ValueError("mechanism schema does not match the dataset")
        super().__init__(original)
        self.spec = spec
        self.description = f"gamma-diagonal-noiseless(gamma={spec.gamma:g})"

    def _supports(self, rel: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
        sub_spec = SubsetMarginalSpec.for_subset(self.spec, subset)
        expected = (sub_spec.diag - sub_spec.off) * rel + sub_spec.off
        return reconstruct_subset(expected, sub_spec)


class _BitSupportEstimator:
    """Boolean-mechanism loop: ``_support`` estimates one itemset's support
    from its bit positions in the boolean expansion."""

    def __init__(self, perturbed: BooleanDataset, spec: MaskSpec | CutPasteSpec):
        if spec.schema != perturbed.schema:
            raise ValueError("mechanism schema does not match the perturbed dataset")
        self.perturbed = perturbed
        self.spec = spec

    def estimate(self, candidates: list[Itemset]) -> np.ndarray:
        offsets = self.perturbed.schema.boolean_offsets
        out = np.empty(len(candidates))
        for pos, itemset in enumerate(candidates):
            out[pos] = self._support(tuple(offsets[a] + c for a, c in itemset))
        return out


class MaskSupportEstimator(_BitSupportEstimator):
    """Per-itemset reconstruction over the 2^k on/off patterns of the
    itemset's bits in the boolean cube."""

    def __init__(self, perturbed: BooleanDataset, spec: MaskSpec):
        super().__init__(perturbed, spec)
        self.description = f"mask(p={spec.p:g})"

    def _support(self, bits: tuple[int, ...]) -> float:
        counts = mask_pattern_counts(self.perturbed.bits, bits)
        return reconstruct_mask_support(counts, len(bits), self.spec.p)


class CutPasteSupportEstimator(_BitSupportEstimator):
    """Reconstructs supports from the overlap-class histogram of each
    itemset: how many of its bits each perturbed record carries."""

    def __init__(self, perturbed: BooleanDataset, spec: CutPasteSpec):
        super().__init__(perturbed, spec)
        self.description = f"cut-paste(K={spec.K}, rho={spec.rho_cp:g})"

    def _support(self, bits: tuple[int, ...]) -> float:
        return cut_paste_supports(self.perturbed.bits, bits, self.spec)[-1]


# ---------------------------------------------------------------------------
# Apriori driver
# ---------------------------------------------------------------------------

def _join_and_prune(prev_frequent: list[Itemset]) -> list[Itemset]:
    """Standard candidate generation: join pairs sharing all but the last
    item, then drop candidates with an infrequent subset."""
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
    return mine(PlainSupportEstimator(dataset), dataset.schema, sup_min, max_length)


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
    if isinstance(spec, GammaDiagonalSpec):
        if not isinstance(perturbed, Dataset):
            raise ValueError("gamma-diagonal mining expects a categorical dataset")
        estimator = GammaDiagonalSupportEstimator(perturbed, spec)
    elif isinstance(spec, MaskSpec):
        if not isinstance(perturbed, BooleanDataset):
            raise ValueError("mask mining expects a boolean dataset")
        estimator = MaskSupportEstimator(perturbed, spec)
    else:
        if not isinstance(perturbed, BooleanDataset):
            raise ValueError("cut-and-paste mining expects a boolean dataset")
        estimator = CutPasteSupportEstimator(perturbed, spec)
    if perturbed.schema != schema:
        raise ValueError("perturbed data schema does not match the mining schema")
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
