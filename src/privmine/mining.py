"""Frequent-itemset mining with per-level support reconstruction.

The miner never sees original records. Every mechanism's estimate for an
itemset I is a function of the all-present counts c(S), for S a subset of I,
in the perturbed table's boolean expansion, and all itemsets of one length
share one transition matrix. So one estimator keeps those counts (the count
lattice) and maps a whole Apriori level at once: c(I)/N for ground truth, the
closed-form subset inverse for the gamma-diagonal family, the closed-form
Kronecker inverse for MASK, and one overlap-class solve per length for
cut-and-paste.

The level loop stops before a length whose reconstruction condition number
exceeds ``COND_CEILING``: estimates there are amplified rounding noise.

An itemset is a tuple of (attribute index, category index) pairs, sorted by
attribute, attributes distinct. Estimated supports may leave [0, 1]; negative
estimates simply fail the threshold and are tallied as a diagnostic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .perturb import (
    CutPasteSpec,
    GammaDiagonalSpec,
    MaskSpec,
    RandomizedGammaSpec,
    mask_expand_many,
)
from .reconstruct import count_subset

# Unused here since supports come from the count lattice: perfbench's tracer
# wraps these names in this module, and drops them once its metrics are
# renamed (ROADMAP item 2).
from .reconstruct import (  # noqa: F401
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
class Level:
    """One Apriori pass, with the reconstruction condition number at its length."""

    length: int
    candidates: int
    frequent: int
    negatives: int
    condition: float


@dataclass(frozen=True)
class MiningResult:
    """Frequent itemsets grouped by length, with the supports the miner used;
    ``stop_reason`` says why the search went no further than ``stop_length``."""

    by_length: dict[int, dict[Itemset, float]]
    sup_min: float
    mechanism: str
    negative_estimates: int = 0
    levels: tuple[Level, ...] = ()
    stop_length: int = 0
    stop_reason: str = ""

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

COND_CEILING = 1e12  # a length whose reconstruction is worse conditioned is not mined
_BLOCK_BYTES = 1 << 16  # column bytes gathered per counting block


def _overlap_transform(k: int) -> np.ndarray:
    """(2^k, k+1) integer map from subset counts c(S) to overlap classes:
    records carrying exactly l of k bits number sum_S (-1)^(|S|-l) C(|S|, l) c(S)."""
    sizes = np.bitwise_count(np.arange(1 << k)).tolist()
    return np.array([[(-1) ** (s + l) * math.comb(s, l) for l in range(k + 1)] for s in sizes])


class SupportEstimator:
    """Support estimates for one mechanism from one count lattice.

    A mechanism's support estimate for an itemset I is a function of the
    all-present counts c(S), for S a subset of I, of I's positions in the boolean
    expansion (the one-hot expansion of a categorical table). The table is
    kept as packed bit columns and the counts in a dict keyed by bit
    positions, with c(()) = N; a missing count is one AND of its columns and
    a popcount. Apriori makes every proper subset of a candidate an earlier
    candidate, so within ``mine`` each candidate costs one new count.

    ``spec`` is the mechanism whose reconstruction ``level`` applies (None:
    the true relative support)."""

    def __init__(self, data: Dataset | BooleanDataset, spec=None, description: str = "plain"):
        if data.n_records == 0:
            raise ValueError("cannot mine an empty dataset")
        bits = data.bits if isinstance(data, BooleanDataset) else mask_expand_many(
            data.codes, data.schema)
        packed = np.packbits(bits, axis=0)
        self.columns = np.zeros((packed.shape[1], -(-len(packed) // 8)), np.uint64)
        self.columns.view(np.uint8)[:, :len(packed)] = packed.T  # 64 records per word
        self.n = data.n_records
        sizes = data.schema.sizes
        self.offsets = data.schema.boolean_offsets
        self.bit_sizes = np.repeat(sizes, sizes)  # category count of each bit's attribute
        self.counts: dict[tuple[int, ...], int] = {(): self.n}
        self.spec = spec
        self.description = description

    def count(self, bits: tuple[int, ...]) -> int:
        """Records carrying every one of ``bits`` (ascending positions)."""
        c = self.counts.get(bits)
        if c is None:
            c = int(self.full_counts(np.array([bits], np.intp))[0])
        return c

    def full_counts(self, bits: np.ndarray) -> np.ndarray:
        """c(I) for every row of ``bits`` (candidates x ascending positions),
        counted in blocks and added to the lattice."""
        m, k = bits.shape
        out = np.empty(m, dtype=np.int64)
        step = max(1, _BLOCK_BYTES // (k * self.columns[0].nbytes))
        for start in range(0, m, step):
            both = np.bitwise_and.reduce(self.columns[bits[start:start + step]], axis=1)
            out[start:start + step] = np.bitwise_count(both).sum(axis=1)
        self.counts.update(zip(map(tuple, bits.tolist()), out.tolist()))
        return out

    def lattice(self, bits: np.ndarray) -> np.ndarray:
        """(candidates, 2^k) counts c(S) of every subset S of each row's
        positions, the row's j-th position at bit j of the column: column 0
        holds N and the last column c(I)."""
        self.full_counts(bits)
        count, out = self.count, np.empty((len(bits), 1 << bits.shape[1]), dtype=np.int64)
        for i, row in enumerate(bits.tolist()):
            keys = [()]
            for b in row:
                keys += [key + (b,) for key in keys]
            out[i] = [count(key) for key in keys]
        return out

    def estimate(self, candidates: list[Itemset]) -> np.ndarray:
        offsets = self.offsets
        out = np.empty(len(candidates))
        for k in sorted({len(itemset) for itemset in candidates}):
            pos = [i for i, itemset in enumerate(candidates) if len(itemset) == k]
            bits = np.array([[offsets[a] + c for a, c in candidates[i]] for i in pos], np.intp)
            out[pos] = self.level([candidates[i] for i in pos], bits)
        return out

    def level(self, candidates: list[Itemset], bits: np.ndarray) -> np.ndarray:
        """Support estimates for candidates of one length k, in one step."""
        spec, n, k = self.spec, self.n, bits.shape[1]
        if spec is None:
            return self.full_counts(bits) / n
        if isinstance(spec, GammaDiagonalSpec):
            # the closed-form subset inverse of reconstruct_subset, per cell
            off = (spec.n // self.bit_sizes[bits].prod(axis=1)) * spec.x
            return (self.full_counts(bits) / n - off) / ((spec.gamma - 1) * spec.x)
        if isinstance(spec, MaskSpec):
            # the all-present row of the inverse Kronecker power, over c(S):
            # sum_S (-(1-p))^(k-|S|) c(S) / (N (2p-1)^k)
            coef = (-(1 - spec.p)) ** (k - np.bitwise_count(np.arange(1 << k)))
            return self.lattice(bits) @ coef / n / (2 * spec.p - 1) ** k
        from .perturb import cut_paste_class_matrix

        classes = self.lattice(bits) @ _overlap_transform(k)
        return np.linalg.solve(cut_paste_class_matrix(spec, k), classes.T / n)[-1]


# ---------------------------------------------------------------------------
# Apriori driver
# ---------------------------------------------------------------------------

MAX_CANDIDATES = 10**6  # per level; a memory backstop when noise passes most items


def _join_and_prune(prev_frequent: list[Itemset]) -> list[Itemset]:
    """Standard candidate generation: join pairs sharing all but the last
    item, then drop candidates with an infrequent subset. Raises past
    ``MAX_CANDIDATES`` instead of exhausting memory."""
    prev_set = set(prev_frequent)
    out = []
    for _, group in itertools.groupby(sorted(prev_frequent), key=lambda itemset: itemset[:-1]):
        for left, right in itertools.combinations(group, 2):
            if left[-1][0] == right[-1][0]:
                continue  # same attribute twice
            cand = left + (right[-1],)
            # dropping either of the last two items gives right or left
            if all(cand[:t] + cand[t + 1:] in prev_set for t in range(len(cand) - 2)):
                out.append(cand)
                if len(out) > MAX_CANDIDATES:
                    raise ValueError(
                        f"{len(out)} candidates of length {len(cand)} exceed the ceiling of "
                        f"{MAX_CANDIDATES} per level"
                    )
    return out


def mine(estimator, schema: Schema, sup_min: float) -> MiningResult:
    """Level-wise mining loop; the estimator supplies support estimates for
    each pass's candidates. The search stops before a length whose
    reconstruction condition number exceeds ``COND_CEILING``, and raises
    ``LinAlgError`` if that is already length 1."""
    if not sup_min > 0:
        raise ValueError(f"sup_min must be positive, got {sup_min}")
    limit = schema.n_attributes
    by_length: dict[int, dict[Itemset, float]] = {}
    levels: list[Level] = []
    candidates: list[Itemset] = [
        ((a, c),) for a in range(schema.n_attributes) for c in range(schema.sizes[a])
    ]
    stop = f"length limit {limit} reached"
    for length in range(1, limit + 1):
        if not candidates:
            stop = f"no candidates of length {length}"
            break
        cond = 1.0 if estimator.spec is None else estimator.spec.condition_number(length)
        if not cond <= COND_CEILING:
            stop = f"condition number {cond:.3g} at length {length} exceeds {COND_CEILING:g}"
            if length == 1:
                raise np.linalg.LinAlgError(f"cannot reconstruct supports: {stop}")
            break
        supports = estimator.estimate(candidates)
        level = {
            itemset: float(s)
            for itemset, s in zip(candidates, supports)
            if s >= sup_min
        }
        levels.append(Level(length, len(candidates), len(level), int((supports < 0).sum()), cond))
        if not level:
            stop = f"no frequent itemsets of length {length}"
            break
        by_length[length] = level
        if length < limit:
            candidates = _join_and_prune(list(level))
    return MiningResult(
        by_length=by_length,
        sup_min=sup_min,
        mechanism=estimator.description,
        negative_estimates=sum(lv.negatives for lv in levels),
        levels=tuple(levels),
        stop_length=len(levels),
        stop_reason=stop,
    )


def apriori_plain(dataset: Dataset, sup_min: float) -> MiningResult:
    """Reference miner on unperturbed data; ground truth for accuracy metrics."""
    return mine(SupportEstimator(dataset), dataset.schema, sup_min)


def apriori_reconstructed(
    perturbed: Dataset | BooleanDataset,
    schema: Schema,
    spec: GammaDiagonalSpec | RandomizedGammaSpec | MaskSpec | CutPasteSpec,
    sup_min: float,
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
        description = f"gamma-diagonal(gamma={spec.gamma:g})"
    elif isinstance(spec, MaskSpec):
        if not isinstance(perturbed, BooleanDataset):
            raise ValueError("mask mining expects a boolean dataset")
        description = f"mask(p={spec.p:g})"
    else:
        if not isinstance(perturbed, BooleanDataset):
            raise ValueError("cut-and-paste mining expects a boolean dataset")
        description = f"cut-paste(K={spec.K}, rho={spec.rho_cp:g})"
    if perturbed.schema != schema:
        raise ValueError("perturbed data schema does not match the mining schema")
    return mine(SupportEstimator(perturbed, spec, description), schema, sup_min)


def brute_force_frequent(dataset: Dataset, sup_min: float) -> MiningResult:
    """Exhaustive enumeration over every attribute subset; oracle for the
    level-wise miner. Exponential in attribute count, fine for small schemas."""
    if not sup_min > 0:
        raise ValueError(f"sup_min must be positive, got {sup_min}")
    schema = dataset.schema
    n = dataset.n_records
    if n == 0:
        raise ValueError("cannot mine an empty dataset")
    by_length: dict[int, dict[Itemset, float]] = {}
    for k in range(1, schema.n_attributes + 1):
        level: dict[Itemset, float] = {}
        for subset in itertools.combinations(range(schema.n_attributes), k):
            rel = count_subset(dataset, subset) / n
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
