"""Frequent-itemset mining with per-level support reconstruction.

The miner never sees original records. Every mechanism estimates a k-itemset
I's support as (sum_l w[l]·N_l(I)/N - offset(I)) / scale, where N_l(I) counts
the records carrying exactly l of I's k bits; the mechanisms differ only in
these parameters (each spec's ``class_weights``). One estimator counts N_l
straight from the table's packed bit columns, for a whole Apriori level at
once, and keeps no counts between levels. Ground truth is N_k(I)/N.

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

from .perturb import MECHANISMS
from .reconstruct import count_subset

# Unused here since supports come from direct overlap-class counts: perfbench's
# tracer wraps these names in this module, and drops them once its metrics are
# renamed (ROADMAP item 1).
from .reconstruct import (  # noqa: F401
    cut_paste_supports,
    mask_pattern_counts,
    reconstruct_mask_support,
    reconstruct_subset,
)
from .schema import BooleanDataset, Dataset, Schema

Item = tuple[int, int]
Itemset = tuple[Item, ...]


def check_sup_min(sup_min: float) -> None:
    """A support threshold is a finite number above 0."""
    if not 0 < sup_min < math.inf:
        raise ValueError(f"sup_min must be a finite number > 0, got {sup_min}")


def itemset_label(itemset: Itemset, schema: Schema) -> str:
    labels, offsets = schema.item_labels, schema.boolean_offsets
    return ";".join(labels[offsets[a] + c] for a, c in itemset)


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
    levels: tuple[Level, ...] = ()
    stop_reason: str = ""

    def __post_init__(self) -> None:
        check_sup_min(self.sup_min)
        for length, level in self.by_length.items():
            for itemset, support in level.items():
                if len(itemset) != length:
                    raise ValueError(f"itemset {itemset} filed under length {length}")
                if not self.sup_min <= support < math.inf:
                    raise ValueError(f"itemset {itemset} support {support} lies outside "
                                     f"[{self.sup_min}, inf)")
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

    @property
    def negative_estimates(self) -> int:
        return sum(level.negatives for level in self.levels)

    @property
    def stop_length(self) -> int:
        return len(self.levels)


# ---------------------------------------------------------------------------
# support estimation from overlap-class counts
# ---------------------------------------------------------------------------

COND_CEILING = 1e12  # a length whose reconstruction is worse conditioned is not mined
_BLOCK_BYTES = 1 << 18  # column bytes gathered per counting block


class SupportEstimator:
    """Support estimates for one mechanism over one table, from its overlap classes.

    This is where a table meets its mechanism. ``spec`` is the one the
    clients used, an instance of one of ``MECHANISMS`` (None: the table is
    unperturbed and the estimate is the true relative support). The table
    must be of the spec's ``table`` kind and on its schema: anything else is
    a ValueError here, before any counting. ``mechanism`` names the pair in
    mining results.

    An itemset's positions are its bits in the boolean (one-hot) expansion,
    kept as packed bit columns. They are packed along the record axis, 8·k
    records at a time, so the table's whole expansion is never made. Every
    count is a pass over its candidates' columns, so an estimate depends on
    its own itemset alone and the estimator's state never changes once built."""

    def __init__(self, data: Dataset | BooleanDataset, spec=None):
        if spec is not None:
            if not (isinstance(spec, MECHANISMS) and isinstance(data, spec.table)):
                raise ValueError(f"cannot mine a {type(data).__name__} "
                                 f"with a {type(spec).__name__}")
            if spec.schema != data.schema:
                raise ValueError("the mechanism's schema is not the table's")
        self.mechanism = "plain" if spec is None else spec.label
        if data.n_records == 0:
            raise ValueError("cannot mine an empty dataset")
        self.n = data.n_records
        self.schema = data.schema
        sizes, width = data.schema.sizes, data.schema.boolean_width
        self.columns = np.zeros((width, -(-self.n // 64)), np.uint64)  # 64 records per word
        packed = self.columns.view(np.uint8)  # 8 records per byte, zero past N
        step = 8 * max(1, _BLOCK_BYTES // (8 * width))  # records whose rows fill a block
        for start in range(0, self.n, step):
            if isinstance(data, BooleanDataset):
                rows = np.ascontiguousarray(data.bits[start:start + step].T)
            else:  # bit offsets[j] + c: the chunk's records whose attribute j is c
                rows = np.concatenate([data.codes[start:start + step, j] == np.arange(s)[:, None]
                                       for j, s in enumerate(sizes)])
            packed[:, start // 8:(start + rows.shape[1] + 7) // 8] = np.packbits(rows, axis=1)
        self.offsets = data.schema.boolean_offsets
        self.bit_sizes = np.repeat(sizes, sizes)  # category count of each bit's attribute
        self.spec = spec

    def full_counts(self, bits: np.ndarray) -> np.ndarray:
        """N_k: records carrying all k positions of each row of ``bits``
        (candidates x ascending positions), counted in blocks."""
        m, k = bits.shape
        out = np.empty(m, dtype=np.int64)
        step = max(1, _BLOCK_BYTES // (k * self.columns[0].nbytes))
        for start in range(0, m, step):
            both = np.bitwise_and.reduce(self.columns[bits[start:start + step]], axis=1)
            out[start:start + step] = np.bitwise_count(both).sum(axis=1)
        return out

    def class_counts(self, bits: np.ndarray) -> np.ndarray:
        """(candidates, k + 1) counts N_l, l = 0..k, of the records carrying
        exactly l of each row's k positions. Per block, ge[l - 1] marks the
        records that carry at least l of the columns seen so far; N_0 is what
        is left of N, so the zero words past record N are never counted."""
        m, k = bits.shape
        at_least = np.empty((m, k), dtype=np.int64)  # column l - 1: at least l of the k
        step = max(1, _BLOCK_BYTES // (k * self.columns[0].nbytes))
        for start in range(0, m, step):
            cols = self.columns[bits[start:start + step]]  # (block, k, words)
            ge = np.zeros((k,) + cols[:, 0].shape, np.uint64)
            for j in range(k):
                for l in range(j, 0, -1):  # descending: ge[l - 1] still lacks column j
                    ge[l] |= ge[l - 1] & cols[:, j]
                ge[0] |= cols[:, j]
            at_least[start:start + step] = np.bitwise_count(ge).sum(axis=2).T
        return -np.diff(at_least, axis=1, prepend=self.n, append=0)

    def estimate(self, candidates: list[Itemset]) -> np.ndarray:
        """Support estimates for one Apriori level (candidates of one length k),
        each (sum_l w[l]·N_l/N - offset) / scale from its own row alone."""
        if not candidates:
            raise ValueError("no candidates to estimate")
        offsets = self.offsets
        bits = np.array([[offsets[a] + c for a, c in itemset] for itemset in candidates], np.intp)
        if self.spec is None:
            return self.full_counts(bits) / self.n
        k = bits.shape[1]
        weights, offset, scale = self.spec.class_weights(k, self.bit_sizes[bits].prod(axis=1))
        if weights[:k].any():
            sums = (self.class_counts(bits) * weights).sum(axis=1)
        else:  # weights on N_k alone: one AND per candidate
            sums = self.full_counts(bits) * weights[k]
        return (sums / self.n - offset) / scale


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


def mine(estimator: SupportEstimator, sup_min: float) -> MiningResult:
    """Level-wise mining loop over the estimator's schema; the estimator
    supplies the support estimates of each pass's candidates, one length per
    call. The search stops before a length whose reconstruction condition
    number exceeds ``COND_CEILING``, and raises ``LinAlgError`` if that is
    already length 1."""
    check_sup_min(sup_min)
    schema = estimator.schema
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
    return MiningResult(by_length, sup_min, estimator.mechanism, tuple(levels), stop)


def apriori_plain(dataset: Dataset, sup_min: float) -> MiningResult:
    """Reference miner on unperturbed data; ground truth for accuracy metrics."""
    return mine(SupportEstimator(dataset), sup_min)


def apriori_reconstructed(
    perturbed: Dataset | BooleanDataset,
    schema: Schema,
    spec,
    sup_min: float,
) -> MiningResult:
    """Mining over a perturbed database with per-pass support reconstruction.

    The spec, one of ``MECHANISMS``, must be the one used by the clients (its
    public part: the randomized variant reconstructs with the expected matrix)."""
    if perturbed.schema != schema:
        raise ValueError("perturbed data schema does not match the mining schema")
    return mine(SupportEstimator(perturbed, spec), sup_min)


def brute_force_frequent(dataset: Dataset, sup_min: float) -> MiningResult:
    """Exhaustive enumeration over every attribute subset; oracle for the
    level-wise miner. Exponential in attribute count, fine for small schemas."""
    check_sup_min(sup_min)
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
