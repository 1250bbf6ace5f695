"""Distribution reconstruction from perturbed counts.

The miner observes perturbed counts Y with E(Y) = A X. For the
gamma-diagonal family, A and its attribute-subset analogues have the
structure a*I + b*J, so the inverse is closed-form and reconstruction costs
O(n) instead of O(n^3). MASK reconstruction happens per itemset over the
2^k bit-pattern space. Estimates are intentionally unclamped: negative
entries are estimator artifacts that downstream consumers may count but
must not silently zero out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .perturb import GammaDiagonalSpec, MaterializedMatrix, RandomizedGammaSpec
from .schema import Dataset, Schema, encode_rows

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FrequencyVector:
    """Dense counts (or estimated counts) over a full domain or a subset
    marginal. Observed vectors are nonnegative; reconstructed ones may carry
    negative entries."""

    counts: np.ndarray
    subset: tuple[int, ...] | None = None
    observed: bool = True

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 1:
            raise ValueError("counts must be a vector")
        if not np.isfinite(counts).all():
            raise ValueError("counts must be finite")
        if self.observed and (counts < 0).any():
            raise ValueError("observed counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def __len__(self) -> int:
        return len(self.counts)

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.counts
        return self.counts.astype(dtype)


@dataclass(frozen=True)
class SubsetMarginalSpec:
    """Marginal reconstruction problem over an ordered attribute subset.

    The induced transition matrix between subset cells is
    (gamma-1)*x*I + (n_C/n_Cs)*x*J: column-stochastic, and with condition
    number (gamma + n_C - 1)/(gamma - 1) regardless of which subset is
    chosen."""

    subset: tuple[int, ...]
    n_Cs: int
    n_C: int
    gamma: float
    x: float

    def __post_init__(self) -> None:
        if len(self.subset) == 0:
            raise ValueError("subset must be non-empty")
        if any(b <= a for a, b in zip(self.subset, self.subset[1:])):
            raise ValueError(f"subset indices must be strictly increasing, got {self.subset}")
        if self.n_Cs <= 0 or self.n_C % self.n_Cs != 0:
            raise ValueError(f"subset cell count {self.n_Cs} must divide domain size {self.n_C}")

    @classmethod
    def for_subset(cls, spec: GammaDiagonalSpec, subset: tuple[int, ...]) -> "SubsetMarginalSpec":
        schema = spec.schema
        if not all(0 <= a < schema.n_attributes for a in subset):
            raise ValueError(f"subset {subset} references unknown attributes")
        n_Cs = math.prod(schema.sizes[a] for a in subset)
        return cls(tuple(subset), n_Cs, spec.n, spec.gamma, spec.x)

    @property
    def diag(self) -> float:
        return (self.gamma - 1) * self.x + self.off

    @property
    def off(self) -> float:
        return (self.n_C // self.n_Cs) * self.x

    def condition_number(self) -> float:
        """1/((gamma-1)*x) = (gamma + n_C - 1)/(gamma - 1); subset-independent."""
        return 1.0 / ((self.gamma - 1) * self.x)


@dataclass(frozen=True)
class VarianceDiagnostic:
    """Per-value perturbation variance and the error amplification it implies."""

    variances: np.ndarray
    condition_number: float
    expected_error_bound: float
    sampling_norm: float
    bias_norm: float | None = None

    def __post_init__(self) -> None:
        variances = np.asarray(self.variances, dtype=float)
        if (variances < 0).any():
            raise ValueError("variances must be nonnegative")
        object.__setattr__(self, "variances", variances)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_full(dataset: Dataset) -> FrequencyVector:
    """Counts over the full domain, indexed by the mixed-radix encoding."""
    codes = encode_rows(dataset.codes, dataset.schema)
    counts = np.bincount(codes, minlength=dataset.schema.domain_size)
    return FrequencyVector(counts.astype(float))


def count_subset(dataset: Dataset, subset: tuple[int, ...]) -> FrequencyVector:
    """Counts over the cells of an attribute-subset marginal."""
    schema = dataset.schema
    codes = encode_rows(dataset.codes, schema, subset)
    n_Cs = math.prod(schema.sizes[a] for a in subset)
    counts = np.bincount(codes, minlength=n_Cs)
    return FrequencyVector(counts.astype(float), subset=tuple(subset))


def marginalize(counts: np.ndarray, schema: Schema, subset: tuple[int, ...]) -> np.ndarray:
    """Collapse a full-domain vector onto an attribute subset."""
    counts = np.asarray(counts, dtype=float)
    if len(counts) != schema.domain_size:
        raise ValueError("length does not match the schema domain")
    sub_codes = encode_rows(schema.domain_digits, schema, subset)
    n_Cs = math.prod(schema.sizes[a] for a in subset)
    return np.bincount(sub_codes, weights=counts, minlength=n_Cs)


# ---------------------------------------------------------------------------
# gamma-diagonal reconstruction
# ---------------------------------------------------------------------------

def reconstruct_full(Y: FrequencyVector | np.ndarray, spec: GammaDiagonalSpec) -> FrequencyVector:
    """Closed-form inverse X_hat = (Y - x*N) / ((gamma-1)*x).

    Uses the fact that every column of the transition matrix sums to 1, so
    sum(Y) = N. For the randomized mechanism the expectation matrix equals
    the base matrix and the same inverse applies.
    """
    y = np.asarray(Y, dtype=float)
    if len(y) != spec.n:
        raise ValueError(f"expected length {spec.n}, got {len(y)}")
    total = y.sum()
    x_hat = (y - spec.x * total) / ((spec.gamma - 1) * spec.x)
    return FrequencyVector(x_hat, observed=False)


def subset_matrix(spec: SubsetMarginalSpec) -> MaterializedMatrix:
    """Dense form of the subset marginal transition matrix."""
    entries = np.full((spec.n_Cs, spec.n_Cs), spec.off)
    np.fill_diagonal(entries, spec.diag)
    return MaterializedMatrix(entries)


def reconstruct_subset(perturbed_supports: FrequencyVector | np.ndarray,
                       spec: SubsetMarginalSpec) -> np.ndarray:
    """Closed-form inverse over a subset marginal, in relative-support units:
    s_hat = (s_V - (n_C/n_Cs)*x) / ((gamma-1)*x)."""
    s = np.asarray(perturbed_supports, dtype=float)
    if len(s) != spec.n_Cs:
        raise ValueError(f"expected length {spec.n_Cs}, got {len(s)}")
    if not abs(s.sum() - 1.0) <= _SUM_TOL:
        raise ValueError(f"relative supports must sum to 1, got {s.sum()!r}")
    return (s - spec.off) / ((spec.gamma - 1) * spec.x)


def reconstruct_with_matrix(Y: FrequencyVector | np.ndarray, matrix: MaterializedMatrix) -> np.ndarray:
    """General dense solve A @ X = Y; oracle for the closed forms."""
    y = np.asarray(Y, dtype=float)
    return np.linalg.solve(matrix.entries, y)


# ---------------------------------------------------------------------------
# MASK reconstruction
# ---------------------------------------------------------------------------

def mask_itemset_matrix(k: int, p: float) -> MaterializedMatrix:
    """Transition matrix between the 2^k on/off patterns of k boolean items:
    entry[v, u] = p^matches * (1-p)^(k-matches). Pattern bit j of the index
    is item j's presence flag; index 2^k - 1 is the all-present cell."""
    if not 1 <= k <= 20:
        raise ValueError(f"itemset width must lie in [1, 20], got {k}")
    if not 0 < p < 1:
        raise ValueError(f"retention probability must lie in (0, 1), got {p}")
    idx = np.arange(1 << k, dtype=np.uint32)
    mismatches = np.bitwise_count(idx[:, None] ^ idx[None, :]).astype(float)
    return MaterializedMatrix(p ** (k - mismatches) * (1 - p) ** mismatches)


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
    estimate = np.linalg.solve(matrix.entries, counts / total)
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

    counts = cut_paste_class_counts(bits, positions)
    total = counts.sum()
    if total <= 0:
        raise ValueError("class counts are empty")
    matrix = cut_paste_class_matrix(spec, len(positions))
    return np.linalg.solve(matrix, counts / total)


# ---------------------------------------------------------------------------
# variance diagnostics
# ---------------------------------------------------------------------------

def poisson_binomial_variance(values: np.ndarray, d, o, n: int) -> np.ndarray:
    """Var(Y_v) when record i lands on v with probability d_i (if its
    original value is v) or o_i (otherwise), independently across records:
    Var(Y_v) = sum_i p_v^i (1 - p_v^i)."""
    values = np.asarray(values)
    d = np.broadcast_to(np.asarray(d, dtype=float), values.shape)
    o = np.broadcast_to(np.asarray(o, dtype=float), values.shape)
    diag_term = np.bincount(values, weights=d * (1 - d), minlength=n)
    off_total = float((o * (1 - o)).sum())
    off_term = off_total - np.bincount(values, weights=o * (1 - o), minlength=n)
    return diag_term + off_term


def variance_diagnostic(
    spec: GammaDiagonalSpec | RandomizedGammaSpec,
    X: np.ndarray | None = None,
    *,
    values: np.ndarray | None = None,
    client_d: np.ndarray | None = None,
    client_o: np.ndarray | None = None,
) -> VarianceDiagnostic:
    """Perturbation-noise diagnostic.

    Deterministic spec: pass the true counts X. Randomized spec: pass the
    original record values plus the realized per-client (d, o) draws; the
    report then separates sampling noise from the realized-matrix bias
    norm ||(A_bar - A) X||.
    """
    if isinstance(spec, RandomizedGammaSpec):
        if values is None or client_d is None or client_o is None:
            raise ValueError("randomized diagnostic needs values, client_d, client_o")
        base = spec.base
        variances = poisson_binomial_variance(values, client_d, client_o, base.n)
        X_counts = np.bincount(values, minlength=base.n).astype(float)
        N = float(len(values))
        expected = base.off * N + (base.diag - base.off) * X_counts
        realized = (
            np.bincount(values, weights=client_d, minlength=base.n)
            + float(client_o.sum()) - np.bincount(values, weights=client_o, minlength=base.n)
        )
        bias_norm = float(np.linalg.norm(realized - expected))
        cond = base.condition_number()
    else:
        if X is None:
            raise ValueError("deterministic diagnostic needs the counts vector X")
        X_counts = np.asarray(X, dtype=float)
        if len(X_counts) != spec.n:
            raise ValueError(f"expected length {spec.n}, got {len(X_counts)}")
        N = float(X_counts.sum())
        variances = X_counts * spec.diag * (1 - spec.diag) + (N - X_counts) * spec.off * (1 - spec.off)
        expected = spec.off * N + (spec.diag - spec.off) * X_counts
        bias_norm = None
        cond = spec.condition_number()
    sampling_norm = float(np.sqrt(variances.sum()))
    denom = float(np.linalg.norm(expected))
    bound = cond * sampling_norm / denom if denom > 0 else math.inf
    return VarianceDiagnostic(
        variances=variances,
        condition_number=cond,
        expected_error_bound=bound,
        sampling_norm=sampling_norm,
        bias_norm=bias_norm,
    )


def error_amplification_bound(condition: float, Y: np.ndarray, expected_Y: np.ndarray) -> float:
    """Upper bound on the relative reconstruction error:
    ||X_hat - X|| / ||X|| <= c(A) * ||Y - E(Y)|| / ||E(Y)||."""
    expected_Y = np.asarray(expected_Y, dtype=float)
    denom = float(np.linalg.norm(expected_Y))
    if denom == 0:
        return math.inf
    return condition * float(np.linalg.norm(np.asarray(Y, float) - expected_Y)) / denom
