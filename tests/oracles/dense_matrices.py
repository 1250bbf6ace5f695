"""Dense transition matrices and the per-record inverse-CDF sampler.

A reference implementation that the tests import: the paper's mechanisms as
explicit column-stochastic matrices, feasible only for small domains, and a
sampler that draws one record from a matrix column. privmine itself never
materializes these matrices: the chain sampler, the bulk MASK and
cut-and-paste clients and the closed-form reconstructions stand in for them,
and the tests check them against these.
"""

import math
from dataclasses import dataclass

import numpy as np

from privmine.perturb import (
    CutPasteSpec,
    GammaDiagonalSpec,
    mask_expand_many,
)
from privmine.reconstruct import SubsetMarginalSpec
from privmine.schema import Record, Schema, decode_indices, encode

_ENTRY_TOL = 1e-10


@dataclass(frozen=True)
class MaterializedMatrix:
    """Dense column-stochastic transition matrix, |S_V| x |S_U|."""

    entries: np.ndarray
    col_labels: tuple[str, ...] | None = None
    row_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise ValueError("matrix entries must be 2-dimensional")
        if (entries < 0).any():
            raise ValueError("matrix entries must be nonnegative")
        deviation = np.abs(entries.sum(axis=0) - 1.0)
        if not (deviation <= _ENTRY_TOL).all():
            raise ValueError(
                f"columns must sum to 1 within {_ENTRY_TOL:g}; "
                f"worst deviation {deviation.max():.3e}"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def gd_entry(u: int, v: int, spec: GammaDiagonalSpec) -> float:
    """Transition probability p(u -> v): gamma*x on the diagonal, x off it."""
    n = spec.n
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"indices must lie in [0, {n})")
    return spec.diag if u == v else spec.off


def gd_matrix(spec: GammaDiagonalSpec, max_size: int = 4096) -> MaterializedMatrix:
    """Dense form of the gamma-diagonal matrix, for small domains."""
    n = spec.n
    if n > max_size:
        raise ValueError(f"refusing to materialize {n}x{n} matrix (max_size={max_size})")
    entries = np.full((n, n), spec.off)
    np.fill_diagonal(entries, spec.diag)
    return MaterializedMatrix(entries)


def chain_matrix(sizes: tuple[int, ...], d: float, o: float) -> MaterializedMatrix:
    """The chain sampler's whole transition matrix over the attribute
    ``sizes``, built from the per-attribute conditionals it samples with (not
    from the known column form). The sampler keeps attribute j with
    probability keep_j while the prefix still matches the input, switches to
    each other value with switch_j, and draws uniformly (1/s) after the first
    mismatch. Those factors do not depend on the input, so entry [v, c] is
    table[j] for the first attribute j where v and c differ: the keep factors
    before j, switch_j and 1/s after j. table[M] is the input's own cell."""
    radix = [1]  # radix[j]: cells per value of attribute j in the flat order
    for s in sizes:
        radix.append(radix[-1] * s)
    n, D = radix[-1], d - o
    table, prefix = [], 1.0  # prefix: product of keep factors so far
    for j in range(len(sizes)):
        m_prev, m_j = n // radix[j], n // radix[j + 1]
        keep_p = (D + m_j * o) / (D + m_prev * o)
        switch_p = (m_j * o) / (D + m_prev * o)  # (1 - keep_p)/(s - 1)
        table.append(math.prod([prefix * switch_p] + [1.0 / s for s in sizes[j + 1:]]))
        prefix *= keep_p
    table.append(prefix)
    # v and c share their first j attributes iff they agree modulo radix[j]
    flat = np.arange(n)
    first = sum((flat % r)[:, None] == (flat % r)[None, :] for r in radix[1:])
    return MaterializedMatrix(np.array(table)[first])


def subset_matrix(spec: SubsetMarginalSpec) -> MaterializedMatrix:
    """Dense form of the subset marginal transition matrix."""
    entries = np.full((spec.n_Cs, spec.n_Cs), spec.off)
    np.fill_diagonal(entries, spec.diag)
    return MaterializedMatrix(entries)


def perturb_generic(record: Record, matrix: MaterializedMatrix, rng: np.random.Generator,
                    schema: Schema | None = None) -> int:
    """Inverse-CDF sample from the matrix column of the given record.

    The record may be a flat column index or a categorical record (with
    ``schema`` supplied). Returns the flat index of the perturbed value;
    ground-truth oracle for the chain sampler.
    """
    if schema is not None:
        col = encode(record, schema)  # type: ignore[arg-type]
    else:
        col = int(record)  # type: ignore[arg-type]
    if not 0 <= col < matrix.shape[1]:
        raise ValueError(f"column {col} out of range")
    cdf = np.cumsum(matrix.entries[:, col])
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def mask_collapse(bits: np.ndarray, schema: Schema) -> Record | None:
    """Inverse of mask_expand; None if some block lacks exactly one set bit."""
    values = []
    for off, s in zip(schema.boolean_offsets, schema.sizes):
        block = np.flatnonzero(bits[off:off + s])
        if len(block) != 1:
            return None
        values.append(int(block[0]))
    return tuple(values)


def mask_matrix(M_b: int, p: float, max_width: int = 12) -> MaterializedMatrix:
    """Dense MASK transition matrix over the full boolean cube:
    entry[v, u] = p^matches * (1-p)^(M_b - matches)."""
    if M_b > max_width:
        raise ValueError(f"refusing to materialize 2^{M_b} cube (max_width={max_width})")
    idx = np.arange(1 << M_b, dtype=np.uint32)
    flips = np.bitwise_count(idx[:, None] ^ idx[None, :]).astype(float)
    return MaterializedMatrix(p ** (M_b - flips) * (1 - p) ** flips)


def cut_paste_entry(q: int, l_v: int, spec: CutPasteSpec) -> float:
    """Probability of one specific output vector with l_v ones, q of which
    coincide with the original record's M ones."""
    M, M_b, rho = spec.M, spec.M_b, spec.rho_cp
    if not (0 <= q <= min(l_v, M) and l_v - q <= M_b - M):
        raise ValueError(f"infeasible overlap: q={q}, l_v={l_v}")
    pmf = [0.0] * (min(spec.K, M) + 1)  # cut count w = min(j, M), j ~ U{0..K}
    for j in range(spec.K + 1):
        pmf[min(j, M)] += 1.0 / (spec.K + 1)
    total = 0.0
    for w in range(min(len(pmf) - 1, q) + 1):
        total += (
            pmf[w]
            * (math.comb(q, w) / math.comb(M, w))
            * rho ** (q - w) * (1 - rho) ** (M - q)
            * rho ** (l_v - q) * (1 - rho) ** (M_b - M - l_v + q)
        )
    if total < 0:
        raise ValueError("cut-and-paste parameters produced a negative probability")
    return total


def cut_paste_matrix(spec: CutPasteSpec, max_cells: int = 1 << 22) -> MaterializedMatrix:
    """Dense transition matrix: rows over the full boolean cube, one column
    per valid record of the schema. Feasible only for small widths."""
    schema = spec.schema
    n_rows, n_cols = 1 << spec.M_b, schema.domain_size
    if n_rows * n_cols > max_cells:
        raise ValueError(
            f"cut-and-paste matrix would need {n_rows}x{n_cols} entries; "
            f"use cut_paste_class_matrix for large widths"
        )
    records = decode_indices(np.arange(schema.domain_size), schema)
    u_ints = _bits_to_ints(mask_expand_many(records, schema))
    v_ints = np.arange(n_rows, dtype=np.uint64)
    l_v = np.bitwise_count(v_ints).astype(int)
    # entry depends on (q, l_v) only; evaluate each pair once
    table = np.full((spec.M + 1, spec.M_b + 1), np.nan)
    entries = np.empty((n_rows, n_cols))
    for c, u in enumerate(u_ints):
        q = np.bitwise_count(v_ints & u).astype(int)
        for qq, ll in set(zip(q.tolist(), l_v.tolist())):
            if np.isnan(table[qq, ll]):
                table[qq, ll] = cut_paste_entry(qq, ll, spec)
        entries[:, c] = table[q, l_v]
    labels = tuple(";".join(a.categories[v] for a, v in zip(schema.attributes, r))
                   for r in records)
    return MaterializedMatrix(entries, col_labels=labels)


def _bits_to_ints(bits: np.ndarray) -> np.ndarray:
    weights = (1 << np.arange(bits.shape[1], dtype=np.uint64))
    return bits.astype(np.uint64) @ weights
