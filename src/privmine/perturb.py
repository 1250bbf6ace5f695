"""Perturbation mechanisms: matrix specifications and record samplers.

Every mechanism is described by a column-stochastic transition matrix A with
A[v, u] = p(original u -> perturbed v). The gamma-diagonal family never
materializes A: a dependent per-attribute chain sampler draws from the exact
column distribution in O(sum of attribute sizes) work per record. MASK and
cut-and-paste operate on the boolean expansion of records.

Randomness contract: record i of a dataset-level operation draws from numpy's
PCG64 seeded by SeedSequence(seed, spawn_key=(i,)), so its output depends
only on (seed, i): results are reproducible and independent of record order.
``record_rng`` is the scalar definition of that stream. Each mechanism takes
a fixed number of ``random()`` doubles from it: det-gd M (one per attribute
for the chain sampler); ran-gd 1 + M (the client's shift r, then the chain);
MASK M_b (one flip test per bit); cut-and-paste 1 + M_b + M (the cut count,
one fresh-bit test per bit, one rank per original item). The dataset
functions derive every record's PCG64 state and increment in bulk as two
uint64 arrays, the high and the low 64-bit half (``_record_states``), step
them one block of records at a time (``_uniform_blocks``) and produce the
same bytes as the scalar samplers. numpy's SeedSequence mixes the seed's
words; the bulk path hashes only the index word, for all records at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .schema import BooleanDataset, Dataset, Record, Schema


# ---------------------------------------------------------------------------
# mechanism specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaDiagonalSpec:
    """Perturbation matrix with gamma*x on the diagonal and x elsewhere,
    x = 1/(gamma + n - 1). Column-stochastic by construction; the ratio of
    any two entries in a row is exactly gamma."""

    gamma: float
    schema: Schema

    def __post_init__(self) -> None:
        if not 1 < self.gamma < math.inf:
            raise ValueError(f"gamma must be a finite number > 1, got {self.gamma}")

    @property
    def n(self) -> int:
        return self.schema.domain_size

    @property
    def x(self) -> float:
        return 1.0 / (self.gamma + self.n - 1)

    @property
    def diag(self) -> float:
        return self.gamma * self.x

    @property
    def off(self) -> float:
        return self.x

    def condition_number(self, length: int = 1) -> float:
        """Closed form 1 + n/(gamma - 1) = (gamma + n - 1)/(gamma - 1); every
        subset marginal has it too, so it is the same at every itemset length."""
        return (self.gamma + self.n - 1) / (self.gamma - 1)


@dataclass(frozen=True)
class RandomizedGammaSpec:
    """Gamma-diagonal mechanism where each client privately shifts the
    diagonal by r ~ Uniform[-alpha, alpha], off-diagonal by -r/(n-1), keeping
    every realized matrix column-stochastic with expectation equal to the
    base matrix."""

    base: GammaDiagonalSpec
    alpha: float

    def __post_init__(self) -> None:
        lim = self.max_alpha(self.base)
        if not 0 <= self.alpha <= lim + 1e-15:
            raise ValueError(f"alpha must lie in [0, {lim:.6g}], got {self.alpha}")

    @staticmethod
    def max_alpha(base: GammaDiagonalSpec) -> float:
        # keeps both d = gamma*x + r and o = x - r/(n-1) nonnegative
        return min(base.gamma * base.x, (base.n - 1) * base.x)

    @classmethod
    def from_fraction(cls, base: GammaDiagonalSpec, alpha_fraction: float) -> "RandomizedGammaSpec":
        """alpha expressed as a fraction of the diagonal entry gamma*x."""
        lim = min(1.0, (base.n - 1) / base.gamma)  # max_alpha as a fraction
        if not 0 <= alpha_fraction <= lim:
            raise ValueError(f"alpha fraction must lie in [0, {lim:.6g}], "
                             f"got {alpha_fraction:.12g}")
        return cls(base, alpha_fraction * base.gamma * base.x)

    @property
    def realized_ratio_bound(self) -> float:
        """Largest d/o ratio any client's realized matrix can exhibit."""
        base = self.base
        return (base.gamma * base.x + self.alpha) / (base.x - self.alpha / (base.n - 1))

    def condition_number(self, length: int = 1) -> float:
        """The base's: the miner reconstructs with the expected matrix."""
        return self.base.condition_number(length)


@dataclass(frozen=True)
class MaskSpec:
    """Independent bit flips over the boolean expansion: each of the M_b bits
    is retained with probability p, flipped with 1-p."""

    p: float
    schema: Schema

    def __post_init__(self) -> None:
        if not 0.5 <= self.p < 1:
            raise ValueError(f"retention probability must lie in [0.5, 1), got {self.p}")

    @property
    def M_b(self) -> int:
        return self.schema.boolean_width

    def condition_number(self, length: int) -> float:
        """(2p - 1)^-length, the length-fold Kronecker power's; infinite at p = 0.5."""
        try:
            return (2 * self.p - 1) ** -length
        except (ZeroDivisionError, OverflowError):  # p = 0.5, or within ulps of it
            return math.inf


@dataclass(frozen=True)
class CutPasteSpec:
    """Cut-and-paste operator: keep j original items with j drawn uniformly
    from {0..K} (K <= M), then add every other universe item independently
    with probability rho_cp."""

    K: int
    rho_cp: float
    schema: Schema

    def __post_init__(self) -> None:
        if not 0 <= self.K <= self.M:
            raise ValueError(f"K must lie in [0, {self.M}], got {self.K}")
        if not 0 <= self.rho_cp <= 1:
            raise ValueError(f"rho_cp must lie in [0, 1], got {self.rho_cp}")

    @property
    def M(self) -> int:
        return self.schema.n_attributes

    @property
    def M_b(self) -> int:
        return self.schema.boolean_width

    def condition_number(self, length: int) -> float:
        """The overlap-class matrix's at this itemset length (``length`` <= M)."""
        # a module-global lookup at call time, so a wrapper put on this
        # module's binding (perfbench's tracer) sees the call
        return condition_number(cut_paste_class_matrix(self, length))


# ---------------------------------------------------------------------------
# per-record random streams
# ---------------------------------------------------------------------------

def record_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for one record, order-independent."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# numpy's SeedSequence hash constants; PCG64's multiplier as halves MH, ML
_M32 = 0xFFFFFFFF
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_MH, _ML = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_ML1, _ML0 = np.uint64(0x4385DF64), np.uint64(0x9FCCF645)  # ML's 32-bit halves
_U32, _S1, _S11, _S32, _S58, _S63 = map(np.uint64, (_M32, 1, 11, 32, 58, 63))
_BLOCK = 4096  # records per bulk derivation; bounds the per-block temporaries


def _hashmix(value, const: list[int], mult: int):
    """SeedSequence's hashmix on 32-bit words (mult _SS_MULT_A; generate_state
    mixes its output words the same way with _SS_MULT_B); advances const[0]."""
    value = value ^ const[0]
    const[0] = const[0] * mult & _M32
    value = value * const[0] & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    r = (_SS_MIX_L * x - _SS_MIX_R * y) & _M32
    return r ^ (r >> 16)


def _pcg_step(state: np.ndarray, inc: np.ndarray) -> None:
    """One PCG64 step in place, state = state * MULT + inc mod 2**128, on (2, n)
    uint64 (hi, lo) halves. lo * ML wraps in one multiply; only its high word,
    mulhi(lo, ML), goes through 32-bit parts (four products)."""
    hi, lo = state
    lo0, lo1 = lo & _U32, lo >> _S32
    t = lo1 * _ML0 + (lo0 * _ML0 >> _S32)
    w = lo0 * _ML1 + (t & _U32)
    hi *= _ML
    hi += lo * _MH + lo1 * _ML1 + (t >> _S32) + (w >> _S32) + inc[0]
    lo *= _ML
    lo += inc[1]
    hi += lo < inc[1]  # carry out of the low half


def _record_states(seed: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 ``(state, inc)`` that ``record_rng(seed, i)`` starts from, for
    i in [start, stop): two (2, stop - start) uint64 arrays, rows (hi, lo).

    numpy's ``SeedSequence(seed)`` mixes the seed's 32-bit words into its
    pool, making four hashmix calls per word (at least 16, as the words are
    zero-padded to four); the bulk path hashes only the index word, from that
    hash constant on. generate_state yields four uint64 words g; PCG64's
    srandom takes initstate = g0 << 64 | g1 and inc = (g2 << 64 | g3) << 1 | 1,
    steps once from state 0 (giving inc), adds initstate with a carry between
    the halves and steps once more.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(f"record indices must lie in [0, 2**32), got [{start}, {stop})")
    n_words = max(4, -(-seed.bit_length() // 32))
    const = [_SS_INIT_A * pow(_SS_MULT_A, 4 * n_words, 1 << 32) & _M32]
    index = np.arange(start, stop, dtype=np.uint64)
    pool = [_mix(p, _hashmix(index, const, _SS_MULT_A))
            for p in np.random.SeedSequence(seed).pool.tolist()]
    const = [_SS_INIT_B]
    v = np.stack([_hashmix(pool[k % 4], const, _SS_MULT_B) for k in range(8)])
    g = v[::2] | v[1::2] << _S32  # generate_state(4, uint64) from its 32-bit words
    inc = g[2:] << _S1
    inc[0] |= g[3] >> _S63
    inc[1] |= _S1
    state = g[:2] + inc
    state[0] += state[1] < inc[1]
    _pcg_step(state, inc)
    return state, inc


def _uniform_blocks(seed: int, n_records: int, width: int):
    """(rows, uniforms) for consecutive blocks of at most _BLOCK records;
    uniforms[r] equals record_rng(seed, rows.start + r).random(width). It is
    the transposed view of a (width, n) array filled one draw (row) at a time."""
    for start in range(0, n_records, _BLOCK):
        stop = min(start + _BLOCK, n_records)
        state, inc = _record_states(seed, start, stop)
        hi, lo = state
        x, rot, y = np.empty((3, stop - start), dtype=np.uint64)
        draws = np.empty((width, stop - start))
        for k in range(width):
            _pcg_step(state, inc)
            np.bitwise_xor(hi, lo, out=x)  # XSL-RR: hi ^ lo rotated right by hi >> 58
            np.right_shift(hi, _S58, out=rot)
            np.right_shift(x, rot, out=y)
            np.negative(rot, out=rot)
            rot &= _S63
            x <<= rot
            x |= y
            x >>= _S11  # random(): the top 53 bits times 2**-53
            np.multiply(x, 2.0 ** -53, out=draws[k])
        yield slice(start, stop), draws.T


# ---------------------------------------------------------------------------
# gamma-diagonal family
# ---------------------------------------------------------------------------

def draw_client_params(spec: RandomizedGammaSpec, rng: np.random.Generator) -> tuple[float, float]:
    """One client's (diagonal, off-diagonal) pair: d = gamma*x + r,
    o = x - r/(n-1), r ~ Uniform[-alpha, alpha]. Satisfies d + (n-1)o = 1."""
    base = spec.base
    r = spec.alpha * (2.0 * rng.random() - 1.0)
    return base.gamma * base.x + r, base.x - r / (base.n - 1)


def _check_chain_params(d: float, o: float, n: int) -> None:
    if not (d > 0 and o > 0):
        raise ValueError(f"need positive chain parameters, got d={d}, o={o}")
    if abs(d + (n - 1) * o - 1.0) > 1e-9:
        raise ValueError(f"chain parameters must satisfy d + (n-1)*o = 1, got {d + (n - 1) * o}")


def perturb_chain(
    record: Record, d: float, o: float, schema: Schema, rng: np.random.Generator
) -> Record:
    """Sample a perturbed record whose full-domain distribution is exactly the
    gamma-diagonal column: probability d of reproducing the input, o for each
    other domain value.

    Attribute j's value is drawn conditioned on the already-perturbed values
    of attributes 1..j-1. While every previous attribute still matches the
    original, the original value keeps elevated odds; after the first
    mismatch the remaining attributes are uniform. One uniform draw is
    consumed per attribute.
    """
    n = schema.domain_size
    _check_chain_params(d, o, n)
    values = schema.validate_record(record)
    D = d - o
    out = []
    matched = True
    m_prev = n  # domain cells per realized prefix, n_M / n_{j-1}
    for j, s in enumerate(schema.sizes):
        m_j = m_prev // s
        u = rng.random()
        if matched:
            p_keep = (D + m_j * o) / (D + m_prev * o)
            if u < p_keep:
                v = values[j]
            else:
                # remaining mass is uniform over the other s-1 values
                t = int((u - p_keep) / (1.0 - p_keep) * (s - 1))
                t = min(t, s - 2)
                v = t + (1 if t >= values[j] else 0)
                matched = False
        else:
            v = min(int(u * s), s - 1)
        out.append(v)
        m_prev = m_j
    return tuple(out)


def chain_column(record: Record, d: float, o: float, schema: Schema) -> np.ndarray:
    """Analytic output distribution of perturb_chain for one input record,
    computed by multiplying the per-attribute conditional probabilities the
    sampler uses (not by shortcutting to the known column form): keep
    factors before a cell's first mismatching attribute j, the switch factor
    at j and 1/s after it make table[j]; table[M] is the record's own cell."""
    n = schema.domain_size
    _check_chain_params(d, o, n)
    values = schema.validate_record(record)
    D = d - o
    table, prefix = [], 1.0  # prefix: product of keep factors so far
    for j, radix in enumerate(schema.radix_prefix[1:]):
        m_prev, m_j = n // schema.radix_prefix[j], n // radix
        keep_p = (D + m_j * o) / (D + m_prev * o)
        switch_p = (m_j * o) / (D + m_prev * o)  # (1 - keep_p)/(s - 1)
        table.append(math.prod([prefix * switch_p] + [1.0 / s for s in schema.sizes[j + 1:]]))
        prefix *= keep_p
    table.append(prefix)
    probs = np.full(n, table[0])
    residue = 0  # flat index of the record's first j + 1 digits
    for j, (v, radix) in enumerate(zip(values, schema.radix_prefix)):
        residue += v * radix
        probs.reshape(-1, schema.radix_prefix[j + 1])[:, residue] = table[j + 1]
    return probs


def _chain_bulk(codes: np.ndarray, uniforms: np.ndarray, d: np.ndarray | float,
                o: np.ndarray | float, schema: Schema) -> np.ndarray:
    """Vectorized chain sampler; row i uses uniforms[i] and (d, o), either
    shared floats or per-row arrays. Arithmetic mirrors perturb_chain exactly."""
    out = np.empty_like(codes)
    D = d - o
    matched = np.ones(len(codes), dtype=bool)
    m_prev = schema.domain_size
    for j, s in enumerate(schema.sizes):
        m_j = m_prev // s
        u = uniforms[:, j]
        p_keep = (D + m_j * o) / (D + m_prev * o)
        keep = matched & (u < p_keep)
        # rows whose p_keep rounds to 1 keep their value (t = 0, unused); the
        # float is clipped before the cast, which then cannot overflow
        t = np.divide(u - p_keep, 1.0 - p_keep, out=np.zeros_like(u), where=p_keep < 1)
        t = np.clip(t * (s - 1), 0, s - 2).astype(np.int64)
        switched = t + (t >= codes[:, j])
        fresh = np.minimum((u * s).astype(np.int64), s - 1)
        out[:, j] = np.where(matched, np.where(keep, codes[:, j], switched), fresh)
        matched = keep
        m_prev = m_j
    return out


def perturb_dataset(
    dataset: Dataset,
    spec: GammaDiagonalSpec | RandomizedGammaSpec,
    seed: int,
) -> Dataset:
    """Perturb every record through the gamma-diagonal family.

    Record i's stream supplies, in order: the client's r draw (randomized
    spec only), then one uniform per attribute for the chain sampler.
    """
    randomized = isinstance(spec, RandomizedGammaSpec)
    base = spec.base if randomized else spec
    if base.schema is not dataset.schema and base.schema != dataset.schema:
        raise ValueError("mechanism schema does not match dataset schema")
    out = np.empty_like(dataset.codes)
    width = dataset.schema.n_attributes + randomized
    d, o = base.diag, base.off
    for rows, uniforms in _uniform_blocks(seed, dataset.n_records, width):
        if randomized:
            r = spec.alpha * (2.0 * uniforms[:, 0] - 1.0)
            d, o = base.gamma * base.x + r, base.x - r / (base.n - 1)
        out[rows] = _chain_bulk(dataset.codes[rows], uniforms[:, randomized:], d, o,
                                dataset.schema)
    label = (f"ran-gd(gamma={base.gamma:g}, alpha={spec.alpha:g}, seed={seed})" if randomized
             else f"det-gd(gamma={base.gamma:g}, seed={seed})")
    return Dataset(dataset.schema, out, provenance=label)


# ---------------------------------------------------------------------------
# MASK
# ---------------------------------------------------------------------------

def mask_expand(record: Record, schema: Schema) -> np.ndarray:
    """One-bit-per-category boolean expansion: exactly M ones."""
    values = schema.validate_record(record)
    bits = np.zeros(schema.boolean_width, dtype=bool)
    for off, v in zip(schema.boolean_offsets, values):
        bits[off + v] = True
    return bits


def mask_expand_many(codes: np.ndarray, schema: Schema) -> np.ndarray:
    bits = np.zeros((len(codes), schema.boolean_width), dtype=bool)
    offsets = np.asarray(schema.boolean_offsets)
    bits[np.arange(len(codes))[:, None], offsets + codes] = True
    return bits


def mask_perturb(bits: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Retain each bit with probability p, flip with 1-p. p=1 is the identity."""
    if not 0 < p <= 1:
        raise ValueError(f"retention probability must lie in (0, 1], got {p}")
    return bits ^ (rng.random(len(bits)) >= p)


def mask_dataset(dataset: Dataset, spec: MaskSpec, seed: int) -> BooleanDataset:
    """Expand every record to its boolean form and flip bits independently."""
    out = np.empty((dataset.n_records, spec.M_b), dtype=bool)
    for rows, uniforms in _uniform_blocks(seed, dataset.n_records, spec.M_b):
        out[rows] = mask_expand_many(dataset.codes[rows], dataset.schema) ^ (uniforms >= spec.p)
    return BooleanDataset(dataset.schema, out, provenance=f"mask(p={spec.p:g}, seed={seed})")


def mask_p_for_gamma(gamma: float, M: int) -> float:
    """Smallest retention probability meeting the gamma ratio bound for
    records with exactly M ones: solves (p/(1-p))^(2M) = gamma."""
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    t = gamma ** (1.0 / (2 * M))
    return t / (1.0 + t)


# ---------------------------------------------------------------------------
# cut-and-paste
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def cut_paste_class_matrix(spec: CutPasteSpec, window: int) -> np.ndarray:
    """Transition matrix between overlap classes of a ``window``-bit itemset:
    entry [l_v, l_u] is the probability that a record carrying l_u of the
    window's bits is perturbed into one carrying l_v of them.

    Square (window+1) x (window+1); requires window <= M so that every
    overlap count 0..window is realizable by a valid record. Cached per
    (spec, window), so the array is read-only.
    """
    M, M_b, rho = spec.M, spec.M_b, spec.rho_cp
    if not 1 <= window <= M:
        raise ValueError(f"window must lie in [1, {M}], got {window}")
    share = 1.0 / (spec.K + 1)  # each count w = j ~ U{0..K} of items kept (K <= M)
    # p_M[z]: total original items surviving into the output
    p_z = np.zeros(M + 1)
    for z in range(M + 1):
        for w in range(min(spec.K, z) + 1):
            p_z[z] += share * math.comb(M - w, z - w) * rho ** (z - w) * (1 - rho) ** (M - z)
    out = np.zeros((window + 1, window + 1))
    for l_u in range(window + 1):
        for l_vv in range(window + 1):
            acc = 0.0
            for z in range(M + 1):
                q_lo = max(0, z + l_u - M, l_u + l_vv - window)
                q_hi = min(z, l_u, l_vv)
                for q in range(q_lo, q_hi + 1):
                    hyp = math.comb(l_u, q) * math.comb(M - l_u, z - q) / math.comb(M, z)
                    acc += (
                        p_z[z] * hyp * math.comb(window - l_u, l_vv - q)
                        * rho ** (l_vv - q) * (1 - rho) ** (window - l_u - l_vv + q)
                    )
            out[l_vv, l_u] = acc
    if (out < 0).any():
        raise ValueError("cut-and-paste parameters produced a negative probability")
    sums = out.sum(axis=0)
    if np.abs(sums - 1.0).max() > 1e-8:
        raise ValueError("cut-and-paste class matrix columns do not sum to 1")
    out.setflags(write=False)
    return out


def cut_paste_perturb(bits: np.ndarray, spec: CutPasteSpec, rng: np.random.Generator) -> np.ndarray:
    """Direct simulation of the operator on one boolean record with M ones.
    Draws u = rng.random(1 + M_b + M): j = min(floor(u[0]*(K+1)), K), fresh
    bits u[1:1+M_b] < rho_cp, and u[1+M_b:] ranks the record's ones in bit
    order; the w = min(j, M) lowest-ranked are kept. A stable argsort breaks
    ties (probability about M**2 * 2**-53) toward the lower bit position."""
    K, M, M_b = spec.K, spec.M, spec.M_b
    ones = np.flatnonzero(bits)
    if len(bits) != M_b or len(ones) != M:
        raise ValueError(f"need {M_b} bits with {M} ones, got {len(bits)} with {len(ones)}")
    u = rng.random(1 + M_b + M)
    w = min(int(u[0] * (K + 1)), K)  # j; the spec keeps K <= M, so min(j, M) = j
    out = u[1:1 + M_b] < spec.rho_cp
    out[ones[np.argsort(u[1 + M_b:], kind="stable")[:w]]] = True
    return out


def cut_paste_dataset(dataset: Dataset, spec: CutPasteSpec, seed: int) -> BooleanDataset:
    """Cut-and-paste every record; row i equals ``cut_paste_perturb`` on
    record i's expansion with ``record_rng(seed, i)``."""
    K, M_b = spec.K, spec.M_b
    offsets = np.asarray(dataset.schema.boolean_offsets)
    out = np.empty((dataset.n_records, M_b), dtype=bool)
    for rows, u in _uniform_blocks(seed, dataset.n_records, 1 + M_b + spec.M):
        w = np.minimum((u[:, 0] * (K + 1)).astype(np.int64), K)  # K <= M
        rank = np.argsort(np.argsort(u[:, 1 + M_b:], axis=1, kind="stable"), axis=1)
        block = out[rows]
        np.less(u[:, 1:1 + M_b], spec.rho_cp, out=block)
        ones = offsets + dataset.codes[rows]  # the record's ones, in bit order
        np.put_along_axis(block, ones, np.take_along_axis(block, ones, 1) | (rank < w[:, None]), 1)
    return BooleanDataset(dataset.schema, out,
                          provenance=f"cut-paste(K={spec.K}, rho={spec.rho_cp:g}, seed={seed})")


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def condition_number(matrix) -> float:
    """Ratio of extreme singular values of a square matrix (each spec has its
    own per-length ``condition_number``). Singular matrices report math.inf."""
    entries = np.asarray(matrix, float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("condition number needs a square matrix")
    if np.allclose(entries, entries.T, rtol=0.0, atol=1e-12):
        mags = np.abs(np.linalg.eigvalsh(entries))
    else:
        mags = np.linalg.svd(entries, compute_uv=False)
    largest, smallest = mags.max(), mags.min()
    if smallest == 0.0:
        return math.inf
    return float(largest / smallest)
