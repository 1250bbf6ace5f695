"""Perturbation mechanisms: matrix specifications and record samplers.

Every mechanism is described by a column-stochastic transition matrix A with
A[v, u] = p(original u -> perturbed v). The gamma-diagonal family never
materializes A: a dependent per-attribute chain sampler draws from the exact
column distribution in O(sum of attribute sizes) work per record. MASK and
cut-and-paste operate on the boolean expansion of records.

Each spec class states all that the CLI, the miner and ``perturb_tables``
ask about its mechanism, and ``MECHANISMS`` lists the classes: ``name`` (on
the command line and in metadata.json), ``table`` (the kind its clients send:
``Dataset`` labels or ``BooleanDataset`` bits), ``keys`` (metadata.json keys
beyond gamma and their JSON types; ``float`` takes any number), ``options``
and ``from_metadata`` (those keys from the CLI options, and the spec from
them; ``base`` is the gamma-diagonal spec of the run's gamma and schema),
``label`` (for mining results), ``condition_number`` and ``class_weights``
(the miner's inverse), ``draws`` and ``sample`` (uniform draws per record,
and the block sampler). A new mechanism is one class and its tuple entry.

Randomness contract: record i of a dataset-level operation draws from numpy's
PCG64 seeded by SeedSequence(seed, spawn_key=(i,)), so its output depends
only on (seed, i): results are reproducible and independent of record order.
``record_rng`` is the scalar definition of that stream. Each mechanism takes
``draws`` ``random()`` doubles from it: det-gd M (one per attribute
for the chain sampler); ran-gd 1 + M (the client's shift r, then the chain);
MASK M_b (one flip test per bit); cut-and-paste 1 + M_b + M (the cut count,
one fresh-bit test per bit, one rank per original item): a prefix of the
stream, so ``perturb_tables`` perturbs under several specs in one pass. It
derives every record's PCG64 state and increment in bulk as two uint64
arrays, high and low halves (``_record_states``), steps them one block at a
time to the most draws of its specs (``_uniform_blocks``) and gives the scalar
samplers' bytes. It hashes only the index word, for all records at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

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

    name = "det-gd"
    table = Dataset
    keys = {}

    def __post_init__(self) -> None:
        if not 1 < self.gamma < math.inf:
            raise ValueError(f"gamma must be a finite number > 1, got {self.gamma}")

    @classmethod
    def options(cls, base: GammaDiagonalSpec, args) -> dict:
        return {}

    @classmethod
    def from_metadata(cls, base: GammaDiagonalSpec, meta: dict) -> GammaDiagonalSpec:
        return base

    @property
    def label(self) -> str:
        return f"gamma-diagonal(gamma={self.gamma:g})"

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

    def class_weights(self, k: int, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """c(I) alone (N_k), less its subset marginal's (n // cells)·x, over (gamma - 1)·x."""
        return np.eye(k + 1)[k], (self.n // cells) * self.x, (self.gamma - 1) * self.x

    @property
    def draws(self) -> int:
        return self.schema.n_attributes

    def sample(self, codes: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _chain_bulk(codes, u, self.diag, self.off, self.schema)


@dataclass(frozen=True)
class RandomizedGammaSpec:
    """Gamma-diagonal mechanism where each client privately shifts the
    diagonal by r ~ Uniform[-alpha, alpha], off-diagonal by -r/(n-1), keeping
    every realized matrix column-stochastic with expectation equal to the
    base matrix. The miner inverts the base matrix: this spec gives its
    base's schema, condition number, class weights and label.

    Each client draws its r independently, and the chain sampler's output
    law is linear in (d, o), so a perturbed table has exactly the base's
    distribution: ran-gd and det-gd estimates differ only by sampling noise."""

    base: GammaDiagonalSpec
    alpha: float

    name = "ran-gd"
    table = Dataset
    keys = {"alpha": float}

    def __post_init__(self) -> None:
        lim = self.max_alpha(self.base)
        if not 0 <= self.alpha <= lim + 1e-15:
            raise ValueError(f"alpha must lie in [0, {lim:.6g}], got {self.alpha}")

    @classmethod
    def options(cls, base: GammaDiagonalSpec, args) -> dict:
        return {"alpha_fraction": args.alpha_frac,
                "alpha": cls.from_fraction(base, args.alpha_frac).alpha}

    @classmethod
    def from_metadata(cls, base: GammaDiagonalSpec, meta: dict) -> RandomizedGammaSpec:
        return cls(base, meta["alpha"])

    @property
    def schema(self) -> Schema:
        return self.base.schema

    @property
    def label(self) -> str:
        return self.base.label

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

    def condition_number(self, length: int = 1) -> float:
        return self.base.condition_number(length)

    def class_weights(self, k: int, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        return self.base.class_weights(k, cells)

    @property
    def draws(self) -> int:
        return 1 + self.base.draws

    def sample(self, codes: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Draw 0 is the client's r, the rest the chain's."""
        base = self.base
        r = self.alpha * (2.0 * u[:, 0] - 1.0)
        return _chain_bulk(codes, u[:, 1:], base.gamma * base.x + r, base.x - r / (base.n - 1),
                           base.schema)


@dataclass(frozen=True)
class MaskSpec:
    """Independent bit flips over the boolean expansion: each of the M_b bits
    is retained with probability p, flipped with 1-p."""

    p: float
    schema: Schema

    name = "mask"
    table = BooleanDataset
    keys = {"mask_p": float}

    def __post_init__(self) -> None:
        if not 0.5 <= self.p < 1:
            raise ValueError(f"retention probability must lie in [0.5, 1), got {self.p}")

    @classmethod
    def options(cls, base: GammaDiagonalSpec, args) -> dict:
        """--mask-p, else the least p that meets the gamma bound."""
        p = args.mask_p
        return {"mask_p": mask_p_for_gamma(base.gamma, base.schema.n_attributes)
                if p is None else p}

    @classmethod
    def from_metadata(cls, base: GammaDiagonalSpec, meta: dict) -> MaskSpec:
        return cls(meta["mask_p"], base.schema)

    @property
    def label(self) -> str:
        return f"mask(p={self.p:g})"

    @property
    def M_b(self) -> int:
        return self.schema.boolean_width

    def condition_number(self, length: int) -> float:
        """(2p - 1)^-length, the length-fold Kronecker power's; infinite at p = 0.5."""
        try:
            return (2 * self.p - 1) ** -length
        except (ZeroDivisionError, OverflowError):  # p = 0.5, or within ulps of it
            return math.inf

    def class_weights(self, k: int, cells: np.ndarray) -> tuple[np.ndarray, float, float]:
        """The inverse Kronecker power's all-present row: a record carrying l of
        the k bits weighs p^l (p - 1)^(k - l), over (2p - 1)^k."""
        l = np.arange(k + 1)
        return self.p ** l * (self.p - 1) ** (k - l), 0.0, (2 * self.p - 1) ** k

    @property
    def draws(self) -> int:
        return self.M_b

    def sample(self, codes: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Draw j flips bit j when it is p or more."""
        return mask_expand_many(codes, self.schema) ^ (u >= self.p)


@dataclass(frozen=True)
class CutPasteSpec:
    """Cut-and-paste operator: keep j original items with j drawn uniformly
    from {0..K} (K <= M), then add every other universe item independently
    with probability rho_cp."""

    K: int
    rho_cp: float
    schema: Schema

    name = "cut-paste"
    table = BooleanDataset
    keys = {"cp_k": int, "cp_rho": float}

    def __post_init__(self) -> None:
        if not 0 <= self.K <= self.M:
            raise ValueError(f"K must lie in [0, {self.M}], got {self.K}")
        if not 0 <= self.rho_cp <= 1:
            raise ValueError(f"rho_cp must lie in [0, 1], got {self.rho_cp}")

    @classmethod
    def options(cls, base: GammaDiagonalSpec, args) -> dict:
        return {"cp_k": args.cp_k, "cp_rho": args.cp_rho}

    @classmethod
    def from_metadata(cls, base: GammaDiagonalSpec, meta: dict) -> CutPasteSpec:
        return cls(meta["cp_k"], meta["cp_rho"], base.schema)

    @property
    def label(self) -> str:
        return f"cut-paste(K={self.K}, rho={self.rho_cp:g})"

    @property
    def M(self) -> int:
        return self.schema.n_attributes

    @property
    def M_b(self) -> int:
        return self.schema.boolean_width

    def condition_number(self, length: int) -> float:
        """The overlap-class matrix ``paste @ cut``'s at this itemset length
        (``length`` <= M). Past K, cut keeps at most K of the window's bits,
        so the matrix has rank at most K + 1 < length + 1: math.inf, and no
        matrix is built."""
        if length > self.K:
            return math.inf
        # a module-global lookup at call time, so a wrapper put on this
        # module's binding (perfbench's tracer) sees the call
        return condition_number(cut_paste_class_matrix(self, length))

    def class_weights(self, k: int, cells: np.ndarray) -> tuple[np.ndarray, float, float]:
        """The inverse overlap-class matrix's last row, entry l for a record with l of k bits."""
        return np.linalg.solve(cut_paste_class_matrix(self, k).T, np.eye(k + 1)[k]), 0.0, 1.0

    @property
    def draws(self) -> int:
        return 1 + self.M_b + self.M

    def sample(self, codes: np.ndarray, u: np.ndarray) -> np.ndarray:
        """As ``cut_paste_perturb``: draw 0 gives the cut count j, draws 1..M_b
        the fresh bits, the last M rank the record's ones."""
        K, M_b = self.K, self.M_b
        w = np.minimum((u[:, 0] * (K + 1)).astype(np.int64), K)  # K <= M
        rank = np.argsort(np.argsort(u[:, 1 + M_b:], axis=1, kind="stable"), axis=1)
        block = u[:, 1:1 + M_b] < self.rho_cp
        ones = np.asarray(self.schema.boolean_offsets) + codes  # the record's ones, in bit order
        kept = np.take_along_axis(block, ones, 1) | (rank < w[:, None])
        np.put_along_axis(block, ones, kept, 1)
        return block


MECHANISMS = (GammaDiagonalSpec, RandomizedGammaSpec, MaskSpec, CutPasteSpec)


# ---------------------------------------------------------------------------
# per-record random streams, and one pass over them for several specs
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


def perturb_tables(dataset: Dataset, specs, seed: int) -> list[Dataset | BooleanDataset]:
    """``dataset`` perturbed under each spec with ``seed`` in one pass: table k
    is byte-equal to perturbing under ``specs[k]`` alone. Each block draws its
    streams once, to the most ``draws``; every spec's schema must be the table's."""
    schema, codes = dataset.schema, dataset.codes
    outs = []
    for spec in specs:
        if spec.schema is not schema and spec.schema != schema:
            raise ValueError("mechanism schema does not match dataset schema")
        empty = spec.sample(codes[:0], np.empty((0, spec.draws)))  # the row width and dtype
        outs.append(np.empty((dataset.n_records, *empty.shape[1:]), empty.dtype))
    for rows, u in _uniform_blocks(seed, dataset.n_records, max(spec.draws for spec in specs)):
        for spec, out in zip(specs, outs):
            out[rows] = spec.sample(codes[rows], u[:, :spec.draws])
    return [spec.table(schema, out) for spec, out in zip(specs, outs)]


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


def perturb_dataset(dataset: Dataset, spec: GammaDiagonalSpec | RandomizedGammaSpec,
                    seed: int) -> Dataset:
    """Perturb every record through the gamma-diagonal family: record i's stream
    supplies the client's r draw (randomized spec only), then the chain's."""
    return perturb_tables(dataset, [spec], seed)[0]


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
    return perturb_tables(dataset, [spec], seed)[0]


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

def cut_paste_class_matrix(spec: CutPasteSpec, window: int) -> np.ndarray:
    """Transition matrix between overlap classes of a ``window``-bit itemset:
    entry [l_v, l_u] is the probability that a record carrying l_u of the
    window's bits is perturbed into one carrying l_v of them.

    The operator's two steps, ``paste @ cut``: cut[q, l_u] keeps j ~ U{0..K}
    of the record's M items, q of them in the window (hypergeometric, so
    q <= min(j, l_u) <= K); paste[v, q] sets each other window bit with
    probability rho_cp. cut has no non-zero row past K, so the matrix has rank
    at most K + 1. Square (window+1) x (window+1); requires window <= M so
    that every overlap count 0..window is realizable by a valid record.
    """
    M, K, rho = spec.M, spec.K, spec.rho_cp
    if not 1 <= window <= M:
        raise ValueError(f"window must lie in [1, {M}], got {window}")
    classes = range(window + 1)
    cut = np.array([[sum(math.comb(l_u, q) * math.comb(M - l_u, j - q) / math.comb(M, j)
                         for j in range(q, K + 1)) for l_u in classes] for q in classes])
    paste = np.array([[math.comb(window - q, v - q) * rho ** (v - q) * (1 - rho) ** (window - v)
                       if v >= q else 0.0 for q in classes] for v in classes])
    out = paste @ (cut / (K + 1))
    if (out < 0).any():
        raise ValueError("cut-and-paste parameters produced a negative probability")
    if np.abs(out.sum(axis=0) - 1.0).max() > 1e-8:
        raise ValueError("cut-and-paste class matrix columns do not sum to 1")
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
    return perturb_tables(dataset, [spec], seed)[0]


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def condition_number(matrix) -> float:
    """Ratio of extreme singular values of a square matrix (each spec has its
    own per-length ``condition_number``); math.inf when the smallest is at
    most largest * size * eps, where numpy's matrix_rank calls it singular."""
    entries = np.asarray(matrix, float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("condition number needs a square matrix")
    mags = np.linalg.svd(entries, compute_uv=False)
    largest, smallest = mags.max(), mags.min()
    if smallest <= largest * len(entries) * np.finfo(float).eps:
        return math.inf
    return float(largest / smallest)
