"""Perturbation mechanisms: gamma-diagonal family, MASK, cut-and-paste."""

import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PROPERTIES, FixedUniformRng, gof_chisq, make_schema, two_sample_chisq
from oracles.cut_paste_classes import class_matrix
from oracles.dense_matrices import (
    _bits_to_ints,
    chain_matrix,
    cut_paste_entry,
    cut_paste_matrix,
    gd_entry,
    gd_matrix,
    MaterializedMatrix,
    mask_collapse,
    mask_matrix,
    perturb_generic,
)
from privmine import (
    CutPasteSpec,
    Dataset,
    GammaDiagonalSpec,
    MaskSpec,
    RandomizedGammaSpec,
    builtin_schema,
    condition_number,
    cut_paste_class_matrix,
    cut_paste_dataset,
    cut_paste_perturb,
    draw_client_params,
    encode,
    encode_rows,
    generate_synthetic,
    mask_dataset,
    mask_expand,
    mask_itemset_condition,
    mask_p_for_gamma,
    mask_perturb,
    perturb_chain,
    perturb_dataset,
    record_rng,
)
from privmine import perturb as perturb_module
from privmine.perturb import (
    _chain_bulk,
    _uniform_blocks,
    mask_expand_many,
    perturb_tables,
)
from privmine.schema import BLOCK_ROWS

CHI2_999_DF5 = 20.515006    # tests/oracles/critical_values_oracle.py
CHI2_999_DF19 = 43.820196
CHI2_999_DF63 = 103.442377


# ---------------------------------------------------------------------------
# gamma-diagonal entries and specs
# ---------------------------------------------------------------------------

def test_gd_entry_values():
    spec = GammaDiagonalSpec(gamma=19.0, schema=make_schema(4))
    assert gd_entry(2, 2, spec) == pytest.approx(19.0 / 22.0, abs=1e-15)
    assert gd_entry(2, 0, spec) == pytest.approx(1.0 / 22.0, abs=1e-15)
    with pytest.raises(ValueError):
        gd_entry(4, 0, spec)


def test_gd_matrix_structure():
    spec = GammaDiagonalSpec(gamma=19.0, schema=make_schema(2, 3))
    mat = gd_matrix(spec).entries
    assert mat.shape == (6, 6)
    assert np.allclose(np.diag(mat), 19.0 / 24.0, atol=1e-15)
    assert mat.sum(axis=0) == pytest.approx(np.ones(6), abs=1e-12)
    with pytest.raises(ValueError):
        gd_matrix(spec, max_size=5)


def test_gd_spec_validation():
    with pytest.raises(ValueError):
        GammaDiagonalSpec(gamma=1.0, schema=make_schema(4))
    with pytest.raises(ValueError):
        GammaDiagonalSpec(gamma=0.5, schema=make_schema(4))


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_gd_spec_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match=f"finite number > 1, got {gamma}"):
        GammaDiagonalSpec(gamma=gamma, schema=make_schema(4))


@pytest.mark.parametrize("fraction", [2, -0.5, math.nan])
def test_alpha_fraction_error_names_the_fraction(fraction):
    # n = 4 and gamma = 19: the fraction bound is min(1, (n - 1)/gamma) = 3/19
    base = GammaDiagonalSpec(gamma=19.0, schema=make_schema(4))
    with pytest.raises(ValueError) as exc:
        RandomizedGammaSpec.from_fraction(base, fraction)
    assert str(exc.value) == f"alpha fraction must lie in [0, 0.157895], got {fraction}"
    assert RandomizedGammaSpec.from_fraction(base, 3 / 19).alpha == pytest.approx(3 / 22)


def test_randomized_spec_bounds():
    base = GammaDiagonalSpec(gamma=19.0, schema=make_schema(4))
    # max alpha keeps both realized entries nonnegative
    assert RandomizedGammaSpec.max_alpha(base) == pytest.approx(3.0 / 22.0, abs=1e-15)
    spec = RandomizedGammaSpec.from_fraction(base, 0.1)
    assert spec.alpha == pytest.approx(1.9 / 22.0, abs=1e-15)
    with pytest.raises(ValueError):
        RandomizedGammaSpec(base, 0.2)  # exceeds (n-1)*x = 3/22
    with pytest.raises(ValueError):
        RandomizedGammaSpec(base, -0.01)


def test_draw_client_params_zero_alpha_is_exact():
    base = GammaDiagonalSpec(gamma=19.0, schema=make_schema(4))
    spec = RandomizedGammaSpec(base, 0.0)
    d, o = draw_client_params(spec, np.random.default_rng(0))
    assert d == base.diag and o == base.off


def test_draw_client_params_statistics():
    base = GammaDiagonalSpec(gamma=19.0, schema=make_schema(4, 5))
    spec = RandomizedGammaSpec.from_fraction(base, 0.5)
    rng = np.random.default_rng(123)
    draws = np.array([draw_client_params(spec, rng) for _ in range(100_000)])
    d, o = draws[:, 0], draws[:, 1]
    # column-stochastic identity holds draw by draw
    assert np.abs(d + 19 * o - 1.0).max() < 1e-12
    # mean of d is the base diagonal, 4-sigma band for Uniform[-alpha, alpha]
    sigma = spec.alpha / np.sqrt(3 * 100_000)
    assert abs(d.mean() - base.diag) < 4 * sigma
    assert d.min() >= base.diag - spec.alpha - 1e-15
    assert d.max() <= base.diag + spec.alpha + 1e-15


@pytest.mark.parametrize("fraction", [0.0, 0.5, 11 / 19])  # 11/19: the largest for n = 12
def test_randomized_table_has_the_base_distribution(fraction, monkeypatch):
    # a client's r is uniform on [-alpha, alpha] and independent of its
    # record, and the chain's matrix is linear in (d, o): the shifts r and -r
    # average to the base matrix, so a ran-gd table has det-gd's law
    sizes = (2, 3, 2)
    base = GammaDiagonalSpec(gamma=19.0, schema=make_schema(*sizes))
    ran = RandomizedGammaSpec.from_fraction(base, fraction)
    alpha, x, n = ran.alpha, base.x, base.n
    assert alpha == pytest.approx(fraction * 19 * x, abs=1e-15)
    shifted = [chain_matrix(sizes, 19 * x + r, x - r / (n - 1)).entries for r in (alpha, -alpha)]
    assert np.abs((shifted[0] + shifted[1]) / 2
                  - chain_matrix(sizes, 19 * x, x).entries).max() <= 1e-15
    # draw 0 is the client's r: 0 maps to -alpha, the largest double below 1 to +alpha
    seen = []

    def capture(codes, u, d, o, schema):
        seen.append((d, o))
        return codes

    monkeypatch.setattr(perturb_module, "_chain_bulk", capture)
    u = np.full((2, 1 + len(sizes)), 0.5)
    u[:, 0] = 0.0, np.nextafter(1.0, 0.0)
    ran.sample(np.zeros((2, len(sizes)), dtype=np.int64), u)
    (d, o), = seen
    assert (d[0], o[0]) == (19 * x - alpha, x + alpha / (n - 1))
    assert d[1] == pytest.approx(19 * x + alpha, rel=1e-15, abs=1e-15)
    assert o[1] == pytest.approx(x - alpha / (n - 1), rel=1e-15, abs=1e-15)


# ---------------------------------------------------------------------------
# chain sampler
# ---------------------------------------------------------------------------

def test_chain_column_values():
    # tests/oracles/chain_probability_oracle.py: schema [2,3], gamma=19,
    # input (1,2) -> flat 5 gets 19/24, the other five cells get 1/24
    col = chain_matrix((2, 3), 19.0 / 24.0, 1.0 / 24.0).entries[:, 5]
    expect = np.full(6, 1.0 / 24.0)
    expect[5] = 19.0 / 24.0
    assert col == pytest.approx(expect, abs=1e-15)
    assert col.sum() == pytest.approx(1.0, abs=1e-12)


def test_chain_column_matches_gd_everywhere():
    for sizes in ((2,), (5,), (2, 2), (4, 5), (2, 3, 4), (3, 3, 3, 3)):
        sch = make_schema(*sizes)
        spec = GammaDiagonalSpec(gamma=7.0, schema=sch)
        chain = chain_matrix(sizes, spec.diag, spec.off).entries
        assert np.abs(chain - gd_matrix(spec).entries).max() < 1e-15


def test_chain_param_validation():
    sch = make_schema(2, 3)
    with pytest.raises(ValueError):
        perturb_chain((0, 0), 0.5, 0.5, sch, np.random.default_rng(0))  # d + 5*o != 1
    with pytest.raises(ValueError):
        perturb_chain((0, 0), -0.25, 0.25, sch, np.random.default_rng(0))


def test_perturb_chain_forced_draws():
    # gamma=19 on [2,3]: keep probabilities are 7/8 then 19/21
    sch = make_schema(2, 3)
    d, o = 19.0 / 24.0, 1.0 / 24.0
    assert perturb_chain((1, 2), d, o, sch, FixedUniformRng(0.5, 0.5)) == (1, 2)
    # first draw above 7/8 switches attribute 0, second is then uniform
    assert perturb_chain((1, 2), d, o, sch, FixedUniformRng(0.9, 0.5)) == (0, 1)
    assert perturb_chain((1, 2), d, o, sch, FixedUniformRng(0.9, 0.99)) == (0, 2)


def test_perturb_chain_consumes_one_uniform_per_attribute():
    sch = make_schema(2, 3, 4)
    rng = FixedUniformRng(0.1, 0.2, 0.3, 0.77)
    perturb_chain((0, 1, 2), 0.5, 0.5 / 23.0, sch, rng)
    assert rng.i == 3


def test_chain_monte_carlo_matches_column():
    # 1e6 draws over the [4,5] domain against the gamma-diagonal column
    sch = make_schema(4, 5)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    record = (2, 3)
    n = 1_000_000
    rng = np.random.default_rng(2024)
    codes = np.tile(record, (n, 1))
    out = _chain_bulk(codes, rng.random((n, 2)),
                      np.full(n, spec.diag), np.full(n, spec.off), sch)
    counts = np.bincount(encode_rows(out, sch), minlength=20)
    expected = np.full(20, spec.off * n)
    expected[encode(record, sch)] = spec.diag * n
    assert gof_chisq(counts, expected) < CHI2_999_DF19


def test_chain_bulk_agrees_with_scalar_sampler():
    sch = make_schema(3, 2, 4)
    spec = GammaDiagonalSpec(gamma=5.0, schema=sch)
    rng = np.random.default_rng(9)
    codes = generate_synthetic(sch, 64, "uniform", seed=1).codes
    uniforms = rng.random((64, 3))
    bulk = _chain_bulk(codes, uniforms, np.full(64, spec.diag),
                       np.full(64, spec.off), sch)
    for i in range(64):
        got = perturb_chain(tuple(codes[i]), spec.diag, spec.off, sch,
                            FixedUniformRng(*uniforms[i]))
        assert got == tuple(bulk[i])


# ---------------------------------------------------------------------------
# generic matrix sampler
# ---------------------------------------------------------------------------

def test_perturb_generic_forced_draw():
    mat = MaterializedMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert perturb_generic(0, mat, FixedUniformRng(0.95)) == 1
    assert perturb_generic(0, mat, FixedUniformRng(0.5)) == 0
    assert perturb_generic(1, mat, FixedUniformRng(0.05)) == 0
    with pytest.raises(ValueError):
        perturb_generic(2, mat, FixedUniformRng(0.5))


def test_perturb_generic_accepts_records():
    sch = make_schema(2, 3)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    mat = gd_matrix(spec)
    got = perturb_generic((1, 2), mat, FixedUniformRng(0.0), schema=sch)
    assert got == 0  # first cell of the CDF


def test_perturb_generic_two_sample_against_chain():
    # same distribution through two unrelated samplers
    sch = make_schema(2, 3)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    mat = gd_matrix(spec)
    rng1, rng2 = np.random.default_rng(31), np.random.default_rng(32)
    n = 20_000
    a = np.bincount([perturb_generic((1, 0), mat, rng1, schema=sch) for _ in range(n)],
                    minlength=6)
    chain = [encode(perturb_chain((1, 0), spec.diag, spec.off, sch, rng2), sch)
             for _ in range(n)]
    b = np.bincount(chain, minlength=6)
    assert two_sample_chisq(a, b) < CHI2_999_DF5


# ---------------------------------------------------------------------------
# dataset-level perturbation
# ---------------------------------------------------------------------------

def test_perturb_dataset_deterministic():
    sch = make_schema(4, 5)
    data = generate_synthetic(sch, 500, "uniform", seed=0)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    a = perturb_dataset(data, spec, seed=42)
    b = perturb_dataset(data, spec, seed=42)
    c = perturb_dataset(data, spec, seed=43)
    assert np.array_equal(a.codes, b.codes)
    assert not np.array_equal(a.codes, c.codes)


def test_perturb_dataset_matches_per_record_chain():
    # dataset call is exactly the per-record sampler on record_rng streams
    sch = make_schema(3, 2, 4)
    data = generate_synthetic(sch, 50, "uniform", seed=5)
    spec = GammaDiagonalSpec(gamma=9.0, schema=sch)
    out = perturb_dataset(data, spec, seed=77)
    for i in range(50):
        got = perturb_chain(tuple(data.codes[i]), spec.diag, spec.off, sch,
                            record_rng(77, i))
        assert got == tuple(out.codes[i])


def test_perturb_dataset_randomized_streams():
    # randomized variant spends the first uniform of each stream on r
    sch = make_schema(4, 5)
    data = generate_synthetic(sch, 100, "uniform", seed=2)
    base = GammaDiagonalSpec(gamma=19.0, schema=sch)
    spec = RandomizedGammaSpec.from_fraction(base, 0.5)
    out = perturb_dataset(data, spec, seed=11)
    for i in range(100):
        u = record_rng(11, i).random(3)
        r = spec.alpha * (2.0 * u[0] - 1.0)
        d, o = base.diag + r, base.off - r / (base.n - 1)
        got = perturb_chain(tuple(data.codes[i]), d, o, sch, FixedUniformRng(*u[1:]))
        assert got == tuple(out.codes[i])


@pytest.mark.filterwarnings("error")
def test_perturb_dataset_keeps_every_value_when_p_keep_rounds_to_one(census_schema):
    # at gamma 1e308 every keep probability rounds to 1: no division by zero
    # or cast of an infinity may warn, and both samplers return their input
    data = generate_synthetic(census_schema, 500, "uniform", seed=3)
    base = GammaDiagonalSpec(gamma=1e308, schema=census_schema)
    ran = RandomizedGammaSpec(base, RandomizedGammaSpec.max_alpha(base) / 2)
    for spec in (base, ran):
        assert np.array_equal(perturb_dataset(data, spec, seed=1).codes, data.codes)


def test_perturb_dataset_schema_mismatch():
    data = generate_synthetic(make_schema(4, 5), 10, "uniform", seed=0)
    spec = GammaDiagonalSpec(gamma=19.0, schema=make_schema(5, 4))
    with pytest.raises(ValueError):
        perturb_dataset(data, spec, seed=0)


# mask_dataset and cut_paste_dataset are one function: the id names the call
@pytest.mark.parametrize("dataset_fn, mask", [(mask_dataset, True), (cut_paste_dataset, False)],
                         ids=["mask_dataset", "cut_paste_dataset"])
@pytest.mark.parametrize("table_schema, spec_schema", [
    (builtin_schema("census"), builtin_schema("health")),
    (make_schema(4, 5), make_schema(5, 4)),  # the same widths, another schema
], ids=["census-health", "same-widths"])
def test_boolean_dataset_schema_mismatch(dataset_fn, mask, table_schema, spec_schema):
    data = generate_synthetic(table_schema, 100, "uniform", seed=0)
    spec = (MaskSpec(p=0.9, schema=spec_schema) if mask
            else CutPasteSpec(K=1, rho_cp=0.3, schema=spec_schema))
    with pytest.raises(ValueError, match="mechanism schema does not match dataset schema"):
        dataset_fn(data, spec, seed=0)


# ---------------------------------------------------------------------------
# bulk per-record streams against the record_rng oracle
# ---------------------------------------------------------------------------

ORACLE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3)
BLOCK_EDGE_ROWS = (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS,
                   2 * BLOCK_ROWS + 2)


def _philox_draws(seed, index, n):
    """Record ``index``'s first n draws by the stated formula, from numpy alone."""
    blocks = [np.random.Generator(np.random.Philox(
        key=np.random.SeedSequence(seed, spawn_key=(j,)).generate_state(2, np.uint64),
        counter=index)).random(4) for j in range(-(-n // 4))]
    return np.concatenate(blocks)[:n]


# seeds of 1, 2, 3, exactly 4, 5 and 7 words: numpy pads the seed to four words
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 99, 2**130 + 7,
                                  2**200 + 5])
def test_record_rng_matches_numpy_philox(seed):
    # fails if numpy changes SeedSequence's generate_state or Philox's output
    for i in (0, 1, 4097, 2**32, 2**64):
        assert np.array_equal(record_rng(seed, i).random(9), _philox_draws(seed, i, 9)), (
            f"record_rng no longer matches numpy's SeedSequence/Philox for seed={seed}, index={i}")


def test_record_rng_reads_draws_in_order():
    # k scalar draws, then m at once, are the first k + m draws
    for k in (0, 1, 3, 4, 5, 9):
        for m in (0, 1, 4, 11):
            stream = record_rng(2**64 + 3, 4097)
            scalars = [stream.random() for _ in range(k)]
            assert all(type(x) is float for x in scalars)
            assert np.array_equal([*scalars, *stream.random(m)],
                                  record_rng(2**64 + 3, 4097).random(k + m)), (k, m)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("width", [1, 7, 35])  # 35: cut-paste's health width
def test_uniform_blocks_match_record_rng(seed, width):
    n = max(BLOCK_EDGE_ROWS) + 1
    blocks = list(_uniform_blocks(seed, n, width))
    assert [rows.start for rows, _ in blocks] == list(range(0, n, BLOCK_ROWS))
    uniforms = np.concatenate([u for _, u in blocks])
    assert uniforms.dtype == np.float64 and uniforms.shape == (n, width)
    for r in BLOCK_EDGE_ROWS:
        assert np.array_equal(uniforms[r], record_rng(seed, r).random(width)), r


@pytest.mark.parametrize("start", [2**32 + 1, 2**64 - 3])  # the second: a counter carry
def test_block_draws_past_32_bit_record_indices(start):
    # a block of six records as the bulk path draws it, far past the first 2**32
    width = 10
    keys = [perturb_module._key(5, j) for j in range(3)]
    uniforms = perturb_module._draws(keys, start, 6)[:width].T
    for r in range(6):
        assert np.array_equal(uniforms[r], record_rng(5, start + r).random(width)), r


def test_record_streams_share_no_draws():
    # every key and every counter gives fresh draws: 60000 distinct doubles
    uniforms = np.concatenate([u for _, u in _uniform_blocks(21, 5000, 12)])
    assert uniforms.shape == (5000, 12)
    assert len(np.unique(uniforms)) == uniforms.size


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), ("3", TypeError)])
def test_perturb_tables_reject_bad_seeds(census_schema, seed, error):
    data = generate_synthetic(census_schema, 3, "uniform", seed=0)
    with pytest.raises(error):
        perturb_tables(data, [GammaDiagonalSpec(gamma=19.0, schema=census_schema)], seed)


@pytest.fixture(scope="module")
def block_data(census_schema):
    # two full blocks plus three records
    return generate_synthetic(census_schema, 2 * BLOCK_ROWS + 3, "uniform", seed=8)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_bulk_streams_match_record_rng(block_data, seed):
    sch = block_data.schema
    base = GammaDiagonalSpec(gamma=19.0, schema=sch)
    ran = RandomizedGammaSpec.from_fraction(base, 0.5)
    mask = MaskSpec(p=0.7, schema=sch)
    cp = CutPasteSpec(K=3, rho_cp=0.494, schema=sch)
    det_out = perturb_dataset(block_data, base, seed)
    ran_out = perturb_dataset(block_data, ran, seed)
    mask_out = mask_dataset(block_data, mask, seed)
    cp_out = cut_paste_dataset(block_data, cp, seed)
    bits = mask_expand_many(block_data.codes, sch)
    for i in BLOCK_EDGE_ROWS:
        record = block_data.record(i)
        det = perturb_chain(record, base.diag, base.off, sch, record_rng(seed, i))
        assert det == tuple(det_out.codes[i])
        rng = record_rng(seed, i)
        d, o = draw_client_params(ran, rng)
        assert perturb_chain(record, d, o, sch, rng) == tuple(ran_out.codes[i])
        expect = mask_perturb(bits[i], mask.p, record_rng(seed, i))
        assert np.array_equal(mask_out.bits[i], expect)
        expect = cut_paste_perturb(bits[i], cp, record_rng(seed, i))
        assert np.array_equal(cp_out.bits[i], expect)


@settings(PROPERTIES, max_examples=100)
@given(sizes=st.lists(st.integers(2, 6), min_size=1, max_size=5), n_rows=st.integers(0, 300),
       seed=st.integers(0, 2**70), gamma=st.floats(1.01, 100.0),
       alpha_fraction=st.floats(0.0, 1.0), p=st.floats(0.5, 1.0, exclude_max=True),
       rho_cp=st.floats(0.0, 1.0), k_pick=st.integers(0, 5))
def test_dataset_streams_match_record_rng_property(sizes, n_rows, seed, gamma, alpha_fraction,
                                                   p, rho_cp, k_pick):
    sch = make_schema(*sizes)
    rng = np.random.default_rng(n_rows)
    data = Dataset(sch, np.column_stack([rng.integers(0, s, n_rows) for s in sizes]))
    base = GammaDiagonalSpec(gamma=gamma, schema=sch)
    ran = RandomizedGammaSpec(base, alpha_fraction * RandomizedGammaSpec.max_alpha(base))
    mask = MaskSpec(p=p, schema=sch)
    cp = CutPasteSpec(K=k_pick % (len(sizes) + 1), rho_cp=rho_cp, schema=sch)
    det_out = perturb_dataset(data, base, seed).codes
    ran_out = perturb_dataset(data, ran, seed).codes
    mask_out = mask_dataset(data, mask, seed).bits
    cp_out = cut_paste_dataset(data, cp, seed).bits
    assert det_out.shape == ran_out.shape == (n_rows, len(sizes))
    assert mask_out.shape == cp_out.shape == (n_rows, sch.boolean_width)
    bits = mask_expand_many(data.codes, sch)
    for i in range(n_rows):
        record = data.record(i)
        assert perturb_chain(record, base.diag, base.off, sch,
                             record_rng(seed, i)) == tuple(det_out[i])
        stream = record_rng(seed, i)
        d, o = draw_client_params(ran, stream)
        assert perturb_chain(record, d, o, sch, stream) == tuple(ran_out[i])
        assert np.array_equal(mask_perturb(bits[i], p, record_rng(seed, i)), mask_out[i])
        assert np.array_equal(cut_paste_perturb(bits[i], cp, record_rng(seed, i)), cp_out[i])


_PASS_TABLES = {name: generate_synthetic(builtin_schema(name), 9000, "uniform", seed=4)
                for name in ("census", "health")}
_SINGLE_SPEC_FNS = {MaskSpec: mask_dataset, CutPasteSpec: cut_paste_dataset}


def _pass_menu(sch):
    base = GammaDiagonalSpec(gamma=19.0, schema=sch)
    return [base, *(RandomizedGammaSpec.from_fraction(base, f) for f in (0.25, 0.5, 1.0)),
            MaskSpec(p=0.7, schema=sch), CutPasteSpec(K=3, rho_cp=0.494, schema=sch)]


@settings(PROPERTIES, max_examples=60)
@given(name=st.sampled_from(sorted(_PASS_TABLES)),
       picks=st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True),
       n_records=st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
       | st.integers(1, 9000),
       seed=st.sampled_from([0, 2**32, 2**64 + 3]))
def test_one_pass_equals_each_spec_alone_property(name, picks, n_records, seed):
    # a shared pass draws to the widest spec's width; each spec reads its prefix
    full = _PASS_TABLES[name]
    data = Dataset(full.schema, full.codes[:n_records])
    specs = [_pass_menu(full.schema)[k] for k in picks]
    for spec, table in zip(specs, perturb_tables(data, specs, seed), strict=True):
        alone = _SINGLE_SPEC_FNS.get(type(spec), perturb_dataset)(data, spec, seed)
        assert type(table) is type(alone)
        values = table.codes if isinstance(table, Dataset) else table.bits
        expect = alone.codes if isinstance(alone, Dataset) else alone.bits
        assert values.dtype == expect.dtype and values.tobytes() == expect.tobytes()


@pytest.mark.parametrize("mechanism", ["det-gd", "ran-gd", "mask", "cut-paste"])
def test_perturbed_table_holds_only_schema_and_records(mechanism):
    # the miner's side of the trust boundary: a perturbed table carries the
    # records and their schema, and nothing that names the client seed
    seed = 987654321987
    full = _PASS_TABLES["census"]
    data = Dataset(full.schema, full.codes[:300])
    spec = _pass_menu(full.schema)[{"det-gd": 0, "ran-gd": 2, "mask": 4, "cut-paste": 5}[mechanism]]
    records = "codes" if mechanism.endswith("gd") else "bits"
    alone = _SINGLE_SPEC_FNS.get(type(spec), perturb_dataset)
    for table in (perturb_tables(data, [spec], seed)[0], alone(data, spec, seed)):
        assert [f.name for f in dataclasses.fields(table)] == ["schema", records]
        assert str(seed) not in repr(table)
        assert str(seed).encode() not in pickle.dumps(table)


# ---------------------------------------------------------------------------
# MASK
# ---------------------------------------------------------------------------

def test_mask_expand_values(census_schema):
    assert mask_expand((1, 0), make_schema(2, 2)).tolist() == [False, True, True, False]
    bits = mask_expand((0, 0, 0, 0, 0, 0), census_schema)
    assert bits.shape == (23,)
    assert bits.sum() == 6


def test_mask_collapse_roundtrip(census_schema):
    for record in ((0, 0, 0, 0, 0, 0), (3, 4, 4, 4, 1, 1), (1, 2, 3, 0, 1, 0)):
        assert mask_collapse(mask_expand(record, census_schema), census_schema) == record
    bits = mask_expand((1, 0), make_schema(2, 2))
    bits[0] = True  # two bits set in the first block
    assert mask_collapse(bits, make_schema(2, 2)) is None
    assert mask_collapse(np.zeros(4, dtype=bool), make_schema(2, 2)) is None


def test_mask_perturb_identity_at_p_one():
    bits = mask_expand((1, 0), make_schema(2, 2))
    out = mask_perturb(bits, 1.0, np.random.default_rng(0))
    assert np.array_equal(out, bits)
    with pytest.raises(ValueError):
        mask_perturb(bits, 0.0, np.random.default_rng(0))


def test_mask_perturb_flip_rate():
    rng = np.random.default_rng(55)
    bits = np.zeros(1_000_000, dtype=bool)
    out = mask_perturb(bits, 0.7, rng)
    flips = out.sum()
    sigma = np.sqrt(1_000_000 * 0.3 * 0.7)
    assert abs(flips - 300_000) < 4 * sigma


def test_mask_spec_validation():
    sch = make_schema(2, 2)
    with pytest.raises(ValueError):
        MaskSpec(p=0.4, schema=sch)  # below one-half retention
    with pytest.raises(ValueError):
        MaskSpec(p=1.0, schema=sch)
    assert MaskSpec(p=0.5610, schema=sch).M_b == 4


def test_mask_dataset_streams(census_schema):
    data = generate_synthetic(census_schema, 40, "uniform", seed=4)
    spec = MaskSpec(p=0.7, schema=census_schema)
    out = mask_dataset(data, spec, seed=13)
    assert out.bits.shape == (40, 23)
    for i in range(40):
        bits = mask_expand(tuple(data.codes[i]), census_schema)
        expect = bits ^ (record_rng(13, i).random(23) >= 0.7)
        assert np.array_equal(out.bits[i], expect)


def test_mask_p_for_gamma_values():
    # tests/oracles/mask_oracle.py (bisection on the ratio identity)
    assert mask_p_for_gamma(19.0, 6) == pytest.approx(0.5610365530096839, abs=1e-12)
    assert mask_p_for_gamma(19.0, 7) == pytest.approx(0.5523863082179388, abs=1e-12)
    assert mask_p_for_gamma(19.0, 6) == pytest.approx(0.5610, abs=1e-4)
    assert mask_p_for_gamma(19.0, 7) == pytest.approx(0.5524, abs=1e-4)


def test_mask_p_defining_identity():
    for gamma in (2.0, 19.0, 99.0):
        for M in (1, 3, 6, 12):
            p = mask_p_for_gamma(gamma, M)
            assert (p / (1 - p)) ** (2 * M) == pytest.approx(gamma, rel=1e-10)
    with pytest.raises(ValueError):
        mask_p_for_gamma(0.5, 6)
    with pytest.raises(ValueError):
        mask_p_for_gamma(19.0, 0)


def test_mask_matrix_values():
    # tests/oracles/mask_oracle.py: 2-bit cube at p=0.9
    mat = mask_matrix(2, 0.9).entries
    assert mat[3, 3] == pytest.approx(0.81, abs=1e-12)
    assert mat[2, 3] == pytest.approx(0.09, abs=1e-12)
    assert mat[1, 3] == pytest.approx(0.09, abs=1e-12)
    assert mat[0, 3] == pytest.approx(0.01, abs=1e-12)
    assert mat.sum(axis=0) == pytest.approx(np.ones(4), abs=1e-12)


def test_mask_matrix_hamming_structure():
    # tests/oracles/mask_oracle.py: entries depend only on Hamming distance
    mat = mask_matrix(4, 0.7).entries
    by_h = [0.2401, 0.1029, 0.0441, 0.0189, 0.0081]
    for u in range(16):
        for v in range(16):
            h = bin(u ^ v).count("1")
            assert mat[v, u] == pytest.approx(by_h[h], abs=1e-12)
    with pytest.raises(ValueError):
        mask_matrix(13, 0.7)


# ---------------------------------------------------------------------------
# cut-and-paste
# ---------------------------------------------------------------------------

CP_SCHEMA_SIZES = (2, 2, 2)
CP_RECORD = (0, 1, 0)  # boolean ones at positions 0, 3, 4

# tests/oracles/cut_paste_oracle.py: 1e6 direct simulations of the operator,
# M_b=6, K=3, rho=0.494, input ones (0,3,4); 4-sigma binomial half-widths
CP_SIM_ONES_PMF = {
    0: (0.004200, 0.000259),
    1: (0.032672, 0.000711),
    2: (0.116730, 0.001284),
    3: (0.253246, 0.001739),
    4: (0.324268, 0.001872),
    5: (0.213049, 0.001638),
    6: (0.055835, 0.000918),
}
CP_SIM_IDENTITY = (0.060132, 0.000951)


def _cp_spec():
    return CutPasteSpec(K=3, rho_cp=0.494, schema=make_schema(*CP_SCHEMA_SIZES))


def test_cut_paste_matrix_is_column_stochastic():
    mat = cut_paste_matrix(_cp_spec()).entries
    assert mat.shape == (64, 8)
    assert np.abs(mat.sum(axis=0) - 1.0).max() < 1e-12
    assert mat.min() >= 0.0


def test_cut_paste_matrix_matches_simulation():
    spec = _cp_spec()
    col = cut_paste_matrix(spec).entries[:, encode(CP_RECORD, spec.schema)]
    popcount = np.array([bin(v).count("1") for v in range(64)])
    for z, (prob, band) in CP_SIM_ONES_PMF.items():
        assert abs(col[popcount == z].sum() - prob) < band
    assert abs(col[0b011001] - CP_SIM_IDENTITY[0]) < CP_SIM_IDENTITY[1]


def test_cut_paste_identity_entry():
    spec = _cp_spec()
    col = cut_paste_matrix(spec).entries[:, encode(CP_RECORD, spec.schema)]
    assert col[0b011001] == pytest.approx(cut_paste_entry(3, 3, spec), abs=1e-15)


def test_cut_paste_class_matrix_consistent_with_dense():
    # aggregate the dense column over windows of bit positions; overlap
    # distributions must match the class matrix columns
    spec = _cp_spec()
    col = cut_paste_matrix(spec).entries[:, encode(CP_RECORD, spec.schema)]
    classes = cut_paste_class_matrix(spec, window=3)
    ints = np.arange(64)
    for window, l_u in (((0, 3, 4), 3), ((1, 2, 5), 0), ((0, 2, 5), 1), ((0, 2, 4), 2)):
        mask = sum(1 << b for b in window)
        in_window = np.array([bin(v & mask).count("1") for v in ints])
        for z in range(4):
            assert col[in_window == z].sum() == pytest.approx(classes[z, l_u], abs=1e-12)


@pytest.mark.parametrize("name", ["census", "health"])
def test_cut_paste_class_matrix_matches_exact_reference(name):
    # every K and window, against Fraction arithmetic over the survivors;
    # past K the cut step leaves at most K + 1 independent columns
    sch = builtin_schema(name)
    M = sch.n_attributes
    for K in range(M + 1):
        for rho in (0.0, 0.1, 0.494, 0.9, 1.0):
            spec = CutPasteSpec(K=K, rho_cp=rho, schema=sch)
            for window in range(1, M + 1):
                got = cut_paste_class_matrix(spec, window)
                exact = class_matrix(M, K, rho, window)
                err = max(abs(Fraction(float(got[v, u])) - exact[v][u])
                          for v in range(window + 1) for u in range(window + 1))
                assert err <= 1e-15, (K, rho, window, float(err))
                if window > K:
                    assert np.linalg.matrix_rank(got) <= K + 1
                    assert spec.condition_number(window) == math.inf


def test_cut_paste_k_zero_is_product_bernoulli():
    spec = CutPasteSpec(K=0, rho_cp=0.494, schema=make_schema(*CP_SCHEMA_SIZES))
    rho = 0.494
    for l_v in range(7):
        for q in range(max(0, l_v - 3), min(l_v, 3) + 1):
            expect = rho ** l_v * (1 - rho) ** (6 - l_v)
            assert cut_paste_entry(q, l_v, spec) == pytest.approx(expect, abs=1e-15)


def test_cut_paste_entry_validation():
    spec = _cp_spec()
    with pytest.raises(ValueError):
        cut_paste_entry(4, 4, spec)  # q exceeds the record's M ones
    with pytest.raises(ValueError):
        cut_paste_entry(0, 5, spec)  # too many ones outside the record


def test_cut_paste_row_ratio_bound():
    # /tmp-free recomputation of the frozen worst row ratio at M=6, M_b=12
    spec = CutPasteSpec(K=3, rho_cp=0.494, schema=make_schema(2, 2, 2, 2, 2, 2))
    worst = 0.0
    for l_v in range(13):
        vals = [cut_paste_entry(q, l_v, spec)
                for q in range(max(0, l_v - 6), min(l_v, 6) + 1)]
        if len(vals) >= 2:
            worst = max(worst, max(vals) / min(vals))
    assert worst == pytest.approx(15.41710033755556, abs=1e-9)
    assert worst <= 19.0


def test_cut_paste_perturb_distribution():
    spec = _cp_spec()
    col = cut_paste_matrix(spec).entries[:, encode(CP_RECORD, spec.schema)]
    bits = mask_expand(CP_RECORD, spec.schema)
    rng = np.random.default_rng(321)
    n = 20_000
    draws = np.array([_bits_to_ints(cut_paste_perturb(bits, spec, rng)[None, :])[0]
                      for _ in range(n)])
    counts = np.bincount(draws.astype(int), minlength=64)
    expected = col * n
    assert expected.min() > 5  # chi-square validity
    assert gof_chisq(counts, expected) < CHI2_999_DF63


def test_cut_paste_dataset_deterministic():
    sch = make_schema(*CP_SCHEMA_SIZES)
    data = generate_synthetic(sch, 200, "uniform", seed=3)
    spec = CutPasteSpec(K=3, rho_cp=0.494, schema=sch)
    a = cut_paste_dataset(data, spec, seed=6)
    b = cut_paste_dataset(data, spec, seed=6)
    assert np.array_equal(a.bits, b.bits)
    # row i comes from record i's stream
    bits = mask_expand_many(data.codes, sch)
    for i in range(200):
        assert np.array_equal(a.bits[i], cut_paste_perturb(bits[i], spec, record_rng(6, i)))


def test_cut_paste_ranks_break_ties_toward_the_lower_position():
    # forced ties among the rank draws: all equal, each pair of positions
    # equal, and all equal to the cut draw; K = M, so every rank is compared
    sch = make_schema(2, 3, 2, 4, 2)
    spec = CutPasteSpec(K=5, rho_cp=0.3, schema=sch)
    M, M_b = spec.M, spec.M_b
    rng = np.random.default_rng(8)
    cases = []
    for a, b in [(None, None), *((a, b) for a in range(M) for b in range(a + 1, M))]:
        u = rng.random((60, spec.draws))
        if a is None:
            u[:30, 1 + M_b:] = u[:30, :1]  # the cut draw's value
            u[30:, 1 + M_b:] = 0.5
        else:
            u[:, 1 + M_b + b] = u[:, 1 + M_b + a]
        cases.append(u)
    u = np.concatenate(cases)
    codes = np.column_stack([rng.integers(0, s, len(u)) for s in sch.sizes])
    found = spec.sample(codes, u)
    # the oracle: stable ranks by a double argsort; the w = j lowest are kept
    w = np.minimum((u[:, 0] * (spec.K + 1)).astype(np.int64), spec.K)
    rank = np.argsort(np.argsort(u[:, 1 + M_b:], axis=1, kind="stable"), axis=1)
    expect = u[:, 1:1 + M_b] < spec.rho_cp
    rows, positions = np.nonzero(rank < w[:, None])
    expect[rows, (np.asarray(sch.boolean_offsets) + codes)[rows, positions]] = True
    assert 0 < ((w > 0) & (w < M)).mean() < 1
    assert np.array_equal(found, expect)
    bits = mask_expand_many(codes, sch)
    for i in range(len(u)):
        assert np.array_equal(cut_paste_perturb(bits[i], spec, FixedUniformRng(*u[i])), found[i])


def test_cut_paste_perturb_needs_one_item_per_attribute():
    spec = _cp_spec()
    bits = mask_expand(CP_RECORD, spec.schema)
    bits[np.flatnonzero(bits)[0]] = False
    with pytest.raises(ValueError, match="got 6 with 2"):
        cut_paste_perturb(bits, spec, record_rng(0, 0))
    with pytest.raises(ValueError, match="need 6 bits"):
        cut_paste_perturb(np.ones(5, dtype=bool), spec, record_rng(0, 0))


def test_cut_paste_spec_validation():
    sch = make_schema(2, 2, 2)
    with pytest.raises(ValueError):
        CutPasteSpec(K=4, rho_cp=0.5, schema=sch)  # K beyond record width
    with pytest.raises(ValueError):
        CutPasteSpec(K=2, rho_cp=1.5, schema=sch)
    with pytest.raises(ValueError):
        cut_paste_class_matrix(_cp_spec(), window=0)
    with pytest.raises(ValueError):
        cut_paste_class_matrix(_cp_spec(), window=4)
    with pytest.raises(ValueError):
        cut_paste_matrix(_cp_spec(), max_cells=100)


# ---------------------------------------------------------------------------
# condition numbers
# ---------------------------------------------------------------------------

def test_condition_number_identity():
    assert condition_number(np.eye(5)) == 1.0


def test_condition_number_gd_closed_form():
    spec = GammaDiagonalSpec(gamma=19.0, schema=make_schema(4, 5, 5, 5, 2, 2))
    # (19 + 2000 - 1)/(19 - 1) = 1009/9
    assert spec.condition_number() == pytest.approx(1009.0 / 9.0, abs=1e-9)
    ran = RandomizedGammaSpec.from_fraction(spec, 0.5)
    assert ran.condition_number() == spec.condition_number()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_spec_condition_number_per_length(k):
    sch = make_schema(4, 5, 5, 5, 2, 2)
    for p in (0.5001, 0.6, 0.9):
        assert MaskSpec(p, sch).condition_number(k) == mask_itemset_condition(k, p)
    assert MaskSpec(0.5, sch).condition_number(k) == math.inf
    for K, rho in ((0, 0.2), (3, 0.494), (6, 0.9)):
        cp = CutPasteSpec(K=K, rho_cp=rho, schema=sch)
        if k > K:  # rank(paste @ cut) <= K + 1 < k + 1
            assert cp.condition_number(k) == math.inf
        else:
            assert cp.condition_number(k) == condition_number(cut_paste_class_matrix(cp, k))
    gd = GammaDiagonalSpec(gamma=19.0, schema=sch)
    ran = RandomizedGammaSpec.from_fraction(gd, 0.5)
    assert gd.condition_number(k) == ran.condition_number(k) == gd.condition_number()


def test_condition_number_eigen_matches_closed_form():
    for n_cells in (6, 20, 128, 512):
        sizes = (2, n_cells // 2)
        spec = GammaDiagonalSpec(gamma=19.0, schema=make_schema(*sizes))
        dense = gd_matrix(spec).entries
        assert condition_number(dense) == pytest.approx(spec.condition_number(), rel=1e-9)


def test_condition_number_singular_and_invalid():
    assert condition_number(np.full((2, 2), 0.5)) == np.inf
    with pytest.raises(ValueError):
        condition_number(np.ones((2, 3)) / 2)


def test_condition_number_below_rank_tolerance_is_infinite():
    # numpy's matrix_rank tolerance: smallest singular value <= largest * size * eps
    assert condition_number(np.diag([1.0, 1e-17])) == math.inf
    assert condition_number(np.diag([1.0, 1e-12])) == pytest.approx(1e12, rel=1e-12)
    assert condition_number(np.array([[1.0, 2.0], [0.5, 1.0 + 1e-17]])) == math.inf


@pytest.mark.parametrize("name", ["census", "health"])
def test_condition_number_of_every_class_matrix_past_k_is_infinite(name):
    # rank <= K + 1 < length + 1 past K, so the SVD's smallest value is
    # rounding noise; it must read inf, as CutPasteSpec.condition_number does
    sch = builtin_schema(name)
    M = sch.n_attributes
    for K in range(M):
        for i in range(41):
            spec = CutPasteSpec(K=K, rho_cp=i / 40, schema=sch)
            for length in range(K + 1, M + 1):
                assert condition_number(cut_paste_class_matrix(spec, length)) == math.inf, (
                    K, i / 40, length)


def test_materialized_matrix_validation():
    with pytest.raises(ValueError):
        MaterializedMatrix(np.array([[0.9, 0.2], [0.2, 0.9]]))  # columns sum to 1.1
    with pytest.raises(ValueError):
        MaterializedMatrix(np.array([[1.1, 0.0], [-0.1, 1.0]]))
    with pytest.raises(ValueError):
        MaterializedMatrix(np.ones(3))
    with pytest.raises(ValueError):
        MaterializedMatrix(np.array([[np.nan, 0.5], [np.nan, 0.5]]))
