"""Level-wise mining with reconstructed supports."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PROPERTIES, make_schema
from privmine import (
    BooleanDataset,
    CutPasteSpec,
    GammaDiagonalSpec,
    MaskSpec,
    MiningResult,
    SubsetMarginalSpec,
    SupportEstimator,
    apriori_plain,
    apriori_reconstructed,
    brute_force_frequent,
    builtin_distribution,
    builtin_schema,
    count_subset,
    cut_paste_class_counts,
    cut_paste_dataset,
    cut_paste_supports,
    generate_synthetic,
    itemset_label,
    mask_dataset,
    mask_pattern_counts,
    mine,
    parse_itemset,
    perturb_dataset,
    reconstruct_mask_support,
    reconstruct_subset,
    validate_itemset,
    write_csv,
)
from privmine import mining
from privmine.cli import main
from privmine.schema import Dataset

# tests/oracles/mining_toy_oracle.py
TOY_RECORDS = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
TOY_L1 = {((0, 0),): 0.75, ((1, 0),): 0.75, ((2, 0),): 0.75}
TOY_L2 = {((0, 0), (1, 0)): 0.5, ((0, 0), (2, 0)): 0.5, ((1, 0), (2, 0)): 0.5}


def toy_dataset():
    return Dataset(make_schema(2, 2, 2), np.array(TOY_RECORDS))


# ---------------------------------------------------------------------------
# itemset plumbing
# ---------------------------------------------------------------------------

def test_validate_itemset():
    sch = make_schema(2, 3)
    validate_itemset(((0, 1), (1, 2)), sch)
    with pytest.raises(ValueError):
        validate_itemset((), sch)
    with pytest.raises(ValueError):
        validate_itemset(((1, 0), (0, 0)), sch)  # out of order
    with pytest.raises(ValueError):
        validate_itemset(((0, 0), (0, 1)), sch)  # same attribute twice
    with pytest.raises(ValueError):
        validate_itemset(((0, 2),), sch)  # category out of range
    with pytest.raises(ValueError):
        validate_itemset(((2, 0),), sch)


def test_itemset_label_roundtrip(census_schema):
    itemset = ((0, 1), (4, 0), (5, 1))
    label = itemset_label(itemset, census_schema)
    assert label == "age=(35-55];sex=Female;native-country=Other"
    assert parse_itemset(label, census_schema) == itemset
    # parser sorts whatever order the label carries
    shuffled = "sex=Female;age=(35-55];native-country=Other"
    assert parse_itemset(shuffled, census_schema) == itemset


# ---------------------------------------------------------------------------
# plain mining
# ---------------------------------------------------------------------------

def test_toy_dataset_frequent_itemsets():
    result = apriori_plain(toy_dataset(), 0.5)
    assert result.by_length[1] == pytest.approx(TOY_L1)
    assert result.by_length[2] == pytest.approx(TOY_L2)
    assert 3 not in result.by_length
    assert result.counts_per_length() == {1: 3, 2: 3}
    assert result.n_itemsets == 6
    assert result.mechanism == "plain"


def test_single_attribute_mining_is_histogram():
    sch = make_schema(5)
    data = generate_synthetic(sch, 400, "uniform", seed=2)
    hist = np.bincount(data.codes[:, 0], minlength=5) / 400
    result = apriori_plain(data, 1e-9)
    for c in range(5):
        if hist[c] > 0:
            assert result.by_length[1][((0, c),)] == pytest.approx(hist[c], abs=1e-15)


def test_identical_records_fully_frequent():
    sch = make_schema(3, 2, 4)
    data = Dataset(sch, np.tile([2, 1, 3], (50, 1)))
    result = apriori_plain(data, 0.9)
    assert result.by_length[3] == {((0, 2), (1, 1), (2, 3)): 1.0}
    assert result.counts_per_length() == {1: 3, 2: 3, 3: 1}


def test_threshold_above_one_finds_nothing():
    result = apriori_plain(toy_dataset(), 1.5)
    assert result.by_length == {}
    assert result.n_itemsets == 0


def test_sup_min_must_be_positive():
    with pytest.raises(ValueError):
        apriori_plain(toy_dataset(), 0.0)
    with pytest.raises(ValueError):
        mine(SupportEstimator(toy_dataset()), make_schema(2, 2, 2), -0.1)
    with pytest.raises(ValueError):
        brute_force_frequent(toy_dataset(), 0.0)


def test_threshold_is_inclusive():
    # both length-2 toy itemsets sit exactly on 0.5
    result = apriori_plain(toy_dataset(), 0.5)
    assert len(result.by_length[2]) == 3


def test_max_length_caps_passes():
    result = apriori_plain(toy_dataset(), 0.5, max_length=1)
    assert sorted(result.by_length) == [1]


def test_empty_dataset_is_rejected():
    empty = Dataset(make_schema(2, 2, 2), np.empty((0, 3), dtype=np.int64))
    spec = GammaDiagonalSpec(gamma=19.0, schema=empty.schema)
    with pytest.raises(ValueError, match="empty"):
        apriori_plain(empty, 0.5)
    with pytest.raises(ValueError, match="empty"):
        apriori_reconstructed(empty, empty.schema, spec, 0.5)
    with pytest.raises(ValueError, match="empty"):
        brute_force_frequent(empty, 0.5)


def test_one_record_mining():
    one = Dataset(make_schema(2, 3, 2), np.array([[1, 2, 0]]))
    supports = SupportEstimator(one).estimate(
        [((0, 0),), ((0, 1),), ((1, 1), (2, 0)), ((1, 2), (2, 0))])
    assert supports.tolist() == [0.0, 1.0, 0.0, 1.0]
    result = apriori_plain(one, 0.5)
    assert result.counts_per_length() == {1: 3, 2: 3, 3: 1}
    assert {s for _, s in result.itemsets()} == {1.0}
    assert result.by_length == brute_force_frequent(one, 0.5).by_length


def test_plain_matches_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(8):
        sizes = tuple(rng.integers(2, 5, size=rng.integers(2, 5)))
        sch = make_schema(*sizes)
        joint = rng.random(int(np.prod(sizes))) + 0.05
        joint /= joint.sum()
        data = generate_synthetic(sch, int(rng.integers(20, 200)), joint, seed=trial)
        sup_min = float(rng.choice([0.02, 0.1, 0.3]))
        fast = apriori_plain(data, sup_min)
        slow = brute_force_frequent(data, sup_min)
        assert fast.by_length.keys() == slow.by_length.keys()
        for length in fast.by_length:
            assert fast.by_length[length] == pytest.approx(slow.by_length[length])


def test_plain_matches_brute_force_census(census_schema):
    data = generate_synthetic(census_schema, 2000, builtin_distribution("census"), seed=4)
    fast = apriori_plain(data, 0.05)
    slow = brute_force_frequent(data, 0.05)
    assert fast.by_length.keys() == slow.by_length.keys()
    for length in fast.by_length:
        assert fast.by_length[length] == pytest.approx(slow.by_length[length])


# ---------------------------------------------------------------------------
# reconstructed mining
# ---------------------------------------------------------------------------

def test_identity_limit_recovers_plain_mining(census_schema):
    # at gamma=1e6 the chain keeps every attribute: zero flipped records at
    # this seed, and reconstruction shifts supports by at most O(n_C/gamma)
    data = generate_synthetic(census_schema, 300, builtin_distribution("census"), seed=7)
    spec = GammaDiagonalSpec(gamma=1e6, schema=census_schema)
    perturbed = perturb_dataset(data, spec, seed=1)
    assert np.array_equal(perturbed.codes, data.codes)
    mined = apriori_reconstructed(perturbed, census_schema, spec, 0.0483)
    plain = apriori_plain(data, 0.0483)
    assert mined.counts_per_length() == {1: 15, 2: 59, 3: 101, 4: 82, 5: 30, 6: 4}
    assert plain.by_length.keys() == mined.by_length.keys()
    for length in plain.by_length:
        assert plain.by_length[length].keys() == mined.by_length[length].keys()
        for itemset, sup in plain.by_length[length].items():
            assert mined.by_length[length][itemset] == pytest.approx(sup, abs=3e-3)


def test_noiseless_estimator_is_support_neutral():
    sch = make_schema(3, 4, 2)
    data = generate_synthetic(sch, 500, "uniform", seed=9)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    # threshold between multiples of 1/500 so roundtrip epsilon cannot flip
    # an exact-tie itemset
    plain = apriori_plain(data, 0.0415)

    def noiseless_support(est, itemset, bits):
        # apply the subset matrix to the true support analytically, then invert
        sub = SubsetMarginalSpec.for_subset(spec, tuple(a for a, _ in itemset))
        expected = (sub.diag - sub.off) * (est.count(bits) / est.n) + sub.off
        return (expected - sub.off) / ((sub.gamma - 1) * sub.x)

    noiseless = mine(SupportEstimator(data, noiseless_support), sch, 0.0415)
    assert plain.by_length.keys() == noiseless.by_length.keys()
    for length in plain.by_length:
        assert plain.by_length[length].keys() == noiseless.by_length[length].keys()
        for itemset, sup in plain.by_length[length].items():
            assert noiseless.by_length[length][itemset] == pytest.approx(sup, abs=1e-9)


def test_gamma_diagonal_mining_end_to_end():
    # wide margins around the threshold make the outcome seed-stable
    sch = make_schema(2, 2)
    joint = np.array([0.45, 0.05, 0.05, 0.45])
    data = generate_synthetic(sch, 50_000, joint, seed=3)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    perturbed = perturb_dataset(data, spec, seed=30)
    mined = apriori_reconstructed(perturbed, sch, spec, 0.25)
    plain = apriori_plain(data, 0.25)
    assert mined.by_length.keys() == plain.by_length.keys()
    for length in plain.by_length:
        assert mined.by_length[length].keys() == plain.by_length[length].keys()


def test_mask_mining_end_to_end():
    sch = make_schema(2, 2)
    joint = np.array([0.45, 0.05, 0.05, 0.45])
    data = generate_synthetic(sch, 50_000, joint, seed=3)
    spec = MaskSpec(p=0.9, schema=sch)
    masked = mask_dataset(data, spec, seed=31)
    mined = apriori_reconstructed(masked, sch, spec, 0.25)
    plain = apriori_plain(data, 0.25)
    assert mined.by_length.keys() == plain.by_length.keys()
    for length in plain.by_length:
        assert mined.by_length[length].keys() == plain.by_length[length].keys()
    assert mined.mechanism == "mask(p=0.9)"


def test_cut_paste_mining_end_to_end():
    sch = make_schema(2, 2)
    joint = np.array([0.45, 0.05, 0.05, 0.45])
    data = generate_synthetic(sch, 50_000, joint, seed=3)
    spec = CutPasteSpec(K=2, rho_cp=0.494, schema=sch)
    pasted = cut_paste_dataset(data, spec, seed=32)
    mined = apriori_reconstructed(pasted, sch, spec, 0.25)
    plain = apriori_plain(data, 0.25)
    assert mined.by_length.keys() == plain.by_length.keys()
    for length in plain.by_length:
        assert mined.by_length[length].keys() == plain.by_length[length].keys()


def test_negative_estimates_are_counted_not_clamped():
    # hand-built perturbed data where three cells never appear: their
    # reconstructed supports are negative and the survivor exceeds 1
    sch = make_schema(4)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    perturbed = Dataset(sch, np.zeros((20, 1), dtype=np.int64))
    result = apriori_reconstructed(perturbed, sch, spec, 0.01)
    assert result.negative_estimates == 3
    assert result.by_length[1][((0, 0),)] == pytest.approx(21 / 18, abs=1e-12)


def test_apriori_reconstructed_type_checks(census_schema):
    sch = make_schema(2, 2)
    data = generate_synthetic(sch, 10, "uniform", seed=0)
    gd = GammaDiagonalSpec(gamma=19.0, schema=sch)
    masked = mask_dataset(data, MaskSpec(p=0.9, schema=sch), seed=0)
    with pytest.raises(ValueError):
        apriori_reconstructed(masked, sch, gd, 0.1)  # boolean data, categorical spec
    with pytest.raises(ValueError):
        apriori_reconstructed(data, sch, MaskSpec(p=0.9, schema=sch), 0.1)
    with pytest.raises(ValueError):
        apriori_reconstructed(data, census_schema, gd, 0.1)  # schema mismatch
    with pytest.raises(ValueError):
        apriori_reconstructed(data, sch, "not-a-spec", 0.1)


def test_candidate_ceiling_is_validation_error(monkeypatch, tmp_path, capsys):
    # a small ceiling on a toy schema stands in for a noise-driven explosion
    monkeypatch.setattr(mining, "MAX_CANDIDATES", 5)
    data = generate_synthetic(make_schema(3, 3, 3), 200, "uniform", seed=0)
    with pytest.raises(ValueError, match="6 candidates of length 2 exceed the ceiling of 5"):
        apriori_plain(data, 0.01)
    assert apriori_plain(data, 0.01, max_length=1).counts_per_length() == {1: 9}
    census = generate_synthetic(builtin_schema("census"), 200, "uniform", seed=0)
    write_csv(census, str(tmp_path / "plain.csv"))
    code = main(["mine", "--schema", "census", "--input", str(tmp_path / "plain.csv"),
                 "--sup-min", "0.01", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "exceed the ceiling of 5 per level" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the count lattice against the per-itemset reference paths
# ---------------------------------------------------------------------------

@PROPERTIES
@given(sizes=st.lists(st.integers(2, 6), min_size=1, max_size=5), n_rows=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1), gamma=st.floats(1.01, 100.0), p=st.floats(0.55, 0.95),
       rho_cp=st.floats(0.05, 0.95), k_pick=st.integers(0, 4), density=st.floats(0.0, 1.0))
def test_lattice_matches_reference_paths_property(sizes, n_rows, seed, gamma, p, rho_cp,
                                                  k_pick, density):
    sch = make_schema(*sizes)
    rng = np.random.default_rng(seed)
    data = Dataset(sch, np.column_stack([rng.integers(0, s, n_rows) for s in sizes]))
    bits = BooleanDataset(sch, rng.random((n_rows, sch.boolean_width)) < density)
    gd = GammaDiagonalSpec(gamma=gamma, schema=sch)
    mask = MaskSpec(p=p, schema=sch)
    cp = CutPasteSpec(K=1 + k_pick % len(sizes), rho_cp=rho_cp, schema=sch)
    on_codes = SupportEstimator(data)
    on_bits = SupportEstimator(bits)
    for k in range(1, len(sizes) + 1):
        for attrs in itertools.combinations(range(len(sizes)), k):
            cats = tuple(int(rng.integers(0, sizes[a])) for a in attrs)
            itemset = tuple(zip(attrs, cats))
            positions = tuple(sch.boolean_offsets[a] + c for a, c in itemset)
            assert np.array_equal(on_bits.pattern_counts(positions),
                                  mask_pattern_counts(bits.bits, positions))
            assert np.array_equal(on_bits.class_counts(positions),
                                  cut_paste_class_counts(bits.bits, positions))
            rel = count_subset(data, attrs).counts / n_rows
            cell = np.ravel_multi_index(cats, [sizes[a] for a in attrs], order="F")
            gd_rel = reconstruct_subset(rel, SubsetMarginalSpec.for_subset(gd, attrs))
            assert on_codes.estimate([itemset])[0] == rel[cell]
            assert mining._gamma_diagonal(gd, on_codes, itemset, positions) == gd_rel[cell]
            assert mining._mask(mask, on_bits, itemset, positions) == reconstruct_mask_support(
                mask_pattern_counts(bits.bits, positions), k, p)
            if k <= cp.K:  # wider class matrices may be singular (ROADMAP item 1)
                assert mining._cut_paste(cp, on_bits, itemset, positions) == cut_paste_supports(
                    bits.bits, positions, cp)[-1]


@PROPERTIES
@given(sizes=st.lists(st.integers(2, 6), min_size=1, max_size=5), n_rows=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1), sup_min=st.floats(0.005, 1.0))
def test_plain_matches_brute_force_property(sizes, n_rows, seed, sup_min):
    rng = np.random.default_rng(seed)
    data = Dataset(make_schema(*sizes),
                   np.column_stack([rng.integers(0, s, n_rows) for s in sizes]))
    if n_rows == 0:
        with pytest.raises(ValueError, match="empty"):
            apriori_plain(data, sup_min)
        return
    assert apriori_plain(data, sup_min).by_length == brute_force_frequent(data, sup_min).by_length


# ---------------------------------------------------------------------------
# result validation
# ---------------------------------------------------------------------------

def test_mining_result_validates_closure():
    with pytest.raises(ValueError):
        MiningResult(
            by_length={2: {((0, 0), (1, 0)): 0.5}},  # no length-1 support
            sup_min=0.1, mechanism="test",
        )
    with pytest.raises(ValueError):
        MiningResult(by_length={1: {((0, 0),): 0.05}}, sup_min=0.1, mechanism="test")
    with pytest.raises(ValueError):
        MiningResult(by_length={2: {((0, 0),): 0.5}}, sup_min=0.1, mechanism="test")


def test_mining_result_iteration():
    result = apriori_plain(toy_dataset(), 0.5)
    only_pairs = dict(result.itemsets(2))
    assert only_pairs == pytest.approx(TOY_L2)
    everything = dict(result.itemsets())
    assert len(everything) == 6
