"""Level-wise mining with reconstructed supports."""

import itertools
import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PROPERTIES, make_schema, read_labels
from oracles.packed_columns import one_hot, packed_columns
from privmine import (
    BooleanDataset,
    CutPasteSpec,
    GammaDiagonalSpec,
    MaskSpec,
    MiningResult,
    RandomizedGammaSpec,
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


def test_itemset_label_roundtrip(census_schema, tmp_path):
    itemset = ((0, 1), (4, 0), (5, 1))
    label = itemset_label(itemset, census_schema)
    assert label == "age=(35-55];sex=Female;native-country=Other"
    subsets = [itemset_label(s, census_schema) for k in (1, 2)
               for s in itertools.combinations(itemset, k)]
    assert read_labels(tmp_path / "in-order", census_schema, [*subsets, label]
                       ).by_length[3] == {itemset: 0.5}
    # the reader sorts whatever order the label carries
    shuffled = "sex=Female;age=(35-55];native-country=Other"
    assert read_labels(tmp_path / "shuffled", census_schema, [*subsets, shuffled]
                       ).by_length[3] == {itemset: 0.5}


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
        mine(SupportEstimator(toy_dataset()), -0.1)
    with pytest.raises(ValueError):
        brute_force_frequent(toy_dataset(), 0.0)
    with pytest.raises(ValueError):
        mine(SupportEstimator(toy_dataset()), math.inf)
    with pytest.raises(ValueError):
        brute_force_frequent(toy_dataset(), math.inf)


def test_threshold_is_inclusive():
    # both length-2 toy itemsets sit exactly on 0.5
    result = apriori_plain(toy_dataset(), 0.5)
    assert len(result.by_length[2]) == 3


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
    estimator = SupportEstimator(one)
    assert estimator.estimate([((0, 0),), ((0, 1),)]).tolist() == [0.0, 1.0]
    assert estimator.estimate([((1, 1), (2, 0)), ((1, 2), (2, 0))]).tolist() == [0.0, 1.0]
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
    # at gamma=1e6 the chain keeps a record whole with probability 0.998: one
    # flipped record of 300 at this seed. Mining finds plain mining's
    # itemsets, and reconstruction shifts the supports of the table it sees
    # by at most O(n_C/gamma)
    data = generate_synthetic(census_schema, 300, builtin_distribution("census"), seed=7)
    spec = GammaDiagonalSpec(gamma=1e6, schema=census_schema)
    perturbed = perturb_dataset(data, spec, seed=1)
    assert (perturbed.codes != data.codes).any(axis=1).sum() == 1
    mined = apriori_reconstructed(perturbed, census_schema, spec, 0.0483)
    plain, seen = apriori_plain(data, 0.0483), apriori_plain(perturbed, 0.0483)
    assert mined.counts_per_length() == {1: 15, 2: 59, 3: 101, 4: 82, 5: 30, 6: 4}
    assert plain.by_length.keys() == mined.by_length.keys()
    for length in plain.by_length:
        assert plain.by_length[length].keys() == mined.by_length[length].keys()
        for itemset, sup in seen.by_length[length].items():
            assert mined.by_length[length][itemset] == pytest.approx(sup, abs=3e-3)


def test_noiseless_estimator_is_support_neutral():
    sch = make_schema(3, 4, 2)
    data = generate_synthetic(sch, 500, "uniform", seed=9)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    # threshold between multiples of 1/500 so roundtrip epsilon cannot flip
    # an exact-tie itemset
    plain = apriori_plain(data, 0.0415)

    class Noiseless(SupportEstimator):
        def estimate(self, candidates):
            # apply the subset matrix to the true support analytically, then invert
            out = []
            for itemset in candidates:
                sub = SubsetMarginalSpec.for_subset(spec, tuple(a for a, _ in itemset))
                count = self.full_counts(np.array([[self.offsets[a] + c for a, c in itemset]]))[0]
                expected = (sub.diag - sub.off) * (count / self.n) + sub.off
                out.append((expected - sub.off) / ((sub.base.gamma - 1) * sub.base.x))
            return np.array(out)

    noiseless = mine(Noiseless(data), 0.0415)
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


MISMATCH_MESSAGES = {
    "gd-on-bits": "cannot mine a BooleanDataset with a GammaDiagonalSpec",
    "mask-on-labels": "cannot mine a Dataset with a MaskSpec",
    "cut-paste-on-labels": "cannot mine a Dataset with a CutPasteSpec",
    "spec-schema": "the mechanism's schema is not the table's",
    "data-schema": "perturbed data schema does not match the mining schema",
    "unsupported-spec": "cannot mine a Dataset with a str",
}


@pytest.mark.parametrize("case", list(MISMATCH_MESSAGES))
def test_apriori_reconstructed_rejects_each_mismatch(case):
    sch, other = make_schema(2, 2), make_schema(2, 3)
    data = generate_synthetic(sch, 10, "uniform", seed=0)
    gd = GammaDiagonalSpec(gamma=19.0, schema=sch)
    perturbed, schema, spec = {
        "gd-on-bits": (mask_dataset(data, MaskSpec(p=0.9, schema=sch), seed=0), sch, gd),
        "mask-on-labels": (data, sch, MaskSpec(p=0.9, schema=sch)),
        "cut-paste-on-labels": (data, sch, CutPasteSpec(K=1, rho_cp=0.3, schema=sch)),
        "spec-schema": (data, sch, GammaDiagonalSpec(gamma=19.0, schema=other)),
        "data-schema": (generate_synthetic(other, 10, "uniform", seed=0), sch, gd),
        "unsupported-spec": (data, sch, "not-a-spec"),
    }[case]
    with pytest.raises(ValueError, match=MISMATCH_MESSAGES[case]):
        apriori_reconstructed(perturbed, schema, spec, 0.1)


ESTIMATOR_MISMATCHES = {
    "gd-on-bits": "cannot mine a BooleanDataset with a GammaDiagonalSpec",
    "mask-on-labels": "cannot mine a Dataset with a MaskSpec",
    "cut-paste-on-labels": "cannot mine a Dataset with a CutPasteSpec",
    "spec-schema": "the mechanism's schema is not the table's",
    "unsupported-spec": "cannot mine a Dataset with a str",
}


@pytest.mark.parametrize("case", list(ESTIMATOR_MISMATCHES))
def test_support_estimator_rejects_each_mismatch(case):
    # the estimator is where a table meets its mechanism: a wrong pair fails
    # when it is built, before any count or any mining
    sch = make_schema(2, 2)
    data = generate_synthetic(sch, 10, "uniform", seed=0)
    data, spec = {
        "gd-on-bits": (mask_dataset(data, MaskSpec(p=0.9, schema=sch), seed=0),
                       GammaDiagonalSpec(gamma=19.0, schema=sch)),
        "mask-on-labels": (data, MaskSpec(p=0.9, schema=sch)),
        "cut-paste-on-labels": (data, CutPasteSpec(K=1, rho_cp=0.3, schema=sch)),
        "spec-schema": (data, GammaDiagonalSpec(gamma=19.0, schema=make_schema(2, 3))),
        "unsupported-spec": (data, "not-a-spec"),
    }[case]
    with pytest.raises(ValueError, match=ESTIMATOR_MISMATCHES[case]):
        SupportEstimator(data, spec)


def test_randomized_spec_estimates_as_its_base(census_schema):
    data = generate_synthetic(census_schema, 2000, builtin_distribution("census"), seed=5)
    ran = RandomizedGammaSpec.from_fraction(GammaDiagonalSpec(gamma=19.0, schema=census_schema),
                                            0.5)
    perturbed = perturb_dataset(data, ran, seed=3)
    with_ran, with_base = SupportEstimator(perturbed, ran), SupportEstimator(perturbed, ran.base)
    assert with_ran.mechanism == with_base.mechanism == "gamma-diagonal(gamma=19)"
    for level in apriori_plain(data, 0.05).by_length.values():
        assert np.array_equal(with_ran.estimate(list(level)), with_base.estimate(list(level)))
    assert mine(with_ran, 0.05) == mine(with_base, 0.05)


def test_mining_result_derives_its_summary_from_levels():
    result = MiningResult(by_length={1: {((0, 0),): 0.5}}, sup_min=0.1, mechanism="test",
                          levels=(mining.Level(1, 4, 1, 2, 3.0), mining.Level(2, 6, 0, 5, 3.0)))
    assert result.negative_estimates == 7
    assert result.stop_length == 2
    empty = MiningResult(by_length={}, sup_min=0.1, mechanism="test")
    assert (empty.negative_estimates, empty.stop_length) == (0, 0)


@pytest.mark.parametrize("support", [float("nan"), float("inf"), 0.05])
def test_mining_result_rejects_support_outside_threshold_and_infinity(support):
    with pytest.raises(ValueError, match=f"support {support} lies outside"):
        MiningResult(by_length={1: {((0, 0),): support}}, sup_min=0.1, mechanism="test")


def test_candidate_ceiling_is_validation_error(monkeypatch, tmp_path, capsys):
    # a small ceiling on a toy schema stands in for a noise-driven explosion
    monkeypatch.setattr(mining, "MAX_CANDIDATES", 5)
    data = generate_synthetic(make_schema(3, 3, 3), 200, "uniform", seed=0)
    with pytest.raises(ValueError, match="6 candidates of length 2 exceed the ceiling of 5"):
        apriori_plain(data, 0.01)
    census = generate_synthetic(builtin_schema("census"), 200, "uniform", seed=0)
    write_csv(census, str(tmp_path / "plain.csv"))
    code = main(["mine", "--schema", "census", "--input", str(tmp_path / "plain.csv"),
                 "--sup-min", "0.01", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "exceed the ceiling of 5 per level" in capsys.readouterr().err


@PROPERTIES
@given(width=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), n_itemsets=st.integers(0, 60))
def test_join_and_prune_property(width, seed, n_itemsets):
    # a random level of ``width``-itemsets over 5 attributes of 3 categories
    rng = np.random.default_rng(seed)
    level = {tuple((int(a), int(rng.integers(3))) for a in sorted(rng.choice(5, width, False)))
             for _ in range(n_itemsets)}
    expected = []
    for left, right in itertools.permutations(level, 2):
        cand = left + (right[-1],)
        if (left[:-1] == right[:-1] and left[-1][0] < right[-1][0]
                and all(cand[:t] + cand[t + 1:] in level for t in range(len(cand)))):
            expected.append(cand)
    assert mining._join_and_prune(list(level)) == sorted(expected)


# ---------------------------------------------------------------------------
# the stop at lengths the mechanism cannot identify
# ---------------------------------------------------------------------------

def test_cut_paste_census_stops_at_k(census_schema):
    data = generate_synthetic(census_schema, 5000, builtin_distribution("census"), seed=4)
    spec = CutPasteSpec(K=3, rho_cp=0.494, schema=census_schema)
    result = apriori_reconstructed(cut_paste_dataset(data, spec, seed=1), census_schema, spec,
                                   0.02)
    assert sorted(result.by_length) == [1, 2, 3]
    assert result.stop_length == 3
    assert result.stop_reason == "condition number inf at length 4 exceeds 1e+12"
    assert [lv.length for lv in result.levels] == [1, 2, 3]
    assert all(lv.condition <= mining.COND_CEILING for lv in result.levels)
    assert result.negative_estimates == sum(lv.negatives for lv in result.levels)


def test_singular_cut_paste_window_keeps_shorter_itemsets():
    # K = 1, rho = 0.5 on two binary attributes: the window-2 class matrix is
    # singular up to rounding, so mining returns length 1 instead of raising
    sch = make_schema(2, 2)
    spec = CutPasteSpec(K=1, rho_cp=0.5, schema=sch)
    data = generate_synthetic(sch, 2000, np.array([0.45, 0.05, 0.05, 0.45]), seed=3)
    result = apriori_reconstructed(cut_paste_dataset(data, spec, seed=5), sch, spec, 0.02)
    assert sorted(result.by_length) == [1]
    assert result.stop_length == 1
    assert "at length 2 exceeds" in result.stop_reason


@pytest.mark.parametrize("gamma_excess, mines", [(4.0001e-12, True), (3.9999e-12, False)])
def test_condition_ceiling_boundary(gamma_excess, mines):
    # on a 2x2 domain the gamma-diagonal condition number is 1 + 4/(gamma - 1):
    # just under 1e12 at the first gamma, just over it at the second
    sch = make_schema(2, 2)
    spec = GammaDiagonalSpec(gamma=1 + gamma_excess, schema=sch)
    perturbed = perturb_dataset(generate_synthetic(sch, 200, "uniform", seed=1), spec, seed=2)
    if not mines:
        with pytest.raises(np.linalg.LinAlgError, match="at length 1 exceeds 1e\\+12"):
            apriori_reconstructed(perturbed, sch, spec, 0.02)
        return
    result = apriori_reconstructed(perturbed, sch, spec, 0.02)
    assert result.levels[0].condition == pytest.approx(0.99997e12, rel=1e-4)
    assert result.stop_length >= 1
    assert all(np.isfinite(s) for _, s in result.itemsets())


@PROPERTIES
@given(sizes=st.lists(st.integers(2, 5), min_size=1, max_size=4), n_rows=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1), mechanism=st.sampled_from(["gd", "mask", "cut-paste"]),
       gamma=st.floats(1.0001, 100.0), p=st.floats(0.5, 0.95), k_pick=st.integers(0, 4),
       rho_cp=st.floats(0.0, 1.0), sup_min=st.floats(0.005, 1.0))
def test_emitted_supports_are_finite_property(sizes, n_rows, seed, mechanism, gamma, p, k_pick,
                                              rho_cp, sup_min):
    sch = make_schema(*sizes)
    rng = np.random.default_rng(seed)
    if mechanism == "gd":
        spec = GammaDiagonalSpec(gamma=gamma, schema=sch)
        table = Dataset(sch, np.column_stack([rng.integers(0, s, n_rows) for s in sizes]))
    else:
        spec = (MaskSpec(p=p, schema=sch) if mechanism == "mask"
                else CutPasteSpec(K=k_pick % (len(sizes) + 1), rho_cp=rho_cp, schema=sch))
        table = BooleanDataset(sch, rng.random((n_rows, sch.boolean_width)) < rng.random())
    try:
        result = apriori_reconstructed(table, sch, spec, sup_min)
    except np.linalg.LinAlgError:
        assert spec.condition_number(1) > mining.COND_CEILING
        return
    assert all(np.isfinite(s) for _, s in result.itemsets())
    assert all(lv.condition <= mining.COND_CEILING for lv in result.levels)


def test_mask_closed_form_matches_exact_kronecker_inverse():
    # the dense 2^k pattern system solved in exact rational arithmetic
    sch = make_schema(2, 3, 2)
    rng = np.random.default_rng(8)
    bits = BooleanDataset(sch, rng.random((97, sch.boolean_width)) < 0.4)
    p = 0.8
    level = [((1, 2),), ((0, 1), (2, 0)), ((0, 1), (1, 2), (2, 0)), ((0, 0), (1, 1), (2, 1))]
    estimator = SupportEstimator(bits, MaskSpec(p=p, schema=sch))
    found = [float(s) for k in (1, 2, 3)
             for s in estimator.estimate([itemset for itemset in level if len(itemset) == k])]
    for itemset, estimate in zip(level, found):
        k = len(itemset)
        positions = [sch.boolean_offsets[a] + c for a, c in itemset]
        codes = bits.bits[:, positions].astype(int) @ (1 << np.arange(k))
        y = [Fraction(int(c), len(codes)) for c in np.bincount(codes, minlength=1 << k)]
        fp = Fraction(p)
        rows = []
        for v in range(1 << k):
            flips = [bin(u ^ v).count("1") for u in range(1 << k)]
            rows.append([fp ** (k - f) * (1 - fp) ** f for f in flips] + [y[v]])
        for col in range(1 << k):  # Gauss-Jordan on [A | y]
            rows[col] = [value / rows[col][col] for value in rows[col]]
            for r in range(1 << k):
                factor = rows[r][col]
                if r != col and factor:
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
        assert abs(estimate - float(rows[-1][-1])) <= 1e-12


# ---------------------------------------------------------------------------
# overlap-class counts against the per-itemset reference paths
# ---------------------------------------------------------------------------

def _close(found: float, expected: float, tol: float) -> bool:
    return abs(found - expected) <= tol * max(1.0, abs(expected))


@PROPERTIES
@given(sizes=st.lists(st.integers(2, 6), min_size=1, max_size=5), n_rows=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1), gamma=st.floats(1.01, 100.0), p=st.floats(0.55, 0.95),
       rho_cp=st.floats(0.05, 0.95), k_pick=st.integers(0, 4), density=st.floats(0.0, 1.0))
def test_class_counts_match_reference_paths_property(sizes, n_rows, seed, gamma, p, rho_cp,
                                                     k_pick, density):
    # one level per length: an itemset on every attribute subset, random categories
    sch = make_schema(*sizes)
    rng = np.random.default_rng(seed)
    data = Dataset(sch, np.column_stack([rng.integers(0, s, n_rows) for s in sizes]))
    bits = BooleanDataset(sch, rng.random((n_rows, sch.boolean_width)) < density)
    gd = GammaDiagonalSpec(gamma=gamma, schema=sch)
    mask = MaskSpec(p=p, schema=sch)
    cp = CutPasteSpec(K=1 + k_pick % len(sizes), rho_cp=rho_cp, schema=sch)
    on_bits = SupportEstimator(bits)
    mask_on_bits, cp_on_bits = SupportEstimator(bits, mask), SupportEstimator(bits, cp)
    for k in range(1, len(sizes) + 1):
        level = [tuple((a, int(rng.integers(0, sizes[a]))) for a in attrs)
                 for attrs in itertools.combinations(range(len(sizes)), k)]
        positions = np.array([[sch.boolean_offsets[a] + c for a, c in itemset]
                              for itemset in level])
        classes = on_bits.class_counts(positions)
        assert np.array_equal(on_bits.full_counts(positions), classes[:, k])
        plain = SupportEstimator(data).estimate(level)
        gd_est = SupportEstimator(data, gd).estimate(level)
        mask_est = mask_on_bits.estimate(level)
        cp_est = cp_on_bits.estimate(level) if k <= cp.K else None
        for i, (itemset, pos) in enumerate(zip(level, positions.tolist())):
            attrs = tuple(a for a, _ in itemset)
            # records carrying exactly l of the k bits
            overlap = bits.bits[:, pos].sum(axis=1)
            assert np.array_equal(classes[i], np.bincount(overlap, minlength=k + 1))
            assert np.array_equal(classes[i], cut_paste_class_counts(bits.bits, tuple(pos)))
            rel = count_subset(data, attrs) / n_rows
            cell = np.ravel_multi_index([c for _, c in itemset], [sizes[a] for a in attrs],
                                        order="F")
            gd_rel = reconstruct_subset(rel, SubsetMarginalSpec.for_subset(gd, attrs))
            assert plain[i] == rel[cell]
            assert gd_est[i] == gd_rel[cell]
            assert _close(mask_est[i], reconstruct_mask_support(
                mask_pattern_counts(bits.bits, tuple(pos)), k, p), 1e-10)
            # an estimate does not depend on the other candidates of its level
            assert mask_est[i] == mask_on_bits.estimate([itemset])[0]
            if cp_est is not None:  # wider class matrices may be singular
                assert _close(cp_est[i], cut_paste_supports(bits.bits, tuple(pos), cp)[-1], 1e-12)
                assert cp_est[i] == cp_on_bits.estimate([itemset])[0]


def test_gamma_diagonal_and_plain_mining_count_no_classes(monkeypatch):
    # the gamma-diagonal weights sit on N_k alone, so gd mining keeps one
    # AND per candidate: on 12 attributes it reaches length 6 or 7 without
    # counting a single candidate's overlap classes
    sch = make_schema(*[10] * 12)
    data = generate_synthetic(sch, 5000, "uniform", seed=1)
    gd = GammaDiagonalSpec(gamma=19.0, schema=sch)
    ran = RandomizedGammaSpec.from_fraction(gd, 0.5)
    runs = [lambda: apriori_plain(data, 0.01)] + [
        lambda spec=spec, seed=seed: apriori_reconstructed(perturb_dataset(data, spec, seed),
                                                           sch, spec, 0.01)
        for spec, seed in ((gd, 2), (ran, 3))]
    expected = [run() for run in runs]
    assert [result.stop_length for result in expected] == [3, 6, 6]

    def no_classes(self, bits):
        raise AssertionError(f"overlap classes were counted for {len(bits)} candidates")

    monkeypatch.setattr(SupportEstimator, "class_counts", no_classes)
    for run, result in zip(runs, expected):
        found = run()
        assert (found.by_length, found.levels) == (result.by_length, result.levels)


def _estimators(n_records: int, seed: int):
    """Plain and all four mechanisms on one 5 x 4-category schema: random
    labels for plain and the gamma-diagonal pair, random bits for MASK and
    cut-and-paste."""
    sch = make_schema(4, 4, 4, 4, 4)
    rng = np.random.default_rng(seed)
    data = Dataset(sch, rng.integers(0, 4, (n_records, 5)))
    bits = BooleanDataset(sch, rng.random((n_records, sch.boolean_width)) < 0.3)
    gd = GammaDiagonalSpec(gamma=19.0, schema=sch)
    return [SupportEstimator(data), SupportEstimator(data, gd),
            SupportEstimator(data, RandomizedGammaSpec.from_fraction(gd, 0.5)),
            SupportEstimator(bits, MaskSpec(p=0.8, schema=sch)),
            SupportEstimator(bits, CutPasteSpec(K=3, rho_cp=0.3, schema=sch))]


def test_estimates_do_not_depend_on_counting_blocks(monkeypatch):
    # 5000 records are 78 full words and 8 records more; at the default block
    # size a 3-level's 640 candidates span several blocks, the last one short
    estimators = _estimators(5000, seed=17)
    levels = [[tuple(zip(attrs, cats)) for attrs in itertools.combinations(range(5), k)
               for cats in itertools.product(range(4), repeat=k)] for k in (1, 2, 3)]
    assert [len(level) for level in levels] == [20, 160, 640]
    default = [[est.estimate(level) for level in levels] for est in estimators]
    monkeypatch.setattr(mining, "_BLOCK_BYTES", 1)  # one candidate, or 8 records, per block
    for est, expected in zip(estimators, default):
        for level, found in zip(levels, expected):
            assert est.estimate(level).tobytes() == found.tobytes(), est.mechanism
    for est, rebuilt in zip(estimators, _estimators(5000, seed=17)):
        assert rebuilt.columns.tobytes() == est.columns.tobytes(), est.mechanism


def test_mining_leaves_the_estimator_as_built():
    # no counts are kept between levels: a whole run changes none of its state
    estimators = _estimators(700, seed=5)
    for est in estimators:
        before = pickle.dumps(vars(est))
        assert mine(est, 0.05).stop_length >= 2, est.mechanism
        assert pickle.dumps(vars(est)) == before, est.mechanism


def _reference_columns(data) -> np.ndarray:
    """The table's columns packed all at once (tests/oracles/packed_columns.py)."""
    bits = data.bits if isinstance(data, BooleanDataset) else one_hot(data.codes, data.schema.sizes)
    return packed_columns(bits)


def _tables(sch, n_records: int, seed: int):
    rng = np.random.default_rng(seed)
    return (Dataset(sch, np.column_stack([rng.integers(0, s, n_records) for s in sch.sizes])),
            BooleanDataset(sch, rng.random((n_records, sch.boolean_width)) < 0.3))


def test_columns_are_packed_in_chunks_of_whole_bytes(census_schema, monkeypatch):
    # the build packs a fixed multiple of 8 records per chunk, whose one-hot
    # rows fill at most _BLOCK_BYTES; the chunk size is read off the calls
    shapes = []
    packbits = np.packbits

    def spy(rows, axis):
        shapes.append(rows.shape)
        return packbits(rows, axis=axis)

    label, bits = _tables(census_schema, 50_000, seed=2)
    monkeypatch.setattr(np, "packbits", spy)
    for data in (label, bits):
        shapes.clear()
        SupportEstimator(data)
        chunk = shapes[0][1]
        assert chunk % 8 == 0
        assert mining._BLOCK_BYTES - 8 * census_schema.boolean_width < (
            chunk * census_schema.boolean_width) <= mining._BLOCK_BYTES
        assert {w for _, w in shapes[:-1]} == {chunk} and 0 < shapes[-1][1] <= chunk
        assert {rows for rows, _ in shapes} == {census_schema.boolean_width}
        assert sum(w for _, w in shapes) == 50_000


def test_columns_equal_the_whole_table_packing(census_schema):
    # record counts around a word and around a build chunk, for both table
    # kinds; the zero words past the last record included
    chunk = 8 * (mining._BLOCK_BYTES // (8 * census_schema.boolean_width))
    assert chunk > 65
    for n in (1, 7, 8, 9, 63, 64, 65, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        for data in _tables(census_schema, n, seed=n):
            columns = SupportEstimator(data).columns
            assert columns.shape == (census_schema.boolean_width, -(-n // 64))
            assert columns.tobytes() == _reference_columns(data).tobytes(), (type(data), n)


@PROPERTIES
@given(sizes=st.lists(st.integers(2, 6), min_size=1, max_size=5), n_rows=st.integers(1, 300),
       block_bytes=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_columns_equal_the_whole_table_packing_property(sizes, n_rows, block_bytes, seed):
    # small blocks put several chunk boundaries, a byte's or a word's width
    # apart or not, into a few hundred records
    label, bits = _tables(make_schema(*sizes), n_rows, seed)
    with mock.patch.object(mining, "_BLOCK_BYTES", block_bytes):
        for data in (label, bits):
            assert SupportEstimator(data).columns.tobytes() == _reference_columns(data).tobytes()


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
