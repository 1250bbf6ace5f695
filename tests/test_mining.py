"""Level-wise mining with reconstructed supports."""

import itertools
from fractions import Fraction

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

    class Noiseless(SupportEstimator):
        def level(self, candidates, bits):
            # apply the subset matrix to the true support analytically, then invert
            out = []
            for itemset, count in zip(candidates, self.full_counts(bits)):
                sub = SubsetMarginalSpec.for_subset(spec, tuple(a for a, _ in itemset))
                expected = (sub.diag - sub.off) * (count / self.n) + sub.off
                out.append((expected - sub.off) / ((sub.gamma - 1) * sub.x))
            return np.array(out)

    noiseless = mine(Noiseless(data), sch, 0.0415)
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
    assert result.stop_reason.startswith("condition number 5.")
    assert "at length 4 exceeds 1e+12" in result.stop_reason
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
    found = SupportEstimator(bits, MaskSpec(p=p, schema=sch)).estimate(level)
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
# the count lattice against the per-itemset reference paths
# ---------------------------------------------------------------------------

def _close(found: float, expected: float, tol: float) -> bool:
    return abs(found - expected) <= tol * max(1.0, abs(expected))


@PROPERTIES
@given(sizes=st.lists(st.integers(2, 6), min_size=1, max_size=5), n_rows=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1), gamma=st.floats(1.01, 100.0), p=st.floats(0.55, 0.95),
       rho_cp=st.floats(0.05, 0.95), k_pick=st.integers(0, 4), density=st.floats(0.0, 1.0))
def test_lattice_matches_reference_paths_property(sizes, n_rows, seed, gamma, p, rho_cp,
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
    for k in range(1, len(sizes) + 1):
        level = [tuple((a, int(rng.integers(0, sizes[a]))) for a in attrs)
                 for attrs in itertools.combinations(range(len(sizes)), k)]
        positions = np.array([[sch.boolean_offsets[a] + c for a, c in itemset]
                              for itemset in level])
        lattice = on_bits.lattice(positions)
        for row, pos in zip(lattice, positions):
            for code in range(1 << k):
                subset = [pos[j] for j in range(k) if code >> j & 1]
                assert row[code] == bits.bits[:, subset].all(axis=1).sum()
        classes = lattice @ mining._overlap_transform(k)
        plain = SupportEstimator(data).estimate(level)
        gd_est = SupportEstimator(data, gd).estimate(level)
        mask_est = SupportEstimator(bits, mask).estimate(level)
        cp_est = SupportEstimator(bits, cp).estimate(level) if k <= cp.K else None
        for i, (itemset, pos) in enumerate(zip(level, positions.tolist())):
            attrs = tuple(a for a, _ in itemset)
            assert np.array_equal(classes[i], cut_paste_class_counts(bits.bits, tuple(pos)))
            rel = count_subset(data, attrs) / n_rows
            cell = np.ravel_multi_index([c for _, c in itemset], [sizes[a] for a in attrs],
                                        order="F")
            gd_rel = reconstruct_subset(rel, SubsetMarginalSpec.for_subset(gd, attrs))
            assert plain[i] == rel[cell]
            assert gd_est[i] == gd_rel[cell]
            assert _close(mask_est[i], reconstruct_mask_support(
                mask_pattern_counts(bits.bits, tuple(pos)), k, p), 1e-10)
            if cp_est is not None:  # wider class matrices may be singular
                assert _close(cp_est[i], cut_paste_supports(bits.bits, tuple(pos), cp)[-1], 1e-12)


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
