"""Distribution reconstruction: closed forms, marginals, MASK, cut-and-paste."""

import numpy as np
import pytest

from helpers import make_schema, reconstruct_all
from oracles.dense_matrices import gd_matrix, subset_matrix
from privmine import (
    CutPasteSpec,
    GammaDiagonalSpec,
    MaskSpec,
    RandomizedGammaSpec,
    SubsetMarginalSpec,
    condition_number,
    count_subset,
    cut_paste_dataset,
    cut_paste_supports,
    generate_synthetic,
    mask_dataset,
    mask_itemset_condition,
    mask_itemset_matrix,
    mask_pattern_counts,
    perturb_dataset,
    reconstruct_mask_support,
    reconstruct_subset,
)
from privmine.perturb import _chain_bulk
from privmine.reconstruct import cut_paste_class_counts
from privmine.schema import Dataset

# tests/oracles/reconstruct_oracle.py: gamma=19, n=6, X=[100,50,30,10,5,5]
ORACLE_X = np.array([100.0, 50.0, 30.0, 10.0, 5.0, 5.0])
ORACLE_Y = np.array([250 / 3, 275 / 6, 185 / 6, 95 / 6, 145 / 12, 145 / 12])

# tests/oracles/reconstruct_oracle.py: census-sized subset marginal
SUBSET_PERTURBED = np.array([
    0.25133795837462836, 0.25044598612487612,
    0.24955401387512388, 0.24866204162537164,
])

# tests/oracles/variance_oracle.py: n=4, gamma=19, 1000 identical records
VAR_POINT_MASS_DIAG = 14250 / 121
VAR_POINT_MASS_OFF = 5250 / 121


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_full_and_subset():
    sch = make_schema(2, 3)
    data = Dataset(sch, np.array([[0, 0], [0, 2], [1, 2], [1, 2]]))
    full = count_subset(data, (0, 1))
    # first attribute varies fastest: (0,2) -> 4, (1,2) -> 5
    assert full.tolist() == [1, 0, 0, 0, 1, 2]
    assert count_subset(data, (1,)).tolist() == [1, 0, 3]


# ---------------------------------------------------------------------------
# full-domain closed form
# ---------------------------------------------------------------------------

def test_reconstruct_full_oracle_case():
    sch = make_schema(6)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    forward = gd_matrix(spec).entries @ ORACLE_X
    assert forward == pytest.approx(ORACLE_Y, abs=1e-12)
    assert reconstruct_all(ORACLE_Y, spec) == pytest.approx(ORACLE_X, abs=1e-9)


def test_reconstruct_preserves_total_mass():
    sch = make_schema(4, 5)
    spec = GammaDiagonalSpec(gamma=7.0, schema=sch)
    rng = np.random.default_rng(3)
    Y = rng.random(20) * 50
    assert reconstruct_all(Y, spec).sum() == pytest.approx(Y.sum(), abs=1e-9)


def test_closed_form_matches_dense_solve():
    for n_cells in (6, 64, 512):
        sch = make_schema(2, n_cells // 2)
        spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
        rng = np.random.default_rng(n_cells)
        Y = rng.random(n_cells) * 100
        closed = reconstruct_all(Y, spec)
        dense = np.linalg.solve(gd_matrix(spec).entries, Y)
        assert np.abs(closed - dense).max() < 1e-8


def test_noiseless_roundtrip():
    sch = make_schema(4, 5)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    rng = np.random.default_rng(12)
    X = rng.random(20) * 1000
    Y = gd_matrix(spec).entries @ X
    assert np.abs(reconstruct_all(Y, spec) - X).max() < 1e-9


def test_reconstruct_full_validates_length():
    spec = GammaDiagonalSpec(gamma=19.0, schema=make_schema(4))
    with pytest.raises(ValueError):
        reconstruct_all(np.ones(5), spec)


def test_reconstructed_error_within_amplification_bound():
    # the bound is a linear-algebra fact, so it holds on every trial
    sch = make_schema(4, 5)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    A = gd_matrix(spec).entries
    for seed in range(5):
        data = generate_synthetic(sch, 100_000, "uniform", seed=seed)
        X = count_subset(data, (0, 1))
        Y = count_subset(perturb_dataset(data, spec, seed=seed + 900), (0, 1))
        x_hat = reconstruct_all(Y, spec)
        rel_err = np.linalg.norm(x_hat - X) / np.linalg.norm(X)
        # ||X_hat - X|| / ||X|| <= c(A) * ||Y - E(Y)|| / ||E(Y)||
        bound = spec.condition_number() * np.linalg.norm(Y - A @ X) / np.linalg.norm(A @ X)
        assert rel_err <= bound + 1e-12
        assert rel_err < 0.05  # order-of-magnitude sanity at N=1e5


# ---------------------------------------------------------------------------
# subset marginals
# ---------------------------------------------------------------------------

def test_subset_spec_census_values(census_schema):
    spec = GammaDiagonalSpec(gamma=19.0, schema=census_schema)
    sub = SubsetMarginalSpec.for_subset(spec, (0,))
    assert sub.n_Cs == 4 and sub.base.n == 2000
    assert sub.base.x == pytest.approx(1 / 2018, abs=1e-18)
    assert sub.diag == pytest.approx(259 / 1009, abs=1e-15)
    assert sub.off == pytest.approx(250 / 1009, abs=1e-15)
    assert sub.condition_number() == pytest.approx(1009 / 9, abs=1e-9)
    mat = subset_matrix(sub).entries
    assert mat.sum(axis=0) == pytest.approx(np.ones(4), abs=1e-12)


def test_subset_roundtrip_oracle_case(census_schema):
    spec = GammaDiagonalSpec(gamma=19.0, schema=census_schema)
    sub = SubsetMarginalSpec.for_subset(spec, (0,))
    s = np.array([0.4, 0.3, 0.2, 0.1])
    forward = subset_matrix(sub).entries @ s
    assert forward == pytest.approx(SUBSET_PERTURBED, abs=1e-15)
    assert reconstruct_subset(forward, sub) == pytest.approx(s, abs=1e-12)


def test_subset_condition_number_is_subset_independent(census_schema):
    spec = GammaDiagonalSpec(gamma=19.0, schema=census_schema)
    conds = {SubsetMarginalSpec.for_subset(spec, sub).condition_number()
             for sub in ((0,), (4,), (0, 1), (2, 4, 5), (0, 1, 2, 3, 4, 5))}
    assert len(conds) == 1
    assert conds.pop() == pytest.approx(spec.condition_number(), abs=1e-12)


def test_subset_of_all_attributes_is_full_matrix():
    sch = make_schema(2, 3)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    sub = SubsetMarginalSpec.for_subset(spec, (0, 1))
    assert np.abs(subset_matrix(sub).entries - gd_matrix(spec).entries).max() < 1e-15


def test_uniform_is_fixed_point(census_schema):
    spec = GammaDiagonalSpec(gamma=19.0, schema=census_schema)
    sub = SubsetMarginalSpec.for_subset(spec, (1, 2))
    uniform = np.full(25, 1 / 25)
    assert subset_matrix(sub).entries @ uniform == pytest.approx(uniform, abs=1e-15)
    assert reconstruct_subset(uniform, sub) == pytest.approx(uniform, abs=1e-12)


def test_subset_of_randomized_spec_is_its_base_view(census_schema):
    base = GammaDiagonalSpec(gamma=19.0, schema=census_schema)
    ran = RandomizedGammaSpec.from_fraction(base, 0.5)
    for subset in ((0,), (1, 3), (0, 1, 2, 3, 4, 5)):
        sub = SubsetMarginalSpec.for_subset(ran, subset)
        assert sub == SubsetMarginalSpec.for_subset(ran.base, subset)
        assert sub.condition_number() == base.condition_number()


def test_subset_validation(census_schema):
    spec = GammaDiagonalSpec(gamma=19.0, schema=census_schema)
    with pytest.raises(ValueError):
        SubsetMarginalSpec.for_subset(spec, (1, 0))  # not increasing
    with pytest.raises(ValueError):
        SubsetMarginalSpec.for_subset(spec, (6,))
    with pytest.raises(ValueError):
        SubsetMarginalSpec.for_subset(spec, ())
    sub = SubsetMarginalSpec.for_subset(spec, (0,))
    with pytest.raises(ValueError):
        reconstruct_subset(np.array([0.9, 0.05, 0.04, 0.02]), sub)  # sums past 1
    with pytest.raises(ValueError):
        reconstruct_subset(np.array([0.5, 0.5]), sub)
    with pytest.raises(ValueError):
        reconstruct_subset(np.array([np.nan, 0.5, 0.3, 0.2]), sub)


# ---------------------------------------------------------------------------
# MASK reconstruction
# ---------------------------------------------------------------------------

def test_mask_itemset_matrix_values():
    # tests/oracles/mask_oracle.py
    one = mask_itemset_matrix(1, 0.9)
    assert one == pytest.approx(np.array([[0.9, 0.1], [0.1, 0.9]]), abs=1e-15)
    two = mask_itemset_matrix(2, 0.9)
    assert two[3, 3] == pytest.approx(0.81, abs=1e-12)
    assert two[1, 3] == pytest.approx(0.09, abs=1e-12)
    assert two[0, 3] == pytest.approx(0.01, abs=1e-12)
    # Kronecker power structure
    assert np.abs(two - np.kron(one, one)).max() < 1e-15


def test_mask_itemset_condition_closed_form():
    for k in range(1, 8):
        closed = mask_itemset_condition(k, 0.7)
        assert closed == pytest.approx(0.4 ** (-k), rel=1e-12)
        eigen = condition_number(mask_itemset_matrix(k, 0.7))
        assert eigen == pytest.approx(closed, rel=1e-9)


def test_mask_itemset_condition_monotone_in_width():
    conds = [mask_itemset_condition(k, 0.5610365530096839) for k in range(1, 13)]
    assert all(b > a for a, b in zip(conds, conds[1:]))
    assert conds[11] > 1e4  # ruinous amplification by width 12
    with pytest.raises(ValueError):
        mask_itemset_condition(2, 0.5)
    with pytest.raises(ValueError):
        mask_itemset_condition(0, 0.7)


def test_mask_pattern_counts():
    bits = np.array([
        [1, 0, 1, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
    ], dtype=bool)
    counts = mask_pattern_counts(bits, (0, 2))
    # patterns: 3, 1, 2, 3 -> histogram [0, 1, 1, 2]
    assert counts.tolist() == [0.0, 1.0, 1.0, 2.0]


def test_mask_support_exact_on_synthetic_counts():
    # feed pattern counts that sit exactly on the forward model
    s_true = np.array([0.2, 0.15, 0.25, 0.4])
    counts = mask_itemset_matrix(2, 0.7) @ s_true * 5000
    est = reconstruct_mask_support(counts, 2, 0.7)
    assert est == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ValueError):
        reconstruct_mask_support(counts[:3], 2, 0.7)
    with pytest.raises(ValueError):
        reconstruct_mask_support(np.zeros(4), 2, 0.7)


def test_mask_support_recovery_statistical():
    # N=2e5 at p=0.7: calibrated well above the observed seed spread
    sch = make_schema(2, 2)
    joint = np.array([0.35, 0.15, 0.2, 0.3])
    data = generate_synthetic(sch, 200_000, joint, seed=0)
    true_sup = float(np.mean((data.codes[:, 0] == 1) & (data.codes[:, 1] == 1)))
    masked = mask_dataset(data, MaskSpec(p=0.7, schema=sch), seed=100)
    est = reconstruct_mask_support(mask_pattern_counts(masked.bits, (1, 3)), 2, 0.7)
    assert est == pytest.approx(true_sup, abs=0.02)


# ---------------------------------------------------------------------------
# cut-and-paste reconstruction
# ---------------------------------------------------------------------------

def test_cut_paste_class_counts():
    bits = np.array([
        [1, 0, 1, 0, 1, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0],
    ], dtype=bool)
    counts = cut_paste_class_counts(bits, (0, 2, 4))
    assert counts.tolist() == [1.0, 0.0, 1.0, 1.0]


def test_cut_paste_support_recovery_statistical():
    sch = make_schema(2, 2, 2)
    rng = np.random.default_rng(0)
    joint = rng.random(8) + 0.2
    joint /= joint.sum()
    spec = CutPasteSpec(K=3, rho_cp=0.494, schema=sch)
    data = generate_synthetic(sch, 50_000, joint, seed=1)
    true_sup = float(np.mean(data.codes.sum(axis=1) == 3))
    cp = cut_paste_dataset(data, spec, seed=51)
    est = cut_paste_supports(cp.bits, (1, 3, 5), spec)
    assert est[-1] == pytest.approx(true_sup, abs=0.06)
    assert est.sum() == pytest.approx(1.0, abs=1e-9)


def test_cut_paste_supports_past_k_raises(census_schema):
    # past K the class matrix has rank <= K + 1: a solve returns values of
    # order 1e14, so the function refuses and names K
    spec = CutPasteSpec(K=3, rho_cp=0.494, schema=census_schema)
    data = generate_synthetic(census_schema, 2000, "uniform", seed=1)
    bits = cut_paste_dataset(data, spec, seed=2).bits
    with pytest.raises(np.linalg.LinAlgError, match="5 positions exceed K = 3"):
        cut_paste_supports(bits, (0, 4, 8, 12, 16), spec)
    within = cut_paste_supports(bits, (0, 4, 8), spec)
    assert within.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.abs(within).max() < 10


# ---------------------------------------------------------------------------
# perturbation variance
# ---------------------------------------------------------------------------

def test_variance_diagnostic_point_mass_monte_carlo():
    # 1e4 independent perturbation runs of the same 1000-record dataset
    sch = make_schema(4)
    spec = GammaDiagonalSpec(gamma=19.0, schema=sch)
    R, N = 10_000, 1000
    rng = np.random.default_rng(314)
    codes = np.zeros((R * N, 1), dtype=np.int32)
    out = _chain_bulk(codes, rng.random((R * N, 1)),
                      np.full(R * N, spec.diag), np.full(R * N, spec.off), sch)
    out = out[:, 0].reshape(R, N)
    empirical = np.stack([(out == v).sum(axis=1) for v in range(4)], axis=1).var(axis=0, ddof=1)
    exact = np.array([VAR_POINT_MASS_DIAG] + [VAR_POINT_MASS_OFF] * 3)
    assert np.abs(empirical - exact).max() / exact.min() < 0.05
    assert empirical == pytest.approx(exact, rel=0.05)
