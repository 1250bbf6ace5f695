"""Privacy calculus: entry-ratio bounds and posterior analysis."""

import math

import numpy as np
import pytest

from privmine import (
    PrivacyTarget,
    gamma_for,
    posterior_from_entries,
    posterior_range,
    worst_case_posterior,
)
from privmine.cli import main


# ---------------------------------------------------------------------------
# exact anchor values
# ---------------------------------------------------------------------------

def test_gamma_for_reference_targets():
    # rational arithmetic keeps these exact despite the float inputs
    assert gamma_for(PrivacyTarget(0.05, 0.50)) == 19.0
    assert gamma_for(PrivacyTarget(0.01, 0.50)) == 99.0


def test_worst_case_posterior_is_exact_inverse():
    assert worst_case_posterior(0.05, 19.0) == 0.5


def test_posterior_at_stricter_prior():
    # 0.01 * 19 / (0.01 * 19 + 0.99) = 0.19 / 1.18
    assert worst_case_posterior(0.01, 19.0) == pytest.approx(0.19 / 1.18, abs=1e-12)


def test_posterior_range_hand_case():
    # n=20: x=1/38, alpha=1/4; r=-alpha gives entries (1/4, 3/76),
    # r=+alpha gives (3/4, 1/76); posteriors 1/4 and 3/4 exactly
    low, high = posterior_range(0.05, 19.0, 0.5, 20)
    assert low == pytest.approx(0.25, abs=1e-12)
    assert high == pytest.approx(0.75, abs=1e-12)


def test_posterior_range_wide_domain():
    low, high = posterior_range(0.05, 19.0, 0.5, 2000)
    assert low == pytest.approx(0.333, abs=0.005)
    assert high == pytest.approx(0.600, abs=0.005)


def test_posterior_range_degenerate_at_zero_alpha():
    low, high = posterior_range(0.05, 19.0, 0.0, 2000)
    assert low == high == worst_case_posterior(0.05, 19.0)


def test_posterior_range_at_the_off_diagonal_limit():
    # n=2, x=1/20: alpha_fraction 1/19 gives alpha = (n-1)*x = 1/20, the limit.
    # r=-alpha gives entries (9/10, 1/10), posterior 9/28; r=+alpha zeroes the
    # off-diagonal entry, so a perturbed value names its original: posterior 1
    low, high = posterior_range(0.05, 19.0, 1 / 19, 2)
    assert low == pytest.approx(9 / 28, abs=1e-12)
    assert high == 1.0


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_gamma_for_monotone():
    rho1s = [0.01, 0.02, 0.05, 0.1, 0.2]
    for rho2 in (0.3, 0.5, 0.8):
        gammas = [gamma_for(PrivacyTarget(r1, rho2)) for r1 in rho1s if r1 < rho2]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))
    rho2s = [0.3, 0.5, 0.7, 0.9]
    gammas = [gamma_for(PrivacyTarget(0.05, r2)) for r2 in rho2s]
    assert all(a < b for a, b in zip(gammas, gammas[1:]))


def test_gamma_posterior_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(200):
        rho1 = float(rng.uniform(0.001, 0.5))
        rho2 = float(rng.uniform(rho1 + 0.01, 0.99))
        gamma = gamma_for(PrivacyTarget(rho1, rho2))
        assert worst_case_posterior(rho1, gamma) == pytest.approx(rho2, abs=1e-12)


def test_posterior_range_nested_in_alpha():
    # a wider client-parameter spread can only widen the posterior range
    prev = posterior_range(0.05, 19.0, 0.0, 50)
    for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
        cur = posterior_range(0.05, 19.0, frac, 50)
        assert cur[0] <= prev[0] + 1e-15
        assert cur[1] >= prev[1] - 1e-15
        prev = cur


def test_posterior_range_straddles_deterministic_value():
    for n in (20, 200, 2000):
        for frac in (0.1, 0.5, 0.9):
            low, high = posterior_range(0.05, 19.0, frac, n)
            mid = worst_case_posterior(0.05, 19.0)
            assert low < mid < high


def test_posterior_from_entries_scale_invariant():
    p1 = posterior_from_entries(0.05, 19.0, 1.0)
    p2 = posterior_from_entries(0.05, 19.0 / 38.0, 1.0 / 38.0)
    assert p1 == p2 == 0.5


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_privacy_target_validation():
    for rho1, rho2 in ((0.5, 0.5), (0.6, 0.5), (0.0, 0.5), (0.05, 1.0), (-0.1, 0.5)):
        with pytest.raises(ValueError):
            PrivacyTarget(rho1, rho2)


def test_posterior_from_entries_validation():
    with pytest.raises(ValueError):
        posterior_from_entries(0.05, 1.0, 0.0)
    with pytest.raises(ValueError):
        posterior_from_entries(0.05, 1.0, 2.0)


def test_worst_case_posterior_validation():
    with pytest.raises(ValueError):
        worst_case_posterior(0.05, 0.5)


@pytest.mark.parametrize("rho1, gamma", [(0.05, math.inf), (0.05, math.nan), (math.inf, 19.0)])
def test_worst_case_posterior_rejects_non_finite(rho1, gamma):
    with pytest.raises(ValueError, match="got (inf|nan)"):
        worst_case_posterior(rho1, gamma)


def test_posterior_range_validation():
    with pytest.raises(ValueError):
        posterior_range(0.05, 19.0, 0.5, 1)
    with pytest.raises(ValueError):
        posterior_range(0.05, 1.0, 0.5, 20)
    with pytest.raises(ValueError):
        posterior_range(0.05, 19.0, -0.1, 20)
    with pytest.raises(ValueError):
        # n=2: off-diagonal would go negative at this spread
        posterior_range(0.05, 19.0, 0.5, 2)



def test_nan_alpha_fraction_is_named(capsys):
    # NaN fails every comparison, so the check must be stated as "not >= 0"
    with pytest.raises(ValueError, match="alpha_fraction must be >= 0, got nan"):
        posterior_range(0.05, 19.0, float("nan"), 2000)
    code = main(["privacy", "--rho1", "0.05", "--rho2", "0.5", "--alpha-frac", "nan",
                 "--domain-size", "2000"])
    assert code == 1
    assert "error: alpha_fraction must be >= 0, got nan" in capsys.readouterr().err
