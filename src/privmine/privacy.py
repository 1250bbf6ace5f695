"""Privacy calculus for perturbation mechanisms.

A privacy target (rho1, rho2) demands that any record property with prior
probability below rho1 keeps posterior probability below rho2 after the
adversary sees one perturbed record. The largest admissible ratio between
any two entries in a row of the perturbation matrix follows from that
target; posteriors follow from the extremal entries actually used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PrivacyTarget:
    """Prior/posterior probability caps, 0 < rho1 < rho2 < 1."""

    rho1: float
    rho2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rho1 < self.rho2 < 1.0:
            raise ValueError(
                f"invalid privacy target: need 0 < rho1 < rho2 < 1, got ({self.rho1}, {self.rho2})"
            )


def gamma_for(target: PrivacyTarget) -> float:
    """Largest entry ratio compatible with the target: rho2(1-rho1)/(rho1(1-rho2)).

    Evaluated in exact rational arithmetic with one final rounding, so e.g.
    the (0.05, 0.50) target yields 19.0 rather than 18.999999999999996.
    """
    r1, r2 = Fraction(target.rho1), Fraction(target.rho2)
    return float(r2 * (1 - r1) / (r1 * (1 - r2)))


def posterior_from_entries(rho1: float, maxp: float, minp: float) -> float:
    """Bayes posterior when the adversary plays the extremal entries:
    rho1*maxp / (rho1*maxp + (1-rho1)*minp).

    Exposed in this general form so mechanisms whose extremal entries are not
    in the gamma ratio exactly (MASK, cut-and-paste) can be analyzed with
    their actual values. Exact rational arithmetic, one final rounding.
    """
    if minp <= 0 or maxp < minp:
        raise ValueError("need 0 < minp <= maxp")
    if not 0 <= rho1 <= 1:
        raise ValueError(f"rho1 must lie in [0, 1], got {rho1}")
    r1, hi, lo = Fraction(rho1), Fraction(maxp), Fraction(minp)
    return float(r1 * hi / (r1 * hi + (1 - r1) * lo))


def worst_case_posterior(rho1: float, gamma: float) -> float:
    """Posterior when maxp/minp attains gamma: rho1*gamma / (rho1*gamma + 1 - rho1)."""
    if not 1 <= gamma < math.inf:
        raise ValueError(f"gamma must be a finite number >= 1, got {gamma}")
    return posterior_from_entries(rho1, gamma, 1.0)


def posterior_range(
    rho1: float, gamma: float, alpha_fraction: float, domain_size: int
) -> tuple[float, float]:
    """Posterior bounds for the randomized gamma-diagonal mechanism.

    With x = 1/(gamma + n - 1) and alpha = alpha_fraction * gamma * x, each
    client's diagonal entry is gamma*x + r and off-diagonal entry
    x - r/(n-1), r uniform on [-alpha, alpha]. The determinable posterior at
    a given r uses those entries; the extremes over r give the range.
    """
    n = domain_size
    if n < 2:
        raise ValueError(f"domain_size must be >= 2, got {n}")
    if not 1 < gamma < math.inf:
        raise ValueError(f"gamma must be a finite number > 1, got {gamma}")
    if not alpha_fraction >= 0:
        raise ValueError(f"alpha_fraction must be >= 0, got {alpha_fraction}")
    x = 1.0 / (gamma + n - 1)
    alpha = alpha_fraction * gamma * x
    if alpha > min(gamma * x, (n - 1) * x) + 1e-15:
        raise ValueError(
            f"alpha {alpha:.6g} would push matrix entries negative "
            f"(limit {min(gamma * x, (n - 1) * x):.6g})"
        )

    def at(r: float) -> float:
        # direct Bayes on the realized entries; unlike posterior_from_entries
        # this tolerates draws where the diagonal dips below the off-diagonal
        d = Fraction(gamma) * Fraction(x) + Fraction(r)
        o = Fraction(x) - Fraction(r) / (n - 1)
        if d <= 0:
            return 0.0
        if o <= 0:
            return 1.0
        r1 = Fraction(rho1)
        return float(r1 * d / (r1 * d + (1 - r1) * o))

    return (at(-alpha), at(alpha))

