"""Walk through the privacy calculus: from a (rho1, rho2) target to the
matrix amplification bound gamma, the implied worst-case posterior, and the
posterior range a client faces when the matrix itself is randomized.

Run: python3 demos/privacy_calculus.py
"""

from privmine import (
    PrivacyTarget,
    gamma_for,
    posterior_range,
    worst_case_posterior,
)


def main() -> None:
    print("amplification bound for several privacy targets")
    print(f"{'rho1':>6} {'rho2':>6} {'gamma':>8}")
    for rho1, rho2 in [(0.05, 0.50), (0.01, 0.50), (0.05, 0.30), (0.10, 0.60)]:
        gamma = gamma_for(PrivacyTarget(rho1, rho2))
        print(f"{rho1:6.2f} {rho2:6.2f} {gamma:8.3f}")

    print()
    print("a 5% prior pushed through gamma = 19 lands exactly on the target:")
    post = worst_case_posterior(0.05, 19.0)
    print(f"  worst-case posterior = {post:.4%}")

    print()
    print("randomizing the matrix entries (alpha = gamma*x/2) spreads the")
    print("posterior a client can pin down, here over a 2000-cell domain:")
    lo, hi = posterior_range(0.05, 19.0, 0.5, 2000)
    print(f"  posterior range = [{lo:.4%}, {hi:.4%}]")
    print("  a client drawing r = -alpha reveals much less than the fixed")
    print(f"  matrix would ({lo:.1%} versus {post:.1%})")


if __name__ == "__main__":
    main()
