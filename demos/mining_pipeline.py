"""End-to-end pipeline on the census schema: synthesize records, perturb
them client-side, mine frequent itemsets from the perturbed table alone,
and score the result against ground truth.

Run: python3 demos/mining_pipeline.py
"""

from privmine import (
    GammaDiagonalSpec,
    PrivacyTarget,
    accuracy_report,
    apriori_plain,
    apriori_reconstructed,
    builtin_distribution,
    builtin_schema,
    gamma_for,
    generate_synthetic,
    itemset_label,
    perturb_dataset,
    worst_case_posterior,
)

N = 50_000
SUP_MIN = 0.02


def main() -> None:
    target = PrivacyTarget(rho1=0.05, rho2=0.50)
    gamma = gamma_for(target)
    print(f"privacy target: prior < {target.rho1:.0%} stays below "
          f"{target.rho2:.0%} posterior")
    print(f"amplification bound gamma = {gamma}, worst-case posterior "
          f"{worst_case_posterior(target.rho1, gamma):.1%}")

    schema = builtin_schema("census")
    data = generate_synthetic(schema, N, builtin_distribution("census"), seed=9)
    spec = GammaDiagonalSpec(schema=schema, gamma=gamma)
    perturbed = perturb_dataset(data, spec, seed=17)
    print(f"\nperturbed {perturbed.n_records} records "
          f"(det-gd, gamma={spec.gamma:g}, x={spec.x:.6g})")

    truth = apriori_plain(data, SUP_MIN)
    mined = apriori_reconstructed(perturbed, schema, spec, SUP_MIN)
    print(f"true frequent itemsets:  {truth.counts_per_length()}")
    print(f"mined from perturbed:    {mined.counts_per_length()}")
    print(f"candidate estimates that came back negative: "
          f"{mined.negative_estimates}")

    report = accuracy_report(mined, truth)
    print(f"\n{'length':>6} {'rho %':>8} {'false+ %':>9} {'false- %':>9}")
    for length in sorted(truth.by_length):
        row = report.row(length)
        rho = f"{row.support_error_pct:8.1f}" if row.support_error_pct is not None else "     n/a"
        print(f"{length:6d} {rho} {row.false_positive_pct:9.1f} "
              f"{row.false_negative_pct:9.1f}")
    print(f"overall support error {report.overall.support_error_pct:.1f}%")

    print("\nlongest true itemsets the miner recovered:")
    recovered, max_len = [], None
    for length in sorted(mined.by_length, reverse=True):
        recovered = [key for key in mined.by_length[length]
                     if key in truth.by_length.get(length, {})]
        if recovered:
            max_len = length
            break
    for key in recovered[:5]:
        est = mined.by_length[max_len][key]
        true = truth.by_length[max_len][key]
        print(f"  {itemset_label(key, schema)}")
        print(f"    true support {true:.4f}, estimate {est:.4f}")


if __name__ == "__main__":
    main()
