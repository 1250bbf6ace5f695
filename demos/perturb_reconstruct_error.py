"""Perturb a synthetic census-style dataset, reconstruct the full value
distribution, and compare the realized reconstruction error against the
condition-number amplification bound. At gamma = 19 on a 2000-cell domain
the per-cell noise is large by design; the closing table turns the gamma
dial to show how reconstruction tightens as the privacy guarantee loosens.

Run: python3 demos/perturb_reconstruct_error.py
"""

import numpy as np

from privmine import (
    GammaDiagonalSpec,
    SubsetMarginalSpec,
    builtin_distribution,
    builtin_schema,
    count_subset,
    decode_indices,
    generate_synthetic,
    perturb_dataset,
    reconstruct_subset,
    worst_case_posterior,
)

N = 50_000
GAMMA = 19.0


def main() -> None:
    schema = builtin_schema("census")
    data = generate_synthetic(schema, N, builtin_distribution("census"), seed=1)
    spec = GammaDiagonalSpec(schema=schema, gamma=GAMMA)
    print(f"schema {schema.name}: {schema.n_attributes} attributes, "
          f"{schema.domain_size} joint cells")
    print(f"gamma = {GAMMA}, x = {spec.x:.6f}, diagonal = {spec.diag:.4f}")

    # the full domain is the subset of all attributes
    perturbed = perturb_dataset(data, spec, seed=11)
    everything = tuple(range(schema.n_attributes))
    X = count_subset(data, everything)
    Y = count_subset(perturbed, everything)
    X_hat = reconstruct_subset(Y / N, SubsetMarginalSpec.for_subset(spec, everything)) * N

    cond = spec.condition_number()
    rel_err = np.linalg.norm(X_hat - X) / np.linalg.norm(X)
    expected_Y = spec.x * N + (GAMMA - 1) * spec.x * X
    bound = cond * np.linalg.norm(Y - expected_Y) / np.linalg.norm(expected_Y)
    print(f"relative reconstruction error ||X_hat - X|| / ||X|| = {rel_err:.4f}")
    print(f"amplification bound c(A) * ||Y - E[Y]|| / ||E[Y]||   = {bound:.4f}")
    print(f"condition number c(A) = {cond:.2f}")

    # each record lands on its own cell with probability diag, on another with off
    variances = X * spec.diag * (1 - spec.diag) + (N - X) * spec.off * (1 - spec.off)
    sampling_norm = np.sqrt(variances.sum())
    print(f"expected sampling noise ||sqrt(Var Y)|| = {sampling_norm:.1f} counts")
    print(f"expected relative error bound = {cond * sampling_norm / np.linalg.norm(expected_Y):.4f}")

    print()
    print("ten most common joint cells, true vs reconstructed counts")
    print("(full-domain cells are tiny fractions of N, so per-cell noise")
    print("dominates; the bound above is about the whole vector):")
    top = np.argsort(X)[::-1][:10]
    for cell, codes in zip(top, decode_indices(top, schema)):
        label = ";".join(a.categories[v] for a, v in zip(schema.attributes, codes))
        print(f"  {label:>70}  {X[cell]:7.0f}  {X_hat[cell]:9.1f}")

    subset = (0,)  # age marginal
    true_sub = count_subset(data, subset) / N
    print()
    print("the same pipeline with the gamma dial turned: reconstructing the")
    print("age marginal gets sharper as the worst-case posterior climbs")
    print(f"{'gamma':>7} {'posterior %':>12} {'contrast (g-1)x':>16} {'max marginal err':>17}")
    for gamma in (19.0, 99.0, 499.0, 1999.0):
        spec_g = GammaDiagonalSpec(schema=schema, gamma=gamma)
        pert_g = perturb_dataset(data, spec_g, seed=11) if gamma != GAMMA else perturbed
        obs = count_subset(pert_g, subset) / N
        est = reconstruct_subset(obs, SubsetMarginalSpec.for_subset(spec_g, subset))
        err = np.abs(est - true_sub).max()
        posterior = worst_case_posterior(0.05, gamma)
        print(f"{gamma:7.0f} {posterior:12.1%} {(gamma - 1) * spec_g.x:16.4f} "
              f"{err:17.4f}")


if __name__ == "__main__":
    main()
