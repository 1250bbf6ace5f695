"""Privacy-preserving mining of frequent itemsets over perturbed categorical data.

Clients perturb their records through a column-stochastic transition matrix
chosen for a (rho1, rho2) privacy target; the miner reconstructs original
distributions from the perturbed database and mines frequent itemsets on the
reconstructed supports.
"""

from .metrics import AccuracyReport, LengthAccuracy, accuracy_report
from .mining import (
    Itemset,
    MiningResult,
    SupportEstimator,
    apriori_plain,
    apriori_reconstructed,
    brute_force_frequent,
    itemset_label,
    mine,
    parse_itemset,
    validate_itemset,
)
from .perturb import (
    CutPasteSpec,
    GammaDiagonalSpec,
    MaskSpec,
    RandomizedGammaSpec,
    chain_column,
    condition_number,
    cut_paste_class_matrix,
    cut_paste_dataset,
    cut_paste_perturb,
    draw_client_params,
    mask_dataset,
    mask_expand,
    mask_p_for_gamma,
    mask_perturb,
    perturb_chain,
    perturb_dataset,
    record_rng,
)
from .privacy import (
    PrivacyTarget,
    gamma_for,
    posterior_from_entries,
    posterior_range,
    worst_case_posterior,
)
from .reconstruct import (
    SubsetMarginalSpec,
    count_subset,
    cut_paste_class_counts,
    cut_paste_supports,
    mask_itemset_condition,
    mask_itemset_matrix,
    mask_pattern_counts,
    reconstruct_mask_support,
    reconstruct_subset,
)
from .schema import (
    Attribute,
    BooleanDataset,
    Dataset,
    Schema,
    builtin_distribution,
    builtin_schema,
    decode,
    decode_indices,
    discretize,
    encode,
    encode_rows,
    generate_synthetic,
    ingest_csv,
    load_reference_distribution,
    load_schema,
    read_boolean_csv,
    schema_fingerprint,
    write_boolean_csv,
    write_csv,
)

__version__ = "0.1.0"
