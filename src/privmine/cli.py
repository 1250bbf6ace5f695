"""Command-line harness: privacy calculus, perturbation, mining, evaluation,
and multi-mechanism comparison tables.

Subcommands mirror the trust boundary: ``perturb`` is the client side (the
only place randomness and the seed live), ``mine``/``evaluate`` are the miner
side and read only public mechanism parameters from the metadata file.
``compare`` orchestrates both sides in memory across seeds and mechanisms
and writes one CSV per comparison table plus a JSON summary.

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .metrics import LengthAccuracy, accuracy_report
from .mining import (
    MiningResult,
    apriori_plain,
    apriori_reconstructed,
    check_sup_min,
    itemset_label,
    validate_itemset,
)
from .perturb import (
    MECHANISMS,
    CutPasteSpec,
    GammaDiagonalSpec,
    MaskSpec,
    RandomizedGammaSpec,
    cut_paste_dataset,
    mask_dataset,
    perturb_dataset,
    perturb_tables,
)
from .privacy import PrivacyTarget, gamma_for, posterior_range, worst_case_posterior
from .schema import (
    BooleanDataset,
    Dataset,
    Schema,
    builtin_distribution,
    builtin_schema,
    generate_synthetic,
    ingest_csv,
    load_reference_distribution,
    load_schema,
    read_boolean_csv,
    schema_fingerprint,
    write_boolean_csv,
    write_csv,
)

EXIT_OK, EXIT_VALIDATION, EXIT_IO, EXIT_NUMERICAL = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# shared argument groups and loaders
# ---------------------------------------------------------------------------

def _add_schema_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema", required=True,
                   help="builtin schema name (census, health) or a YAML schema path")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV file of categorical records")
    src.add_argument("--synthetic", choices=("uniform", "reference"),
                     help="generate records instead of reading a file")
    p.add_argument("--n-records", type=int, default=10000,
                   help="synthetic record count (default 10000)")
    p.add_argument("--data-seed", type=_seed, default=0,
                   help="seed for synthetic data generation (default 0)")
    _add_ingest_args(p)


def _add_ingest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--column-map", default=None,
                   help="attr=column pairs, comma separated; column is a header name or 0-based index")
    p.add_argument("--on-error", choices=("skip", "abort"), default="skip",
                   help="row policy for unparseable input rows (default skip)")
    p.add_argument("--clamp", action="store_true",
                   help="clamp out-of-range numeric values into the boundary bins")


def _add_mechanism_args(p: argparse.ArgumentParser, multi: bool = False) -> None:
    names = tuple(mechanism.name for mechanism in MECHANISMS)
    if multi:
        p.add_argument("--mechanisms", default="det-gd,ran-gd,mask",
                       help=f"comma separated subset of {','.join(names)}")
    else:
        p.add_argument("--mechanism", required=True, choices=names)
    p.add_argument("--rho1", type=float, help="prior probability bound, in (0,1)")
    p.add_argument("--rho2", type=float, help="posterior probability bound, in (0,1)")
    p.add_argument("--gamma", type=float, help="matrix entry ratio bound (overrides rho pair)")
    p.add_argument("--alpha-frac", type=float, default=0.5,
                   help="randomized half-width as a fraction of the diagonal entry (default 0.5)")
    p.add_argument("--mask-p", type=float, default=None,
                   help="bit retention probability override (default: derived from gamma)")
    p.add_argument("--cp-k", type=int, default=3, help="cut-and-paste cut bound K (default 3)")
    p.add_argument("--cp-rho", type=float, default=0.494,
                   help="cut-and-paste paste probability (default 0.494)")


def _seed(text: str) -> int:
    """argparse type for a seed (perturbation or data): a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _distinct(text: str, item) -> list:
    """A comma separated list of one or more distinct entries, each read by ``item``."""
    values = []
    for entry in filter(str.strip, text.split(",")):
        try:
            values.append(item(entry))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {entry!r}") from None
    if not values or len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"need one or more distinct values, got {text!r}")
    return values


def _seed_list(text: str) -> list[int]:
    return _distinct(text, _seed)


def _fraction_list(text: str) -> list[float]:
    return _distinct(text, float)


def _read_object(path: Path, kinds: dict[str, type]) -> dict:
    """A JSON object from ``path``; where present, each key of ``kinds``
    holds an integer (kind ``int``) or a number (kind ``float``)."""
    obj = json.loads(path.read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(obj).__name__}")
    for key, kind in kinds.items():
        allowed, noun = (int, "an integer") if kind is int else ((int, float), "a number")
        if key in obj and (isinstance(obj[key], bool) or not isinstance(obj[key], allowed)):
            raise ValueError(f"{path}: {key!r} must be {noun}, got {obj[key]!r}")
    return obj


def _require(obj: dict, path: Path, keys) -> None:
    """Raise a ValueError naming ``path`` and the first of ``keys`` that ``obj`` lacks."""
    if missing := [key for key in keys if key not in obj]:
        raise ValueError(f'{path} lacks "{missing[0]}"')


def _load_schema_arg(name_or_path: str) -> Schema:
    path = Path(name_or_path)
    if path.suffix in (".yaml", ".yml") or path.exists():
        return load_schema(path.read_text())
    return builtin_schema(name_or_path)


def _parse_column_map(text: str | None) -> dict[str, str | int] | None:
    if text is None:
        return None
    out: dict[str, str | int] = {}
    for pair in text.split(","):
        name, _, column = pair.partition("=")
        if not name or not column:
            raise ValueError(f"bad column map entry: {pair!r}")
        out[name.strip()] = int(column) if column.strip().lstrip("-").isdigit() else column.strip()
    return out


def _ingest(args, schema: Schema) -> Dataset:
    return ingest_csv(args.input, schema, column_map=_parse_column_map(args.column_map),
                      on_error=args.on_error, clamp=args.clamp)


def _load_dataset(args, schema: Schema) -> Dataset:
    if args.input:
        return _ingest(args, schema)
    if not 1 <= args.n_records <= 2 ** 32:  # the per-record stream index bound
        raise ValueError(f"record count must lie in [1, 2**32], got {args.n_records}")
    if args.synthetic == "uniform":
        return generate_synthetic(schema, args.n_records, "uniform", args.data_seed)
    path = Path(args.schema)
    if path.exists():
        dist = load_reference_distribution(path.read_text(), schema)
    else:
        dist = builtin_distribution(args.schema)
    return generate_synthetic(schema, args.n_records, dist, args.data_seed)


def _gamma_value(args) -> float:
    """--gamma if set, else the --rho1/--rho2 target's; a given rho pair must
    be a valid target either way (privacy, perturb and compare)."""
    if args.rho1 is not None and args.rho2 is not None:
        target = PrivacyTarget(args.rho1, args.rho2)
        return gamma_for(target) if args.gamma is None else args.gamma
    if args.gamma is None:
        raise ValueError("need either --gamma or both --rho1 and --rho2")
    return args.gamma


def _mechanism(name):
    """The spec class of a mechanism name from argv or metadata.json, where
    it may be any JSON value."""
    for mechanism in MECHANISMS:
        if mechanism.name == name:
            return mechanism
    raise ValueError(f"unknown mechanism: {name}")


def _spec(name: str, base: GammaDiagonalSpec, args) -> tuple[object, dict]:
    """The spec the client perturbs with, from a mechanism name and argv, and
    its public parameters under their metadata.json keys; ``base`` carries
    gamma and the schema."""
    mechanism = _mechanism(name)
    params = mechanism.options(base, args)
    return mechanism.from_metadata(base, params), params


def _perturb(data: Dataset, spec, seed: int) -> Dataset | BooleanDataset:
    # not perturb_tables: perfbench's tracer counts these three calls by their names here
    if isinstance(spec, MaskSpec):
        return mask_dataset(data, spec, seed)
    if isinstance(spec, CutPasteSpec):
        return cut_paste_dataset(data, spec, seed)
    return perturb_dataset(data, spec, seed)


def _write_rows(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_privacy(args) -> int:
    gamma = _gamma_value(args)  # --rho1 is required here
    posterior = worst_case_posterior(args.rho1, gamma)
    lines = [f"gamma = {gamma:.12g}", f"worst-case posterior = {posterior * 100:.4f}%"]
    if args.domain_size is not None:  # checked in full before anything is printed
        low, high = posterior_range(args.rho1, gamma, args.alpha_frac, args.domain_size)
        lines.append(f"posterior range at alpha = {args.alpha_frac:g}*gamma*x, "
                     f"n = {args.domain_size}: [{low * 100:.4f}%, {high * 100:.4f}%]")
    print("\n".join(lines))
    return EXIT_OK


def cmd_perturb(args) -> int:
    schema = _load_schema_arg(args.schema)
    base = GammaDiagonalSpec(_gamma_value(args), schema)
    spec, params = _spec(args.mechanism, base, args)
    data = _load_dataset(args, schema)
    perturbed = _perturb(data, spec, args.seed)
    meta = {
        "mechanism": spec.name,
        "schema_name": schema.name,
        "schema_fingerprint": schema_fingerprint(schema),
        "n_records": data.n_records,
        "gamma": base.gamma,
        "x": base.x,
        "domain_size": base.n,
        **params,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(perturbed, BooleanDataset):
        written = out / "perturbed_bits.csv"
        write_boolean_csv(perturbed, written)
    else:
        written = out / "perturbed.csv"
        write_csv(perturbed, written)
    (out / "metadata.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {written} ({data.n_records} records) and metadata.json")
    return EXIT_OK


def _write_mining_result(out: Path, result: MiningResult, schema: Schema, runtime: float) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for length in sorted(result.by_length):
        for itemset, support in result.by_length[length].items():
            rows.append((itemset_label(itemset, schema), length, support))
    _write_rows(out / "itemsets.csv", ("itemset", "length", "support"), rows)
    summary = {
        "mechanism": result.mechanism,
        "sup_min": result.sup_min,
        "counts_per_length": result.counts_per_length(),
        "n_itemsets": result.n_itemsets,
        "negative_estimates": result.negative_estimates,
        "stop_length": result.stop_length,
        "stop_reason": result.stop_reason,
        "levels": [dataclasses.asdict(level) for level in result.levels],
        "runtime_s": round(runtime, 3),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def _read_mining_result(directory: Path, schema: Schema) -> MiningResult:
    path = directory / "summary.json"
    summary = _read_object(path, {"sup_min": float})
    _require(summary, path, ("sup_min", "mechanism"))
    try:
        check_sup_min(summary["sup_min"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    items = dict(zip(schema.item_labels, ((j, c) for j, size in enumerate(schema.sizes)
                                          for c in range(size))))
    by_length: dict[int, dict] = {}
    path = directory / "itemsets.csv"
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:  # the header
            raise ValueError(f"{path} is empty: it has no header row")
        for row, fields in enumerate(reader, 2):  # row 1 is the header
            try:
                label, length, support = fields
                if unknown := [part for part in label.split(";") if part not in items]:
                    raise ValueError(f"unknown item {unknown[0]!r}")
                itemset = tuple(sorted(items[part] for part in label.split(";")))
                validate_itemset(itemset, schema)
                level = by_length.setdefault(int(length), {})
                if itemset in level:
                    raise ValueError(f"itemset {label!r} repeated")
                level[itemset] = float(support)
            except ValueError as exc:
                raise ValueError(f"{path} row {row}: {exc}") from None
    try:
        return MiningResult(by_length, summary["sup_min"], summary["mechanism"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_mine(args) -> int:
    schema = _load_schema_arg(args.schema)
    started = time.perf_counter()
    if args.metadata is None:
        result = apriori_plain(_ingest(args, schema), args.sup_min)
    else:
        path = Path(args.metadata)
        kinds = {"gamma": float, **{k: v for m in MECHANISMS for k, v in m.keys.items()}}
        meta = _read_object(path, kinds)
        _require(meta, path, ("schema_fingerprint", "gamma", "mechanism"))
        if meta["schema_fingerprint"] != schema_fingerprint(schema):
            raise ValueError("metadata was produced under a different schema")
        mechanism = _mechanism(meta["mechanism"])
        _require(meta, path, mechanism.keys)
        spec = mechanism.from_metadata(GammaDiagonalSpec(meta["gamma"], schema), meta)
        if spec.table is Dataset:
            perturbed: Dataset | BooleanDataset = _ingest(args, schema)
        elif (args.column_map, args.on_error, args.clamp) != (None, "skip", False):
            raise ValueError("--column-map, --on-error and --clamp apply to label tables "
                             f"only, not to {spec.name} bit tables")
        else:
            perturbed = read_boolean_csv(args.input, schema)
        result = apriori_reconstructed(perturbed, schema, spec, args.sup_min)
    _write_mining_result(Path(args.out), result, schema, time.perf_counter() - started)
    counts = result.counts_per_length()
    print(f"{result.mechanism}: frequent itemsets per length {counts or '{}'} "
          f"({result.negative_estimates} negative estimates)")
    print(f"stopped after length {result.stop_length}: {result.stop_reason}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    schema = _load_schema_arg(args.schema)
    found = _read_mining_result(Path(args.found), schema)
    truth = _read_mining_result(Path(args.truth), schema)
    report = accuracy_report(found, truth)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "accuracy.csv", ("mechanism", "length", "metric", "value"),
                report.to_csv_rows(found.mechanism))
    (out / "accuracy.json").write_text(report.to_json() + "\n")
    o = report.overall
    print(
        f"overall: support error {_fmt_pct(o.support_error_pct)}, "
        f"false positives {_fmt_pct(o.false_positive_pct)}, "
        f"false negatives {_fmt_pct(o.false_negative_pct)}, "
        f"strays {report.stray_found}"
    )
    return EXIT_OK


def _fmt_pct(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.2f}%"


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _seed_means(rows: list[LengthAccuracy]) -> dict:
    """Seed mean of each metric over one LengthAccuracy row per seed. A seed
    whose value is None is skipped; a metric undefined at every seed is None."""
    return {f.name: _mean([v for r in rows if (v := getattr(r, f.name)) is not None])
            for f in dataclasses.fields(LengthAccuracy) if f.name != "length"}


def _seed_runs(data: Dataset, specs, seeds: list[int], truth: MiningResult, sup_min: float):
    """Per spec, per seed: accuracy report, (negative estimates, stop length, stop
    reason), perturb and mine seconds. Each seed's one pass is split equally."""
    runs = {spec: ([], [], [], []) for spec in specs}
    for seed in seeds:
        started = time.perf_counter()
        tables = perturb_tables(data, specs, seed)
        share = (time.perf_counter() - started) / len(specs)
        for spec, (reports, outcomes, perturb_s, mine_s) in runs.items():
            mined_from = time.perf_counter()
            result = apriori_reconstructed(tables.pop(0), data.schema, spec, sup_min)
            perturb_s.append(share)
            mine_s.append(time.perf_counter() - mined_from)
            outcomes.append((result.negative_estimates, result.stop_length, result.stop_reason))
            reports.append(accuracy_report(result, truth))
    return runs


def cmd_compare(args) -> int:
    schema = _load_schema_arg(args.schema)
    mechanisms = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    if not mechanisms or len(set(mechanisms)) < len(mechanisms):
        raise ValueError(f"need one or more distinct mechanisms, got {args.mechanisms!r}")
    base = GammaDiagonalSpec(_gamma_value(args), schema)
    gamma, sweep_values = base.gamma, args.alpha_sweep or []
    # the posterior bounds need the prior; without --rho1 they are left empty
    worst = None if args.rho1 is None else worst_case_posterior(args.rho1, gamma)
    specs, params = {}, {}  # params: every mechanism's public parameters, by key
    for mechanism in mechanisms:
        specs[mechanism], public = _spec(mechanism, base, args)
        params.update(public)
    # sweep point 0 is det-gd; a point equal to a mechanism's spec shares its runs
    sweep = {frac: RandomizedGammaSpec.from_fraction(base, frac) if frac else base
             for frac in sweep_values}
    data = _load_dataset(args, schema)

    truth = apriori_plain(data, args.sup_min)
    lengths = sorted(truth.by_length)
    runs = _seed_runs(data, list(dict.fromkeys([*specs.values(), *sweep.values()])),
                      args.seeds, truth, args.sup_min)
    support_rows, identity_rows, cond_rows, sweep_rows = [], [], [], []
    summary_mechs = {}
    for mechanism, spec in specs.items():
        reports, outcomes, perturb_s, mine_s = runs[spec]
        for length in lengths:
            rows = [r.row(length) for r in reports]
            means = _seed_means(rows)
            support_rows.append((mechanism, length, means["support_error_pct"],
                                 means["support_error_vs_true_pct"],
                                 sum(r.support_error_pct is not None for r in rows)))
            identity_rows.append((mechanism, length, means["false_positive_pct"],
                                  means["false_negative_pct"], means["n_found"]))
        for length in range(1, schema.n_attributes + 1):
            cond_rows.append((mechanism, length, spec.condition_number(length)))
        overall = _seed_means([r.overall for r in reports])
        summary_mechs[mechanism] = {
            **{k: overall[k] for k in ("support_error_pct", "false_positive_pct",
                                       "false_negative_pct")},
            "stray_found_mean": _mean([r.stray_found for r in reports]),
            "negative_estimates_mean": _mean([negatives for negatives, _, _ in outcomes]),
            "stop_length": [length for _, length, _ in outcomes],
            "stop_reason": [reason for _, _, reason in outcomes],
            "perturb_s_mean": round(_mean(perturb_s), 3),
            "mine_s_mean": round(_mean(mine_s), 3),
            "runtime_s_mean": round(_mean(perturb_s) + _mean(mine_s), 3),
        }
        for length, reason in sorted({(length, reason) for _, length, reason in outcomes}):
            print(f"{mechanism}: stopped after length {length}: {reason}")
    for frac, spec in sweep.items():
        posterior = ((None, None) if worst is None else
                     [p * 100 for p in posterior_range(args.rho1, gamma, frac, base.n)])
        for length in lengths:
            means = _seed_means([r.row(length) for r in runs[spec][0]])
            sweep_rows.append((frac, length, means["support_error_pct"],
                               means["false_positive_pct"], means["false_negative_pct"],
                               *posterior))

    config = {
        "schema": args.schema,
        "input": args.input,
        "synthetic": args.synthetic,
        "n_records": data.n_records,
        "data_seed": args.data_seed,
        "gamma": gamma,
        "sup_min": args.sup_min,
        "seeds": args.seeds,
        "mechanisms": mechanisms,
        "alpha_fraction": args.alpha_frac,
        "mask_p": params.get("mask_p"),
        "cp_k": args.cp_k,
        "cp_rho": args.cp_rho,
        "alpha_sweep": sweep_values,
    }
    summary = {
        "config": config,
        "config_hash": _config_hash(config),
        "schema_fingerprint": schema_fingerprint(schema),
        "gamma": gamma,
        "worst_case_posterior": worst,
        "true_counts_per_length": truth.counts_per_length(),
        "mechanisms": summary_mechs,
    }
    if "alpha_fraction" in params and worst is not None:
        summary["ran_gd_posterior_range"] = list(
            posterior_range(args.rho1, gamma, params["alpha_fraction"], base.n))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "support_error.csv",
                ("mechanism", "length", "support_error_pct", "support_error_vs_true_pct",
                 "seeds_defined"), support_rows)
    _write_rows(out / "identity_error.csv",
                ("mechanism", "length", "false_positive_pct", "false_negative_pct",
                 "n_found_mean"), identity_rows)
    _write_rows(out / "cond_number.csv", ("mechanism", "length", "condition_number"), cond_rows)
    if sweep:
        _write_rows(out / "alpha_sweep.csv",
                    ("alpha_fraction", "length", "support_error_pct", "false_positive_pct",
                     "false_negative_pct", "posterior_low_pct", "posterior_high_pct"),
                    sweep_rows)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote comparison tables for {', '.join(mechanisms)} to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="privmine",
                     description="privacy-preserving mining over perturbed categorical data")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("privacy", help="gamma and posterior calculus for a privacy target")
    p.add_argument("--rho1", type=float, required=True)
    p.add_argument("--rho2", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha-frac", type=float, default=0.5)
    p.add_argument("--domain-size", type=int, default=None,
                   help="domain size n for the randomized posterior range")
    p.set_defaults(func=cmd_privacy)

    p = sub.add_parser("perturb", help="perturb a dataset (client side)")
    _add_schema_arg(p)
    _add_data_args(p)
    _add_mechanism_args(p)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("mine", help="mine frequent itemsets with reconstruction (miner side)")
    _add_schema_arg(p)
    p.add_argument("--input", required=True, help="perturbed (or plain) dataset file")
    p.add_argument("--metadata", default=None,
                   help="metadata.json from perturb; omit to mine plain data directly")
    p.add_argument("--sup-min", type=float, required=True)
    _add_ingest_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("evaluate", help="compare a mining result against ground truth")
    _add_schema_arg(p)
    p.add_argument("--found", required=True, help="directory written by mine")
    p.add_argument("--truth", required=True, help="directory written by mine on plain data")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="multi-mechanism, multi-seed comparison tables")
    _add_schema_arg(p)
    _add_data_args(p)
    _add_mechanism_args(p, multi=True)
    p.add_argument("--sup-min", type=float, required=True)
    p.add_argument("--seeds", type=_seed_list, required=True,
                   help="comma separated perturbation seeds")
    p.add_argument("--alpha-sweep", type=_fraction_list, default=None,
                   help="comma separated alpha fractions for the randomized sweep table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
