"""The benchmark's workloads: parameters, set-up, one timed iteration, gate.

Every workload runs the paper's setting: gamma = 19 (rho1 = 5 %, rho2 = 50 %),
sup_min = 0.02, reference distributions of the bundled schemas. All seeds
are derived from the workload seed and stay below 2**32.

This module imports privmine only inside the functions that run in a child
process, so the parent can read the parameters without loading the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

GAMMA = "19"
SUP_MIN = "0.02"
SAMPLE_ROWS = 48  # perturbed rows checked against the scalar reference path
COND_FLAG = 1e12  # condition numbers above this make supports rounding noise
ACCURACY_MECHANISMS = ("det-gd", "ran-gd", "mask")  # cut-paste is ill-conditioned past K
HEALTH_TABLES = 4  # perturbed health tables per mechanism on minebool


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _records(base: int, scale: float) -> int:
    return max(200, int(round(base * scale)))


# ---------------------------------------------------------------------------
# helpers shared by the workloads (child side)
# ---------------------------------------------------------------------------

def _synthesize(schema_name: str, n: int, data_seed: int):
    import privmine

    schema = privmine.builtin_schema(schema_name)
    dist = privmine.builtin_distribution(schema_name)
    return privmine.generate_synthetic(schema, n, dist, data_seed)


def write_raw_csv(data, path: Path, seed: int) -> None:
    """Plain records as a user would hold them: binned attributes as raw
    integers drawn inside the record's (lo, hi] bin, the rest as labels."""
    import numpy as np

    rng = np.random.default_rng(seed)
    columns = []
    for j, attr in enumerate(data.schema.attributes):
        codes = data.codes[:, j]
        if attr.bin_edges is None:
            columns.append(np.asarray(attr.categories, dtype=object)[codes].tolist())
            continue
        edges = np.asarray(attr.bin_edges, dtype=float)
        upper = np.append(edges[1:], 2 * edges[-1] - edges[-2])  # width of the open bin
        lo, hi = np.floor(edges[codes]), np.floor(upper[codes])
        values = lo + 1 + np.floor(rng.random(len(codes)) * (hi - lo))
        columns.append(values.astype(np.int64).tolist())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in data.schema.attributes])
        writer.writerows(zip(*columns))


def write_itemsets(result, schema, path: Path) -> None:
    from privmine import itemset_label

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("itemset", "length", "support"))
        for itemset, support in result.itemsets():
            writer.writerow((itemset_label(itemset, schema), len(itemset), support))


def read_itemsets(path: Path) -> dict[str, tuple[int, float]]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return {label: (int(length), float(support)) for label, length, support in rows}


def _result_itemsets(result, schema) -> dict[str, tuple[int, float]]:
    from privmine import itemset_label

    return {itemset_label(s, schema): (len(s), float(v)) for s, v in result.itemsets()}


def _check_itemsets(what: str, found: dict, expected: dict, failures: list[str]) -> None:
    if found.keys() != expected.keys():
        failures.append(f"{what}: {len(found.keys() ^ expected.keys())} itemsets differ "
                        f"({len(found)} found, {len(expected)} expected)")
        return
    bad = [k for k, (length, support) in expected.items()
           if found[k][0] != length
           or not abs(found[k][1] - support) <= 1e-12 * max(1.0, abs(support))]
    if bad:
        failures.append(f"{what}: {len(bad)} supports differ, e.g. {bad[0]}")


def _check_brute_force(data, truth_path: Path, failures: list[str]) -> None:
    """Plain mining (written by the workload) equals exhaustive enumeration."""
    import privmine

    brute = privmine.brute_force_frequent(data, float(SUP_MIN))
    _check_itemsets("plain mining vs brute_force_frequent", read_itemsets(truth_path),
                    _result_itemsets(brute, data.schema), failures)


def _sample_indices(n: int, seed: int) -> list[int]:
    import numpy as np

    rng = np.random.default_rng(derive_seed(seed, "sample"))
    return sorted(rng.choice(n, size=min(n, SAMPLE_ROWS), replace=False).tolist())


def _read_rows(path: Path, indices: list[int]) -> dict[int, list[str]]:
    wanted, out = set(indices), {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, row in enumerate(reader):
            if i in wanted:
                out[i] = row
    return out


def _scalar_row(mechanism: str, record, schema, spec, seed: int, i: int):
    """Record i's perturbed output through the per-record reference path."""
    import privmine

    rng = privmine.record_rng(seed, i)
    if mechanism == "det-gd":
        return privmine.perturb_chain(record, spec.diag, spec.off, schema, rng)
    if mechanism == "ran-gd":
        d, o = privmine.draw_client_params(spec, rng)
        return privmine.perturb_chain(record, d, o, schema, rng)
    bits = privmine.mask_expand(record, schema)
    if mechanism == "mask":
        return tuple(int(b) for b in privmine.mask_perturb(bits, spec.p, rng))
    return tuple(int(b) for b in privmine.cut_paste_perturb(bits, spec, rng))


def _spec_from_metadata(meta: dict, schema):
    import privmine

    base = privmine.GammaDiagonalSpec(meta["gamma"], schema)
    mechanism = meta["mechanism"]
    if mechanism == "det-gd":
        return base
    if mechanism == "ran-gd":
        return privmine.RandomizedGammaSpec(base, meta["alpha"])
    if mechanism == "mask":
        return privmine.MaskSpec(meta["mask_p"], schema)
    return privmine.CutPasteSpec(meta["cp_k"], meta["cp_rho"], schema)


def _check_sample(mechanism: str, rows: dict[int, list], sample: list[int], data, spec,
                  seed: int, failures: list[str]) -> None:
    schema = data.schema
    if sorted(rows) != sample:
        failures.append(f"{mechanism}: perturbed table lacks sampled rows")
        return
    for i, row in rows.items():
        if mechanism in ("det-gd", "ran-gd"):
            got = tuple(a.categories.index(v.strip()) for a, v in zip(schema.attributes, row))
        else:
            got = tuple(int(v) for v in row)
        if got != tuple(_scalar_row(mechanism, data.record(i), schema, spec, seed, i)):
            failures.append(f"{mechanism}: perturbed row {i} differs from the record_rng reference")
            return


def _condition_numbers(mechanism: str, spec, schema) -> list[float | None]:
    """Reconstruction condition number for itemset lengths 1..M (None when
    the function computing it no longer exists)."""
    import privmine

    out: list[float | None] = []
    for k in range(1, schema.n_attributes + 1):
        if mechanism in ("det-gd", "ran-gd"):
            base = spec.base if hasattr(spec, "base") else spec
            sub = privmine.SubsetMarginalSpec.for_subset(base, tuple(range(k)))
            out.append(sub.condition_number())
        elif mechanism == "mask":
            out.append(privmine.mask_itemset_condition(k, spec.p))
        else:
            class_matrix = getattr(privmine, "cut_paste_class_matrix", None)
            out.append(None if class_matrix is None
                       else privmine.condition_number(class_matrix(spec, k)))
    return out


def _mechanism_info(accuracy: dict, negatives: float, conds: list) -> dict:
    """Ungated per-mechanism record: accuracy per length and overall,
    negative estimates, condition number per length, ill-conditioned lengths."""
    return {
        "overall": accuracy["overall"],
        "per_length": accuracy["per_length"],
        "negative_estimates": negatives,
        "condition_number": conds,
        "ill_conditioned_lengths": [k for k, c in enumerate(conds, 1)
                                    if c is not None and c > COND_FLAG],
    }


def _headline_accuracy(mechanisms: dict) -> dict:
    """support error, false positives and false negatives averaged over the
    workload's det-gd, ran-gd and mask runs (keys are mechanism names, with a
    ``#k`` suffix where a workload perturbs several tables per mechanism)."""
    out = {}
    for key in ("support_error_pct", "false_positive_pct", "false_negative_pct"):
        values = [m["overall"][key] for name, m in mechanisms.items()
                  if name.split("#")[0] in ACCURACY_MECHANISMS
                  and m["overall"].get(key) is not None]
        out[key] = sum(values) / len(values) if values else None
    return out


def _evaluate_args(schema: str, found: Path, truth: Path, out: Path) -> list[str]:
    return ["evaluate", "--schema", schema, "--found", str(found), "--truth", str(truth),
            "--out", str(out)]


def _mine_args(schema: str, data: Path, out: Path, metadata: Path | None = None) -> list[str]:
    argv = ["mine", "--schema", schema, "--input", str(data), "--sup-min", SUP_MIN,
            "--out", str(out)]
    if metadata is not None:
        argv[5:5] = ["--metadata", str(metadata)]
    return argv


def _check_table(table: str, client: Path, out: Path, data, sample: list[int], seed: int,
                 remine: bool, failures: list[str]) -> dict:
    """Gate one perturbed table the CLI wrote to ``client`` and mined into
    ``out`` (re-mining it in process if ``remine``); returns its ungated
    accuracy record."""
    import privmine

    mechanism = table.split("#")[0]
    spec = _spec_from_metadata(json.loads((client / "metadata.json").read_text()), data.schema)
    gamma_diagonal = mechanism in ("det-gd", "ran-gd")
    path = client / ("perturbed.csv" if gamma_diagonal else "perturbed_bits.csv")
    _check_sample(mechanism, _read_rows(path, sample), sample, data, spec, seed, failures)
    if remine:
        read = privmine.ingest_csv if gamma_diagonal else privmine.read_boolean_csv
        again = privmine.apriori_reconstructed(read(str(path), data.schema), data.schema, spec,
                                               float(SUP_MIN))
        _check_itemsets(f"{table}: itemsets.csv vs in-process apriori_reconstructed",
                        read_itemsets(out / "mined" / "itemsets.csv"),
                        _result_itemsets(again, data.schema), failures)
    summary = json.loads((out / "mined" / "summary.json").read_text())
    accuracy = json.loads((out / "scores" / "accuracy.json").read_text())
    return _mechanism_info(accuracy, summary["negative_estimates"],
                           _condition_numbers(mechanism, spec, data.schema))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class _CsvWorkload:
    """A workload whose CLI calls write one directory per perturbed table,
    named by ``tables`` (mechanism, plus ``#k`` when it has several)."""

    schema: str
    records: int
    tables: tuple[str, ...]

    def params(self, seed: int, scale: float) -> dict:
        return {
            "n": _records(self.records, scale),
            "data_seed": derive_seed(seed, "data"),
            "raw_seed": derive_seed(seed, "raw"),
            "seeds": {t: derive_seed(seed, t) for t in self.tables},
            "sample_seed": seed,
        }

    def setup(self, run, p: dict, d: Path) -> None:
        """The plain CSV a user holds, and the ground truth mined from it."""
        d.mkdir(parents=True, exist_ok=True)
        write_raw_csv(_synthesize(self.schema, p["n"], p["data_seed"]), d / "plain.csv",
                      p["raw_seed"])
        run(_mine_args(self.schema, d / "plain.csv", d / "truth"))

    def client_dir(self, setup_dir: Path, iteration_dir: Path, table: str) -> Path:
        raise NotImplementedError

    def remine(self, table: str, p: dict) -> bool:
        """Whether the gate re-mines this table in process."""
        return True

    def gate(self, p: dict, d: Path, setup_dir: Path, iteration_dirs: list[Path]) -> dict:
        failures: list[str] = []
        data = _synthesize(self.schema, p["n"], p["data_seed"])
        _check_brute_force(data, setup_dir / "truth" / "itemsets.csv", failures)
        first = iteration_dirs[0]
        sample = _sample_indices(p["n"], p["sample_seed"])
        mechanisms = {t: _check_table(t, self.client_dir(setup_dir, first, t), first / t, data,
                                      sample, seed, self.remine(t, p), failures)
                      for t, seed in p["seeds"].items()}
        return {"failures": failures, "mechanisms": mechanisms,
                "accuracy": _headline_accuracy(mechanisms)}


class Roundtrip(_CsvWorkload):
    """Deployment path on a plain census CSV: perturb --input, then mine
    --metadata and evaluate, for det-gd and ran-gd."""

    name = "roundtrip-census-50k"
    schema = "census"
    records = 50_000
    tables = ("det-gd", "ran-gd")

    def iterate(self, run, p: dict, d: Path, setup_dir: Path) -> None:
        for m in self.tables:
            client = self.client_dir(setup_dir, d, m)
            run(["perturb", "--schema", self.schema, "--input", str(setup_dir / "plain.csv"),
                 "--mechanism", m, "--gamma", GAMMA, "--seed", str(p["seeds"][m]),
                 "--out", str(client)], records=p["n"])
            run(_mine_args(self.schema, client / "perturbed.csv", d / m / "mined",
                           client / "metadata.json"), records=p["n"])
            run(_evaluate_args(self.schema, d / m / "mined", setup_dir / "truth",
                               d / m / "scores"))

    def client_dir(self, setup_dir: Path, iteration_dir: Path, table: str) -> Path:
        return iteration_dir / table / "client"


class MineBool(_CsvWorkload):
    """Miner side only on health tables perturbed in set-up with MASK and
    cut-and-paste: mine --metadata and evaluate on every table.

    The mined itemsets at lengths 3+ are mostly perturbation noise (condition
    numbers 550 to 1e17), so one table's mining cost swings with its seed by
    about 20 %. Each mechanism therefore gets four perturbation seeds, and an
    iteration mines all eight tables. The gate re-mines one table per
    mechanism, chosen by the seed, to stay within the run's time budget."""

    name = "minebool-health-50k"
    schema = "health"
    records = 50_000
    tables = tuple(f"{m}#{k}" for m in ("mask", "cut-paste") for k in range(HEALTH_TABLES))

    def setup(self, run, p: dict, d: Path) -> None:
        super().setup(run, p, d)
        for table, seed in p["seeds"].items():
            run(["perturb", "--schema", self.schema, "--synthetic", "reference",
                 "--n-records", str(p["n"]), "--data-seed", str(p["data_seed"]),
                 "--mechanism", table.split("#")[0], "--gamma", GAMMA, "--seed", str(seed),
                 "--out", str(d / table)], records=p["n"])

    def iterate(self, run, p: dict, d: Path, setup_dir: Path) -> None:
        for table in self.tables:
            client = self.client_dir(setup_dir, d, table)
            run(_mine_args(self.schema, client / "perturbed_bits.csv", d / table / "mined",
                           client / "metadata.json"), records=p["n"])
            run(_evaluate_args(self.schema, d / table / "mined", setup_dir / "truth",
                               d / table / "scores"))

    def client_dir(self, setup_dir: Path, iteration_dir: Path, table: str) -> Path:
        return setup_dir / table

    def remine(self, table: str, p: dict) -> bool:
        return int(table.split("#")[1]) == p["sample_seed"] % HEALTH_TABLES


class Compare:
    """The paper's experiment: privmine compare on one synthetic census table,
    all four mechanisms, five perturbation seeds, no alpha sweep."""

    name = "compare-census-50k"
    schema = "census"
    records = 50_000
    mechanisms = ("det-gd", "ran-gd", "mask", "cut-paste")
    prefix_rows = 512  # rows perturbed in-process by the gate's reference check

    def params(self, seed: int, scale: float) -> dict:
        return {
            "n": _records(self.records, scale),
            "data_seed": derive_seed(seed, "data"),
            "seeds": [derive_seed(seed, f"perturb-{k}") for k in range(5)],
            "sample_seed": seed,
        }

    def setup(self, run, p: dict, d: Path) -> None:
        import privmine

        data = _synthesize(self.schema, p["n"], p["data_seed"])
        write_itemsets(privmine.apriori_plain(data, float(SUP_MIN)), data.schema,
                       d / "truth" / "itemsets.csv")

    def iterate(self, run, p: dict, d: Path, setup_dir: Path) -> None:
        run(["compare", "--schema", self.schema, "--synthetic", "reference",
             "--n-records", str(p["n"]), "--data-seed", str(p["data_seed"]),
             "--mechanisms", ",".join(self.mechanisms), "--gamma", GAMMA,
             "--sup-min", SUP_MIN, "--seeds", ",".join(map(str, p["seeds"])),
             "--out", str(d / "compare")])

    def gate(self, p: dict, d: Path, setup_dir: Path, iteration_dirs: list[Path]) -> dict:
        import privmine

        failures: list[str] = []
        data = _synthesize(self.schema, p["n"], p["data_seed"])
        truth_path = setup_dir / "truth" / "itemsets.csv"
        _check_brute_force(data, truth_path, failures)
        out = iteration_dirs[0] / "compare"
        summary = json.loads((out / "summary.json").read_text())
        truth_counts: dict[str, int] = {}
        for length, _ in read_itemsets(truth_path).values():
            truth_counts[str(length)] = truth_counts.get(str(length), 0) + 1
        if summary["true_counts_per_length"] != truth_counts:
            failures.append("compare: true_counts_per_length differs from plain mining")

        # compare writes no perturbed rows: check the dataset-level functions it
        # calls, with its first seed, on a prefix of its table (row i depends
        # only on (seed, i), so the prefix rows equal the full table's rows)
        n_prefix = min(self.prefix_rows, p["n"])
        prefix = privmine.Dataset(data.schema, data.codes[:n_prefix])
        sample = _sample_indices(n_prefix, p["sample_seed"])
        seed = p["seeds"][0]
        base = privmine.GammaDiagonalSpec(float(GAMMA), data.schema)
        config = summary["config"]
        specs = {
            "det-gd": base,
            "ran-gd": privmine.RandomizedGammaSpec.from_fraction(base, config["alpha_fraction"]),
            "mask": privmine.MaskSpec(config["mask_p"], data.schema),
            "cut-paste": privmine.CutPasteSpec(config["cp_k"], config["cp_rho"], data.schema),
        }
        for m, spec in specs.items():
            if m in ("det-gd", "ran-gd"):
                codes = privmine.perturb_dataset(prefix, spec, seed).codes
                rows = {i: [data.schema.attributes[j].categories[v]
                            for j, v in enumerate(codes[i])] for i in sample}
            else:
                dataset_fn = privmine.mask_dataset if m == "mask" else privmine.cut_paste_dataset
                bits = dataset_fn(prefix, spec, seed).bits
                rows = {i: [str(int(b)) for b in bits[i]] for i in sample}
            _check_sample(m, rows, sample, data, spec, seed, failures)

        mechanisms = {}
        per_length = _compare_per_length(out)
        conds: dict[str, list] = {}
        with open(out / "cond_number.csv", newline="") as fh:
            for m, _, cond in list(csv.reader(fh))[1:]:
                conds.setdefault(m, []).append(float(cond))
        for m in self.mechanisms:
            stats = summary["mechanisms"][m]
            overall = {k: stats[k] for k in
                       ("support_error_pct", "false_positive_pct", "false_negative_pct")}
            mechanisms[m] = _mechanism_info({"overall": overall, "per_length": per_length[m]},
                                            stats["negative_estimates_mean"], conds[m])
        return {"failures": failures, "mechanisms": mechanisms,
                "accuracy": _headline_accuracy(mechanisms)}


def _compare_per_length(out: Path) -> dict[str, list[dict]]:
    """Seed-mean accuracy per mechanism and length from compare's tables."""
    rows: dict[tuple[str, int], dict] = {}
    for table in ("support_error.csv", "identity_error.csv"):
        with open(out / table, newline="") as fh:
            for row in csv.DictReader(fh):
                entry = rows.setdefault((row["mechanism"], int(row["length"])),
                                        {"length": int(row["length"])})
                for key, value in row.items():
                    if key not in ("mechanism", "length"):
                        entry[key] = float(value) if value != "" else None
    per_length: dict[str, list[dict]] = {}
    for (m, _), entry in sorted(rows.items()):
        per_length.setdefault(m, []).append(entry)
    return per_length


WORKLOADS = {w.name: w for w in (Roundtrip(), MineBool(), Compare())}
