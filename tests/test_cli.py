"""Command-line interface: subcommands, files, exit codes."""

import csv
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
import warnings

import pytest

import privmine
from privmine import (
    CutPasteSpec,
    GammaDiagonalSpec,
    MaskSpec,
    RandomizedGammaSpec,
    builtin_schema,
    generate_synthetic,
    ingest_csv,
    mask_p_for_gamma,
    perturb_chain,
    posterior_range,
    record_rng,
    schema_fingerprint,
    write_csv,
)
from privmine.cli import main
from privmine.perturb import MECHANISMS, perturb_tables

from helpers import make_schema

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ADULT_COLUMN_MAP = "age=0,fnlwgt=2,hours-per-week=12,race=8,sex=9,native-country=13"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# privacy
# ---------------------------------------------------------------------------

def test_privacy_target_output(capsys):
    code, out, _ = run(capsys, "privacy", "--rho1", "0.05", "--rho2", "0.5")
    assert code == 0
    assert "gamma = 19" in out
    assert "worst-case posterior = 50.0000%" in out


def test_privacy_posterior_range(capsys):
    code, out, _ = run(capsys, "privacy", "--rho1", "0.05", "--rho2", "0.5",
                       "--domain-size", "2000", "--alpha-frac", "0.5")
    assert code == 0
    line = [l for l in out.splitlines() if "posterior range" in l][0]
    low, high = posterior_range(0.05, 19.0, 0.5, 2000)
    assert f"{low * 100:.4f}%" in line
    assert f"{high * 100:.4f}%" in line
    assert 33.0 < low * 100 < 34.0
    assert 60.0 < high * 100 < 60.5


def test_privacy_posterior_range_up_to_one(capsys):
    # at alpha = (n-1)*x the off-diagonal entry reaches 0 and the posterior 1
    code, out, _ = run(capsys, "privacy", "--rho1", "0.05", "--gamma", "19",
                       "--alpha-frac", "0.05263157894736842", "--domain-size", "2")
    assert code == 0
    assert "n = 2: [32.1429%, 100.0000%]" in out


def test_privacy_from_gamma(capsys):
    code, out, _ = run(capsys, "privacy", "--rho1", "0.01", "--gamma", "19")
    assert code == 0
    assert "worst-case posterior = 16.1017%" in out


def test_privacy_rejects_equal_rhos(capsys):
    code, _, err = run(capsys, "privacy", "--rho1", "0.5", "--rho2", "0.5")
    assert code == 1
    assert "error" in err


def test_privacy_needs_rho2_or_gamma(capsys):
    code, _, err = run(capsys, "privacy", "--rho1", "0.05")
    assert code == 1
    assert "error" in err


def test_privacy_rejects_invalid_rho_pair_with_gamma(capsys):
    code, _, err = run(capsys, "privacy", "--rho1", "0.5", "--rho2", "0.1", "--gamma", "19")
    assert code == 1
    assert err.startswith("error: invalid privacy target")


@pytest.mark.parametrize("flag, value", [("--gamma", "inf"), ("--rho1", "inf")])
def test_privacy_rejects_non_finite_numbers(capsys, flag, value):
    args = {"--rho1": "0.05", "--gamma": "19", flag: value}
    code, _, err = run(capsys, "privacy", *[t for kv in args.items() for t in kv])
    assert code == 1
    assert err.startswith("error:") and value in err


@pytest.mark.parametrize("extra", [("--domain-size", "1"),
                                   ("--alpha-frac", "inf", "--domain-size", "10")])
def test_privacy_checks_before_it_prints(capsys, extra):
    code, out, err = run(capsys, "privacy", "--rho1", "0.05", "--rho2", "0.5", *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_unknown_subcommand_exits_with_validation_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------

def test_perturb_det_gd_files(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "perturb", "--schema", "census",
                          "--synthetic", "uniform", "--n-records", "500",
                          "--mechanism", "det-gd", "--gamma", "19",
                          "--seed", "7", "--out", str(out))
    assert code == 0
    assert "500 records" in stdout
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["mechanism"] == "det-gd"
    assert meta["gamma"] == 19.0
    assert meta["n_records"] == 500
    assert "seed" not in meta  # the seed stays client-side
    with open(out / "perturbed.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 501  # header plus one row per record


def test_perturb_reruns_are_byte_identical(tmp_path, capsys):
    args = ("perturb", "--schema", "census", "--synthetic", "uniform",
            "--n-records", "300", "--mechanism", "ran-gd", "--rho1", "0.05",
            "--rho2", "0.5", "--alpha-frac", "0.5", "--seed", "3")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert (a / "perturbed.csv").read_bytes() == (b / "perturbed.csv").read_bytes()
    assert (a / "metadata.json").read_bytes() == (b / "metadata.json").read_bytes()
    meta = json.loads((a / "metadata.json").read_text())
    assert meta["alpha"] == pytest.approx(0.5 * 19.0 / 2018.0, abs=1e-15)


def test_perturb_mask_census_boolean_csv(tmp_path, capsys):
    out = tmp_path / "mask"
    code, _, _ = run(capsys, "perturb", "--schema", "census",
                     "--synthetic", "uniform", "--n-records", "200",
                     "--mechanism", "mask", "--gamma", "19",
                     "--seed", "5", "--out", str(out))
    assert code == 0
    with open(out / "perturbed_bits.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 201
    assert len(rows[0]) == 23  # one column per category bit
    assert rows[0][0] == "age=(15-35]"
    assert set(v for row in rows[1:] for v in row) <= {"0", "1"}
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["mask_p"] == pytest.approx(mask_p_for_gamma(19.0, 6), abs=1e-12)


@pytest.mark.parametrize("mechanism, params", [
    ("det-gd", []),
    ("ran-gd", ["alpha_fraction", "alpha"]),
    ("mask", ["mask_p"]),
    ("cut-paste", ["cp_k", "cp_rho"]),
])
def test_perturb_metadata_keys_in_order(tmp_path, capsys, mechanism, params):
    """The miner and perfbench/workloads.py read the public parameters back
    from these keys; the order keeps metadata.json byte-stable."""
    out = tmp_path / mechanism
    code, _, _ = run(capsys, "perturb", "--schema", "census", "--synthetic", "uniform",
                     "--n-records", "50", "--mechanism", mechanism, "--gamma", "19",
                     "--seed", "1", "--out", str(out))
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert list(meta) == ["mechanism", "schema_name", "schema_fingerprint", "n_records",
                          "gamma", "x", "domain_size", *params]


def test_perturb_ingests_csv_with_column_map(tmp_path, capsys, data_dir):
    out = tmp_path / "adult"
    code, stdout, _ = run(capsys, "perturb", "--schema", "census",
                          "--input", str(data_dir / "adult_sample.csv"),
                          "--column-map", ADULT_COLUMN_MAP,
                          "--mechanism", "det-gd", "--gamma", "19",
                          "--seed", "1", "--out", str(out))
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["n_records"] == 7  # two unparseable rows skipped
    with open(out / "perturbed.csv") as fh:
        assert len(list(csv.reader(fh))) == 8


@pytest.mark.parametrize("argv", [
    ("perturb", "--mechanism", "det-gd", "--seed", "-1"),
    ("compare", "--sup-min", "0.1", "--seeds", "1,-1"),
])
def test_negative_seed_is_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--schema", "census", "--synthetic", "uniform", "--gamma", "19",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}:" in err and "-1" in err


def test_perturb_seed_past_32_bits(tmp_path, capsys):
    args = ("perturb", "--schema", "census", "--synthetic", "uniform",
            "--n-records", "300", "--mechanism", "det-gd", "--gamma", "19")
    big = str(2 ** 32)
    a, b, zero = tmp_path / "a", tmp_path / "b", tmp_path / "zero"
    assert run(capsys, *args, "--seed", big, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--seed", big, "--out", str(b))[0] == 0
    assert run(capsys, *args, "--seed", "0", "--out", str(zero))[0] == 0
    assert (a / "perturbed.csv").read_bytes() == (b / "perturbed.csv").read_bytes()
    # the seed is not truncated to its low 32 bits
    assert (a / "perturbed.csv").read_bytes() != (zero / "perturbed.csv").read_bytes()
    # row i comes from record i's stream under the full seed
    schema = builtin_schema("census")
    original = generate_synthetic(schema, 300, "uniform", seed=0)
    perturbed = ingest_csv(str(a / "perturbed.csv"), schema)
    spec = GammaDiagonalSpec(19.0, schema)
    for i in (0, 1, 150, 299):
        expect = perturb_chain(original.record(i), spec.diag, spec.off, schema,
                               record_rng(2 ** 32, i))
        assert perturbed.record(i) == expect


@pytest.mark.parametrize("mechanism", ["det-gd", "ran-gd", "mask", "cut-paste"])
def test_perturb_header_only_and_one_record(tmp_path, capsys, mechanism):
    schema = builtin_schema("census")
    one = tmp_path / "one.csv"
    write_csv(generate_synthetic(schema, 1, "uniform", seed=0), str(one))
    header, row = one.read_text().splitlines()
    empty = tmp_path / "empty.csv"
    empty.write_text(header + "\n")
    for path, n_rows in ((empty, 0), (one, 1)):
        out = tmp_path / f"out-{n_rows}"
        code, _, err = run(capsys, "perturb", "--schema", "census", "--input", str(path),
                           "--mechanism", mechanism, "--gamma", "19", "--seed", "3",
                           "--out", str(out))
        assert code == 0, err
        written = next(out.glob("perturbed*.csv")).read_text().splitlines()
        assert len(written) == 1 + n_rows
        assert json.loads((out / "metadata.json").read_text())["n_records"] == n_rows


def test_perturb_rejects_bad_record_count(tmp_path, capsys):
    code, _, err = run(capsys, "perturb", "--schema", "census",
                       "--synthetic", "uniform", "--n-records", "0",
                       "--mechanism", "det-gd", "--gamma", "19",
                       "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("synthetic", ["uniform", "reference"])
def test_perturb_rejects_record_count_past_stream_bound(tmp_path, capsys, synthetic):
    code, _, err = run(capsys, "perturb", "--schema", "census", "--synthetic", synthetic,
                       "--n-records", str(2 ** 64 + 3), "--mechanism", "det-gd",
                       "--gamma", "19", "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == 1
    assert f"record count must lie in [1, 2**32], got {2 ** 64 + 3}" in err
    assert not (tmp_path / "x").exists()


_BAD_ARGUMENTS = [
    # (subcommand, extra argv, text the error line holds)
    ("compare", ["--alpha-sweep", "0,2"], "alpha fraction must lie in [0, 1], got 2"),
    ("compare", ["--alpha-sweep", ","], "','"),
    ("compare", ["--alpha-sweep", "abc"], "'abc'"),
    ("compare", ["--seeds", "1,1"], "'1,1'"),
    ("compare", ["--seeds", "1,x"], "got 'x'"),
    ("compare", ["--seeds", "1,-2"], "got '-2'"),
    ("compare", ["--alpha-sweep", "0,0.5,y"], "not a number: 'y'"),
    ("perturb", ["--mechanism", "det-gd", "--seed", "x"], "got 'x'"),
    ("compare", ["--mechanisms", "det-gd,mask", "--mask-p", "0.3"], "got 0.3"),
    ("compare", ["--mechanisms", "det-gd,cut-paste", "--cp-k", "99"], "got 99"),
    ("perturb", ["--mechanism", "mask", "--mask-p", "0.3"], "got 0.3"),
    ("perturb", ["--mechanism", "cut-paste", "--cp-k", "99"], "got 99"),
    ("perturb", ["--mechanism", "ran-gd", "--alpha-frac", "3"],
     "alpha fraction must lie in [0, 1], got 3"),
    ("perturb", ["--mechanism", "det-gd", "--gamma", "inf"], "got inf"),
    # a given rho pair must be a valid target even when --gamma is set
    ("perturb", ["--mechanism", "det-gd", "--rho1", "0.5", "--rho2", "0.1"],
     "invalid privacy target"),
    ("compare", ["--rho1", "0.5", "--rho2", "0.1"], "invalid privacy target"),
    ("perturb", ["--mechanism", "det-gd", "--data-seed", "-1"],
     "argument --data-seed: seed must be a non-negative integer, got '-1'"),
    ("compare", ["--data-seed", "-1"],
     "argument --data-seed: seed must be a non-negative integer, got '-1'"),
]


@pytest.mark.parametrize("command, extra, message", _BAD_ARGUMENTS,
                         ids=[" ".join([c, *e]) for c, e, _ in _BAD_ARGUMENTS])
def test_bad_argument_exits_before_any_work(tmp_path, capsys, command, extra, message):
    """Every spec is built from argv before data is read or --out created."""
    argv = [command, "--schema", "census", "--synthetic", "uniform", "--n-records", "200",
            "--gamma", "19", "--out", str(tmp_path / "x")]
    argv += ["--sup-min", "0.1", "--seeds", "1"] if command == "compare" else ["--seed", "1"]
    try:
        code = main(argv + extra)  # argparse takes the last of a repeated flag
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and message in err
    assert not any(name in err for name in ("_seed", "_seed_list", "_fraction_list"))
    assert not (tmp_path / "x").exists()


def test_gamma_overrides_a_valid_rho_pair(tmp_path, capsys):
    code, _, _ = run(capsys, "perturb", "--schema", "census", "--synthetic", "uniform",
                     "--n-records", "200", "--mechanism", "det-gd", "--rho1", "0.05",
                     "--rho2", "0.5", "--gamma", "7", "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == 0
    assert json.loads((tmp_path / "x" / "metadata.json").read_text())["gamma"] == 7


# ---------------------------------------------------------------------------
# mine and evaluate
# ---------------------------------------------------------------------------

@pytest.fixture()
def plain_csv(tmp_path):
    schema = builtin_schema("census")
    data = generate_synthetic(schema, 2000, "uniform", seed=0)
    path = tmp_path / "plain.csv"
    write_csv(data, str(path))
    return path


def test_mine_plain_data(tmp_path, capsys, plain_csv):
    out = tmp_path / "truth"
    code, stdout, _ = run(capsys, "mine", "--schema", "census",
                          "--input", str(plain_csv), "--sup-min", "0.05",
                          "--out", str(out))
    assert code == 0
    assert "plain" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mechanism"] == "plain"
    assert summary["sup_min"] == 0.05
    with open(out / "itemsets.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["itemset", "length", "support"]
    assert summary["n_itemsets"] == len(rows) - 1
    assert all(float(r[2]) >= 0.05 for r in rows[1:])


def test_mine_evaluate_pipeline(tmp_path, capsys, plain_csv):
    # full loop: perturb, mine perturbed, mine plain, evaluate
    perturbed = tmp_path / "pert"
    code, _, _ = run(capsys, "perturb", "--schema", "census",
                     "--input", str(plain_csv), "--mechanism", "det-gd",
                     "--gamma", "19", "--seed", "11", "--out", str(perturbed))
    assert code == 0
    mined = tmp_path / "mined"
    code, stdout, _ = run(capsys, "mine", "--schema", "census",
                          "--input", str(perturbed / "perturbed.csv"),
                          "--metadata", str(perturbed / "metadata.json"),
                          "--sup-min", "0.05", "--out", str(mined))
    assert code == 0
    assert "gamma-diagonal" in stdout
    truth = tmp_path / "truth"
    assert run(capsys, "mine", "--schema", "census", "--input", str(plain_csv),
               "--sup-min", "0.05", "--out", str(truth))[0] == 0
    report_dir = tmp_path / "report"
    code, stdout, _ = run(capsys, "evaluate", "--schema", "census",
                          "--found", str(mined), "--truth", str(truth),
                          "--out", str(report_dir))
    assert code == 0
    assert stdout.startswith("overall:")
    blob = json.loads((report_dir / "accuracy.json").read_text())
    assert blob["overall"]["n_true"] > 0
    with open(report_dir / "accuracy.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mechanism", "length", "metric", "value"]
    assert len(rows) > 1


def test_mine_missing_input_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "mine", "--schema", "census",
                       "--input", str(tmp_path / "nope.csv"),
                       "--sup-min", "0.1", "--out", str(tmp_path / "out"))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["mine", "compare"])
def test_sup_min_must_be_finite(tmp_path, capsys, plain_csv, command):
    code, _, err = run(capsys, command, "--schema", "census", "--input", str(plain_csv),
                       "--sup-min", "inf", "--out", str(tmp_path / "out"),
                       *(("--gamma", "19", "--seeds", "1") if command == "compare" else ()))
    assert code == 1
    assert err.startswith("error:") and "inf" in err
    assert not (tmp_path / "out").exists()


def test_mine_singular_mask_matrix_is_numerical_error(tmp_path, capsys):
    # p = 0.5 makes every itemset matrix singular; the failure must surface
    # as the numerical exit code, not as generic validation
    sch_dir = tmp_path / "pert"
    code, _, _ = run(capsys, "perturb", "--schema", "census",
                     "--synthetic", "uniform", "--n-records", "100",
                     "--mechanism", "mask", "--gamma", "19", "--mask-p", "0.5",
                     "--seed", "2", "--out", str(sch_dir))
    assert code == 0
    code, _, err = run(capsys, "mine", "--schema", "census",
                       "--input", str(sch_dir / "perturbed_bits.csv"),
                       "--metadata", str(sch_dir / "metadata.json"),
                       "--sup-min", "0.05", "--out", str(tmp_path / "out"))
    assert code == 3
    assert "numerical" in err


def test_mine_cut_paste_stops_at_k_and_records_why(tmp_path, capsys):
    pert = tmp_path / "pert"
    assert run(capsys, "perturb", "--schema", "census", "--synthetic", "reference",
               "--n-records", "3000", "--mechanism", "cut-paste", "--gamma", "19",
               "--seed", "4", "--out", str(pert))[0] == 0
    mined = tmp_path / "mined"
    code, stdout, _ = run(capsys, "mine", "--schema", "census",
                          "--input", str(pert / "perturbed_bits.csv"),
                          "--metadata", str(pert / "metadata.json"),
                          "--sup-min", "0.02", "--out", str(mined))
    assert code == 0
    summary = json.loads((mined / "summary.json").read_text())
    assert summary["stop_length"] == 3
    assert "condition number" in summary["stop_reason"]
    assert "at length 4" in summary["stop_reason"]
    assert [level["length"] for level in summary["levels"]] == [1, 2, 3]
    assert f"stopped after length 3: {summary['stop_reason']}" in stdout
    with open(mined / "itemsets.csv") as fh:
        assert max(int(row["length"]) for row in csv.DictReader(fh)) == 3


def test_mine_unidentifiable_domain_exits_numerical_fast(tmp_path, capsys):
    # 20 attributes of 10 categories: the gamma-diagonal condition number is
    # (19 + 10**20 - 1)/18, so no length can be reconstructed
    schema = tmp_path / "wide.yaml"
    schema.write_text("attributes:\n" + "".join(
        f"  - name: a{j}\n    categories: [{', '.join(f'c{v}' for v in range(10))}]\n"
        for j in range(20)))
    pert = tmp_path / "pert"
    assert run(capsys, "perturb", "--schema", str(schema), "--synthetic", "uniform",
               "--n-records", "200", "--mechanism", "det-gd", "--gamma", "19",
               "--seed", "1", "--out", str(pert))[0] == 0
    started = time.perf_counter()
    code, _, err = run(capsys, "mine", "--schema", str(schema),
                       "--input", str(pert / "perturbed.csv"),
                       "--metadata", str(pert / "metadata.json"),
                       "--sup-min", "0.02", "--out", str(tmp_path / "out"))
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert "condition number 5.56e+18 at length 1 exceeds 1e+12" in err


def test_malformed_schema_yaml_is_validation_error(tmp_path, capsys):
    schema = tmp_path / "broken.yaml"
    schema.write_text("attributes:\n  - name: a\n    categories: [x, y\n")
    code, _, err = run(capsys, "perturb", "--schema", str(schema), "--synthetic", "uniform",
                       "--n-records", "10", "--mechanism", "det-gd", "--gamma", "19",
                       "--seed", "1", "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error: malformed YAML config")


def test_evaluate_reads_reordered_and_default_labels(tmp_path, capsys, plain_csv):
    # labels in another attribute order read back; an item is read exactly, so
    # a category only ingest's default would map is an error
    truth = tmp_path / "truth"
    assert run(capsys, "mine", "--schema", "census", "--input", str(plain_csv),
               "--sup-min", "0.05", "--out", str(truth))[0] == 0
    found = tmp_path / "found"
    shutil.copytree(truth, found)
    with open(truth / "itemsets.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    reordered = [rows[0]] + [[";".join(label.split(";")[::-1]), length, support]
                             for label, length, support in rows[1:]]
    assert any(";" in row[0] for row in reordered[1:])
    with open(found / "itemsets.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(reordered)
    code, stdout, _ = run(capsys, "evaluate", "--schema", "census", "--found", str(found),
                          "--truth", str(truth), "--out", str(tmp_path / "report"))
    assert code == 0
    assert "support error 0.00%, false positives 0.00%, false negatives 0.00%" in stdout
    for item in ("native-country=Atlantis", "sex=Male;colour=blue"):
        relabelled = [[label.replace("native-country=Other", item), *rest]
                      for label, *rest in reordered]
        assert relabelled != reordered
        with open(found / "itemsets.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(relabelled)
        code, _, err = run(capsys, "evaluate", "--schema", "census", "--found", str(found),
                           "--truth", str(truth), "--out", str(tmp_path / "bad"))
        assert code == 1
        assert f"unknown item {item.split(';')[-1]!r}" in err, err
        assert not (tmp_path / "bad").exists()


def test_mine_rejects_empty_dataset(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    schema = builtin_schema("census")
    path.write_text(",".join(a.name for a in schema.attributes) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "mine", "--schema", "census", "--input", str(path),
                           "--sup-min", "0.1", "--out", str(tmp_path / "out"))
    assert code == 1
    assert "empty dataset" in err



def _mask_tables(tmp_path, capsys):
    out = tmp_path / "mask"
    assert run(capsys, "perturb", "--schema", "census", "--synthetic", "uniform",
               "--n-records", "50", "--mechanism", "mask", "--gamma", "19",
               "--seed", "2", "--out", str(out))[0] == 0
    return out / "perturbed_bits.csv", out / "metadata.json"


def test_mine_rejects_header_only_boolean_table(tmp_path, capsys):
    bits, meta = _mask_tables(tmp_path, capsys)
    bits.write_text(bits.read_text().splitlines()[0] + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "mine", "--schema", "census", "--input", str(bits),
                           "--metadata", str(meta), "--sup-min", "0.1",
                           "--out", str(tmp_path / "out"))
    assert code == 1
    assert "empty dataset" in err


@pytest.mark.parametrize("header", ["none", "foreign"])
def test_mine_rejects_a_bit_table_without_the_schemas_header(tmp_path, capsys, header):
    # read as a header, a header-less table's first record would be lost
    bits, meta = _mask_tables(tmp_path, capsys)
    lines = bits.read_text().splitlines()
    foreign = make_schema(*builtin_schema("census").sizes).item_labels  # the same width
    lines[0:1] = [] if header == "none" else [",".join(foreign)]
    bits.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "mine", "--schema", "census", "--input", str(bits),
                       "--metadata", str(meta), "--sup-min", "0.1",
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith(f"error: {bits}: the header is not the item labels of schema"), err
    assert not (tmp_path / "out").exists()


def test_mine_rejects_boolean_cell_other_than_0_1(tmp_path, capsys):
    bits, meta = _mask_tables(tmp_path, capsys)
    lines = bits.read_text().splitlines()
    lines[3] = "2" + lines[3][1:]
    bits.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "mine", "--schema", "census", "--input", str(bits),
                       "--metadata", str(meta), "--sup-min", "0.1",
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert "row 4: expected 23 cells of 0 or 1" in err


@pytest.mark.parametrize("metadata", [None, "det-gd", "ran-gd"])
def test_mine_names_a_bit_table_read_as_a_label_table(tmp_path, capsys, metadata):
    # every row of it used to be skipped, ending in "cannot mine an empty dataset"
    bits, _ = _mask_tables(tmp_path, capsys)
    argv = ["mine", "--schema", "census", "--input", str(bits), "--sup-min", "0.1",
            "--out", str(tmp_path / "out")]
    expect = f"error: {bits} is a bit table, not a label table"
    if metadata is not None:
        gd = tmp_path / metadata
        assert run(capsys, "perturb", "--schema", "census", "--synthetic", "uniform",
                   "--n-records", "5", "--mechanism", metadata, "--gamma", "19",
                   "--seed", "1", "--out", str(gd))[0] == 0
        argv += ["--metadata", str(gd / "metadata.json")]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(expect), err
    assert "schema 'census'" in err
    if metadata is not None:
        assert f"{gd / 'metadata.json'} names mechanism '{metadata}'" in err
    assert not (tmp_path / "out").exists()


def test_mine_metadata_label_table_honours_ingest_flags(tmp_path, capsys):
    pert = tmp_path / "pert"
    assert run(capsys, "perturb", "--schema", "census", "--synthetic", "uniform",
               "--n-records", "20", "--mechanism", "det-gd", "--gamma", "19",
               "--seed", "1", "--out", str(pert))[0] == 0
    table = pert / "perturbed.csv"
    lines = table.read_text().splitlines()
    lines[4] = "bogus,row,here,x,y,z"
    table.write_text("\n".join(lines) + "\n")
    common = ("mine", "--schema", "census", "--input", str(table),
              "--metadata", str(pert / "metadata.json"), "--sup-min", "0.1")
    code, _, err = run(capsys, *common, "--on-error", "abort", "--out", str(tmp_path / "a"))
    assert code == 1
    assert "row 5" in err
    assert not (tmp_path / "a").exists()
    assert run(capsys, *common, "--out", str(tmp_path / "s"))[0] == 0


@pytest.mark.parametrize("mechanism", ["mask", "cut-paste"])
@pytest.mark.parametrize("flags", [["--column-map", "age=0"], ["--on-error", "abort"],
                                   ["--clamp"]])
def test_mine_metadata_bit_table_rejects_ingest_flags(tmp_path, capsys, mechanism, flags):
    pert = tmp_path / "pert"
    assert run(capsys, "perturb", "--schema", "census", "--synthetic", "uniform",
               "--n-records", "20", "--mechanism", mechanism, "--gamma", "19",
               "--seed", "1", "--out", str(pert))[0] == 0
    code, _, err = run(capsys, "mine", "--schema", "census",
                       "--input", str(pert / "perturbed_bits.csv"),
                       "--metadata", str(pert / "metadata.json"), "--sup-min", "0.1",
                       *flags, "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error:") and "label tables only" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("attributes, message", [
    ("[x]", "attribute 'x' is not a mapping"),
    ("5", "'attributes' must be a list"),
])
def test_malformed_schema_shape_is_validation_error(tmp_path, capsys, attributes, message):
    schema = tmp_path / "shape.yaml"
    schema.write_text(f"attributes: {attributes}\n")
    code, _, err = run(capsys, "perturb", "--schema", str(schema), "--synthetic", "uniform",
                       "--n-records", "10", "--mechanism", "det-gd", "--gamma", "19",
                       "--seed", "1", "--out", str(tmp_path / "out"))
    assert code == 1
    assert message in err


def test_schema_label_with_surrounding_whitespace_is_rejected(tmp_path, capsys):
    schema = tmp_path / "padded.yaml"
    schema.write_text("attributes:\n  - name: a\n    categories: [' x', y]\n")
    code, _, err = run(capsys, "perturb", "--schema", str(schema), "--synthetic", "uniform",
                       "--n-records", "10", "--mechanism", "det-gd", "--gamma", "19",
                       "--seed", "1", "--out", str(tmp_path / "out"))
    assert code == 1
    assert "surrounding whitespace" in err


def test_schema_label_with_itemset_separator_is_rejected(tmp_path, capsys):
    schema = tmp_path / "separator.yaml"
    schema.write_text("attributes:\n  - name: a\n    categories: [z, w]\n"
                      "  - name: b\n    categories: ['p;a=z', q]\n    default: q\n")
    code, _, err = run(capsys, "perturb", "--schema", str(schema), "--synthetic", "uniform",
                       "--n-records", "10", "--mechanism", "det-gd", "--gamma", "19",
                       "--seed", "1", "--out", str(tmp_path / "out"))
    assert code == 1
    assert "contain ';'" in err


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """A schema, table and result files with a non-ASCII label go through
    ``mine`` and ``evaluate`` under an ASCII locale, to the same bytes as
    under UTF-8: every file the CLI reads or writes is UTF-8."""
    (tmp_path / "s.yaml").write_text("attributes:\n"
                                     "  - name: city\n    categories: [Zürich, Basel]\n"
                                     "  - name: size\n    categories: [small, large]\n",
                                     encoding="utf-8")
    (tmp_path / "t.csv").write_text("city,size\nZürich,small\nZürich,large\nBasel,small\n",
                                    encoding="utf-8")
    package_root = str(pathlib.Path(privmine.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join([package_root, *filter(None, [os.environ.get("PYTHONPATH")])])
    itemsets = []
    for utf8, locale in (("0", "C"), ("1", "C.UTF-8")):
        env = dict(os.environ, PYTHONPATH=pythonpath, LC_ALL=locale, PYTHONCOERCECLOCALE="0")
        out = tmp_path / f"utf8-{utf8}"
        for argv in (["mine", "--schema", "s.yaml", "--input", "t.csv", "--sup-min", "0.2",
                      "--out", str(out / "mined")],
                     ["evaluate", "--schema", "s.yaml", "--found", str(out / "mined"),
                      "--truth", str(out / "mined"), "--out", str(out / "eval")]):
            proc = subprocess.run([sys.executable, "-X", f"utf8={utf8}", "-m", "privmine.cli",
                                   *argv], capture_output=True, text=True, timeout=120,
                                  env=env, cwd=tmp_path)
            assert proc.returncode == 0, (locale, proc.stderr)
        itemsets.append((out / "mined" / "itemsets.csv").read_bytes())
    assert "city=Zürich,1,".encode() in itemsets[0]
    assert itemsets[0] == itemsets[1]


def test_mine_warns_about_skipped_rows(tmp_path, data_dir):
    """The skipped-rows count reaches stderr with no logging set up: the
    adult sample loses rows 6 (missing race) and 9 (age below the bins)."""
    package_root = str(pathlib.Path(privmine.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "privmine.cli", "mine", "--schema", "census",
         "--input", str(data_dir / "adult_sample.csv"), "--column-map", ADULT_COLUMN_MAP,
         "--sup-min", "0.3", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "skipped 2 rows with missing or unparseable values" in proc.stderr


@pytest.mark.parametrize("on_error", ["skip", "abort"])
def test_mine_field_past_csv_limit_is_validation_error(tmp_path, on_error):
    """A field longer than csv.field_size_limit() ends ``mine`` with an
    ``error:`` line naming the file, not a traceback."""
    path = tmp_path / "long.csv"
    path.write_text("age,fnlwgt,hours-per-week,race,sex,native-country\n"
                    f"30,50000,40,{'x' * 140_000},Male,United-States\n")
    package_root = str(pathlib.Path(privmine.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "privmine.cli", "mine", "--schema", "census",
         "--input", str(path), "--on-error", on_error, "--sup-min", "0.3",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert f"error: {path}: field larger than field limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_mine_rejects_foreign_metadata(tmp_path, capsys, plain_csv):
    pert = tmp_path / "pert"
    assert run(capsys, "perturb", "--schema", "census", "--input", str(plain_csv),
               "--mechanism", "det-gd", "--gamma", "19", "--seed", "1",
               "--out", str(pert))[0] == 0
    code, _, err = run(capsys, "mine", "--schema", "health",
                       "--input", str(pert / "perturbed.csv"),
                       "--metadata", str(pert / "metadata.json"),
                       "--sup-min", "0.05", "--out", str(tmp_path / "out"))
    assert code == 1
    assert "different schema" in err


@pytest.mark.parametrize("edit, message", [
    (lambda meta: [1], "must hold a JSON object, got list"),
    (lambda meta: {**meta, "gamma": "19"}, "'gamma' must be a number, got '19'"),
    (lambda meta: {**meta, "mechanism": "cut-paste", "cp_k": 1.5, "cp_rho": 0.3},
     "'cp_k' must be an integer, got 1.5"),
], ids=["list", "string-gamma", "fractional-cp-k"])
def test_mine_rejects_malformed_metadata(tmp_path, capsys, edit, message):
    pert = tmp_path / "pert"
    assert run(capsys, "perturb", "--schema", "census", "--synthetic", "uniform",
               "--n-records", "200", "--mechanism", "det-gd", "--gamma", "19",
               "--seed", "1", "--out", str(pert))[0] == 0
    path = pert / "metadata.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, _, err = run(capsys, "mine", "--schema", "census",
                       "--input", str(pert / "perturbed.csv"), "--metadata", str(path),
                       "--sup-min", "0.1", "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mechanism, key", [
    ("det-gd", "schema_fingerprint"), ("det-gd", "gamma"), ("det-gd", "mechanism"),
    ("ran-gd", "alpha"), ("mask", "mask_p"), ("cut-paste", "cp_k"), ("cut-paste", "cp_rho"),
])
def test_mine_names_a_missing_metadata_key(tmp_path, capsys, mechanism, key):
    params = {"ran-gd": {"alpha": 0.001}, "mask": {"mask_p": 0.9},
              "cut-paste": {"cp_k": 2, "cp_rho": 0.3}}.get(mechanism, {})
    meta = {"mechanism": mechanism, "gamma": 19.0,
            "schema_fingerprint": schema_fingerprint(builtin_schema("census")), **params}
    del meta[key]
    path = tmp_path / "metadata.json"
    path.write_text(json.dumps(meta))
    code, _, err = run(capsys, "mine", "--schema", "census", "--input", str(tmp_path / "t.csv"),
                       "--metadata", str(path), "--sup-min", "0.1", "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == f'error: {path} lacks "{key}"\n'
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mechanism", ["det-gd", "ran-gd", "mask", "cut-paste"])
def test_metadata_rebuilds_the_spec_perturb_used(tmp_path, capsys, mechanism):
    # the miner's spec, rebuilt from metadata.json, is the client's: equal to
    # the one built here from the same options, and perturbing with that one
    # writes the same table
    schema = builtin_schema("census")
    base = GammaDiagonalSpec(19.0, schema)
    used = {"det-gd": base, "ran-gd": RandomizedGammaSpec.from_fraction(base, 0.3),
            "mask": MaskSpec(mask_p_for_gamma(19.0, schema.n_attributes), schema),
            "cut-paste": CutPasteSpec(2, 0.25, schema)}[mechanism]
    out = tmp_path / "pert"
    assert run(capsys, "perturb", "--schema", "census", "--synthetic", "uniform",
               "--n-records", "300", "--data-seed", "4", "--mechanism", mechanism,
               "--gamma", "19", "--alpha-frac", "0.3", "--cp-k", "2", "--cp-rho", "0.25",
               "--seed", "8", "--out", str(out))[0] == 0
    meta = json.loads((out / "metadata.json").read_text())
    (kind,) = [m for m in MECHANISMS if m.name == meta["mechanism"]]
    rebuilt = kind.from_metadata(GammaDiagonalSpec(meta["gamma"], schema), meta)
    assert type(rebuilt) is type(used) and rebuilt == used
    expect = perturb_tables(generate_synthetic(schema, 300, "uniform", 4), [used], 8)[0]
    if rebuilt.table is privmine.Dataset:
        assert (ingest_csv(str(out / "perturbed.csv"), schema).codes == expect.codes).all()
    else:
        bits = privmine.read_boolean_csv(str(out / "perturbed_bits.csv"), schema).bits
        assert (bits == expect.bits).all()


def test_evaluate_rejects_non_object_summary(tmp_path, capsys, plain_csv):
    truth = tmp_path / "truth"
    assert run(capsys, "mine", "--schema", "census", "--input", str(plain_csv),
               "--sup-min", "0.1", "--out", str(truth))[0] == 0
    (truth / "summary.json").write_text("[]\n")
    code, _, err = run(capsys, "evaluate", "--schema", "census", "--found", str(truth),
                       "--truth", str(truth), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error:") and "must hold a JSON object, got list" in err
    assert not (tmp_path / "out").exists()


def test_evaluate_rejects_empty_itemsets_file(tmp_path, capsys):
    found = tmp_path / "found"
    found.mkdir()
    (found / "summary.json").write_text('{"sup_min": 0.1, "mechanism": "x"}\n')
    (found / "itemsets.csv").write_text("")
    code, _, err = run(capsys, "evaluate", "--schema", "census", "--found", str(found),
                       "--truth", str(found), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == f"error: {found / 'itemsets.csv'} is empty: it has no header row\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["sup_min", "mechanism"])
def test_evaluate_names_a_missing_summary_key(tmp_path, capsys, key):
    found = tmp_path / "found"
    found.mkdir()
    summary = {"sup_min": 0.1, "mechanism": "x"}
    del summary[key]
    (found / "summary.json").write_text(json.dumps(summary) + "\n")
    (found / "itemsets.csv").write_text("itemset,length,support\n")
    code, _, err = run(capsys, "evaluate", "--schema", "health", "--found", str(found),
                       "--truth", str(found), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == f'error: {found / "summary.json"} lacks "{key}"\n'
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sup_min", ["-1", "0", "Infinity", "NaN"])
def test_evaluate_rejects_a_threshold_mine_would_reject(tmp_path, capsys, sup_min):
    # a result's sup_min obeys mine's rule, 0 < sup_min < inf, even where no
    # itemset is there to break it
    for name in ("found", "truth"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(
            f'{{"sup_min": {sup_min}, "mechanism": "x"}}\n')
        (tmp_path / name / "itemsets.csv").write_text("itemset,length,support\n")
    code, _, err = run(capsys, "evaluate", "--schema", "census", "--found",
                       str(tmp_path / "found"), "--truth", str(tmp_path / "truth"),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith(f"error: {tmp_path / 'found' / 'summary.json'}: sup_min must be"), err
    assert not (tmp_path / "out").exists()


_BAD_ITEMSET_ROWS = [
    # (the second row of itemsets.csv, text the error line holds after the path)
    ("AGE=(0-20],1,nan", ": itemset ((0, 0),) support nan lies outside [0.1, inf)"),
    ("AGE=(0-20],1,inf", ": itemset ((0, 0),) support inf lies outside [0.1, inf)"),
    ("BDDAY12=>60,1", " row 3: not enough values to unpack"),
    ("BDDAY12=>60,2,0.5", ": itemset ((1, 4),) filed under length 2"),
    ("BDDAY12=>60,x,0.5", " row 3: invalid literal for int()"),
    ("BDDAY12=none,1,0.5", " row 3: unknown item 'BDDAY12=none'"),
    ("AGE=(20-40],1,0.99", " row 3: itemset 'AGE=(20-40]' repeated"),
    ("AGE=(0-20];AGE=(20-40],2,0.5",
     " row 3: itemset attributes must be sorted and distinct: ((0, 0), (0, 1))"),
]


@pytest.mark.parametrize("row, message", _BAD_ITEMSET_ROWS, ids=[r for r, _ in _BAD_ITEMSET_ROWS])
def test_evaluate_names_the_file_and_row_of_a_bad_itemset(tmp_path, capsys, row, message):
    # the header is row 1, so the second itemset is row 3; a support must be
    # a number in [sup_min, inf), which NaN is not
    found = tmp_path / "found"
    found.mkdir()
    (found / "summary.json").write_text('{"sup_min": 0.1, "mechanism": "x"}\n')
    (found / "itemsets.csv").write_text(f"itemset,length,support\nAGE=(20-40],1,0.5\n{row}\n")
    code, _, err = run(capsys, "evaluate", "--schema", "health", "--found", str(found),
                       "--truth", str(found), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith(f"error: {found / 'itemsets.csv'}{message}"), err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_tables(tmp_path, capsys):
    out = tmp_path / "cmp"
    code, stdout, _ = run(
        capsys, "compare", "--schema", "census", "--synthetic", "uniform",
        "--n-records", "2000", "--gamma", "19", "--sup-min", "0.02",
        "--mechanisms", "det-gd,ran-gd,mask", "--seeds", "101,102",
        "--alpha-sweep", "0,0.5", "--rho1", "0.05", "--rho2", "0.5",
        "--out", str(out),
    )
    assert code == 0
    assert "wrote comparison tables" in stdout

    with open(out / "cond_number.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    conds = {}
    for mechanism, length, value in rows:
        conds.setdefault(mechanism, {})[int(length)] = float(value)
    # gamma-diagonal condition number ignores itemset length entirely
    gd = conds["det-gd"]
    assert all(v == pytest.approx(2018.0 / 18.0, abs=1e-9) for v in gd.values())
    assert conds["ran-gd"] == gd  # miner uses the expected matrix either way
    mask = [conds["mask"][k] for k in sorted(conds["mask"])]
    assert all(b > a for a, b in zip(mask, mask[1:]))

    summary = json.loads((out / "summary.json").read_text())
    assert summary["gamma"] == 19.0
    for timing in summary["mechanisms"].values():
        assert timing["perturb_s_mean"] >= 0 and timing["mine_s_mean"] >= 0
        assert timing["runtime_s_mean"] == pytest.approx(
            timing["perturb_s_mean"] + timing["mine_s_mean"], abs=2e-3)
    assert set(summary["mechanisms"]) == {"det-gd", "ran-gd", "mask"}
    for stats in summary["mechanisms"].values():
        assert len(stats["stop_length"]) == len(stats["stop_reason"]) == 2
    assert summary["worst_case_posterior"] == 0.5
    assert "config_hash" in summary
    low, high = summary["ran_gd_posterior_range"]
    assert low == pytest.approx(posterior_range(0.05, 19.0, 0.5, 2000)[0], abs=1e-12)
    assert high == pytest.approx(posterior_range(0.05, 19.0, 0.5, 2000)[1], abs=1e-12)

    for name in ("support_error.csv", "identity_error.csv", "alpha_sweep.csv"):
        with open(out / name) as fh:
            assert len(list(csv.reader(fh))) > 1


def test_compare_records_where_cut_paste_stops(tmp_path, capsys):
    out = tmp_path / "cmp"
    code, stdout, _ = run(
        capsys, "compare", "--schema", "census", "--synthetic", "reference",
        "--n-records", "2000", "--gamma", "19", "--sup-min", "0.02",
        "--mechanisms", "cut-paste", "--seeds", "1,2", "--out", str(out),
    )
    assert code == 0
    stats = json.loads((out / "summary.json").read_text())["mechanisms"]["cut-paste"]
    assert stats["stop_length"] == [3, 3]
    assert all("at length 4 exceeds 1e+12" in reason for reason in stats["stop_reason"])
    assert f"cut-paste: stopped after length 3: {stats['stop_reason'][0]}" in stdout
    with open(out / "cond_number.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(length) for _, length, _ in rows] == [1, 2, 3, 4, 5, 6]
    assert float(rows[2][2]) <= 1e12 < float(rows[3][2])


def test_compare_rejects_unknown_mechanism(tmp_path, capsys):
    code, _, err = run(capsys, "compare", "--schema", "census",
                       "--synthetic", "uniform", "--n-records", "100",
                       "--gamma", "19", "--sup-min", "0.1",
                       "--mechanisms", "det-gd,quantum", "--seeds", "1",
                       "--out", str(tmp_path / "x"))
    assert code == 1
    assert "quantum" in err


@pytest.mark.parametrize("mechanisms", [",", "mask,mask"])
def test_compare_rejects_empty_or_repeated_mechanisms(tmp_path, capsys, mechanisms):
    code, _, err = run(capsys, "compare", "--schema", "census",
                       "--synthetic", "uniform", "--n-records", "100",
                       "--gamma", "19", "--sup-min", "0.1",
                       "--mechanisms", mechanisms, "--seeds", "1",
                       "--out", str(tmp_path / "x"))
    assert code == 1
    assert err.startswith("error:") and repr(mechanisms) in err
    assert not (tmp_path / "x").exists()


def test_compare_with_empty_ground_truth(tmp_path, capsys):
    """No itemset reaches sup_min in the plain data: the per-length tables
    are empty and the overall metrics are null, as evaluate reports them."""
    out = tmp_path / "cmp"
    code, _, err = run(capsys, "compare", "--schema", "census", "--synthetic", "uniform",
                       "--n-records", "500", "--mechanisms", "det-gd,mask", "--gamma", "19",
                       "--sup-min", "0.99", "--seeds", "1,2", "--out", str(out))
    assert code == 0, err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["true_counts_per_length"] == {}
    for stats in summary["mechanisms"].values():
        assert stats["support_error_pct"] is None
        assert stats["false_positive_pct"] is None
        assert stats["false_negative_pct"] is None
    for name in ("support_error.csv", "identity_error.csv"):
        with open(out / name) as fh:
            assert len(list(csv.reader(fh))) == 1  # header only


def test_compare_runs_each_distinct_spec_once(tmp_path, capsys, monkeypatch):
    """Sweep point 0 is the det-gd spec and 0.5 the ran-gd spec at the default
    --alpha-frac: three specs at two seeds mine six times, and the sweep rows
    are the mechanism rows."""
    calls = []
    mine = privmine.cli.apriori_reconstructed
    monkeypatch.setattr(privmine.cli, "apriori_reconstructed",
                        lambda *a, **k: calls.append(a[2]) or mine(*a, **k))
    out = tmp_path / "cmp"
    code, _, err = run(capsys, "compare", "--schema", "census", "--synthetic", "uniform",
                       "--n-records", "300", "--gamma", "19", "--sup-min", "0.05",
                       "--mechanisms", "det-gd,ran-gd,mask", "--seeds", "1,2",
                       "--alpha-sweep", "0,0.5", "--out", str(out))
    assert code == 0, err
    assert len(calls) == 6
    with open(out / "support_error.csv") as fh:
        by_mechanism = {(r["mechanism"], r["length"]): r["support_error_pct"]
                        for r in csv.DictReader(fh)}
    with open(out / "alpha_sweep.csv") as fh:
        sweep = list(csv.DictReader(fh))
    assert len(sweep) > 2
    for row in sweep:
        mechanism = "det-gd" if row["alpha_fraction"] == "0.0" else "ran-gd"
        assert row["support_error_pct"] == by_mechanism[mechanism, row["length"]]


def test_compare_draws_each_block_of_streams_once_per_seed(tmp_path, capsys, monkeypatch):
    """Every mechanism reads a prefix of the record's stream, so each seed
    derives its keys once and draws each 4096-record block once for all four
    mechanisms, to cut-and-paste's 30 census draws (eight keys): 2 seeds x 2
    blocks, not 2 x 2 per mechanism."""
    keys, blocks = [], []
    key, draws = privmine.perturb._key, privmine.perturb._draws
    monkeypatch.setattr(privmine.perturb, "_key", lambda *a: keys.append(a) or key(*a))
    monkeypatch.setattr(privmine.perturb, "_draws",
                        lambda k, *a: blocks.append((len(k), *a)) or draws(k, *a))
    code, _, err = run(capsys, "compare", "--schema", "census", "--synthetic", "uniform",
                       "--n-records", "5000", "--gamma", "19", "--sup-min", "0.05",
                       "--mechanisms", "det-gd,ran-gd,mask,cut-paste", "--seeds", "1,2",
                       "--out", str(tmp_path / "cmp"))
    assert code == 0, err
    assert keys == [(seed, j) for seed in (1, 2) for j in range(8)]
    assert blocks == [(8, 0, 4096), (8, 4096, 904)] * 2


def test_alpha_sweep_posterior_columns_need_rho1(tmp_path, capsys):
    common = ("compare", "--schema", "census", "--synthetic", "uniform", "--n-records", "1000",
              "--mechanisms", "det-gd", "--gamma", "19", "--sup-min", "0.05", "--seeds", "1",
              "--alpha-sweep", "0,0.5")
    tables = {}
    for name, prior in (("without", ()), ("with", ("--rho1", "0.05"))):
        assert run(capsys, *common, *prior, "--out", str(tmp_path / name))[0] == 0
        with open(tmp_path / name / "alpha_sweep.csv") as fh:
            tables[name] = list(csv.reader(fh))[1:]
    assert len(tables["without"]) == len(tables["with"]) > 2
    for bare, full in zip(tables["without"], tables["with"]):
        assert bare[:5] == full[:5]
        assert bare[5:] == ["", ""]
        low, high = posterior_range(0.05, 19.0, float(full[0]), 2000)
        assert [float(v) for v in full[5:]] == [low * 100, high * 100]


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_console_script_smoke():
    """The `privmine` command declared in pyproject.toml runs in its own
    process: `privacy --rho1 0.05 --rho2 0.5` exits 0 and prints
    `gamma = 19`, and `--rho1 0.5 --rho2 0.5` exits 1, the validation code.

    The entry point is read from `[project.scripts]` and run the way an
    installer's wrapper script runs it (import the module, `sys.exit` on the
    function's return value) in a child interpreter that imports the same
    `privmine` as this test, so the test needs no install step. Where an
    installed `privmine` script is found on PATH, it is run with the same
    checks; an uninstalled run does not check that an installer turns the
    declaration into an executable.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["privmine"]
    module, attr = target.split(":")
    wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())"
    package_root = str(pathlib.Path(privmine.__file__).resolve().parent.parent)
    pythonpath = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    commands = [([sys.executable, "-c", wrapper], env)]
    installed = shutil.which("privmine")
    if installed:
        commands.append(([installed], None))

    for command, command_env in commands:
        proc = subprocess.run(
            command + ["privacy", "--rho1", "0.05", "--rho2", "0.5"],
            capture_output=True, text=True, timeout=120, env=command_env,
        )
        assert proc.returncode == 0
        assert "gamma = 19" in proc.stdout
        proc = subprocess.run(
            command + ["privacy", "--rho1", "0.5", "--rho2", "0.5"],
            capture_output=True, text=True, timeout=120, env=command_env,
        )
        assert proc.returncode == 1, proc.stderr
