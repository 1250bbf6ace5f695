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
    GammaDiagonalSpec,
    builtin_schema,
    generate_synthetic,
    ingest_csv,
    mask_p_for_gamma,
    perturb_chain,
    posterior_range,
    record_rng,
    write_csv,
)
from privmine.cli import main

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
    # labels in another attribute order, and a category only the default maps
    truth = tmp_path / "truth"
    assert run(capsys, "mine", "--schema", "census", "--input", str(plain_csv),
               "--sup-min", "0.05", "--out", str(truth))[0] == 0
    found = tmp_path / "found"
    shutil.copytree(truth, found)
    with open(truth / "itemsets.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    relabelled = [rows[0]]
    for label, length, support in rows[1:]:
        parts = label.split(";")[::-1]
        parts = ["native-country=Atlantis" if p == "native-country=Other" else p for p in parts]
        relabelled.append([";".join(parts), length, support])
    with open(found / "itemsets.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(relabelled)
    assert any("Atlantis" in row[0] for row in relabelled)
    code, stdout, _ = run(capsys, "evaluate", "--schema", "census", "--found", str(found),
                          "--truth", str(truth), "--out", str(tmp_path / "report"))
    assert code == 0
    assert "support error 0.00%, false positives 0.00%, false negatives 0.00%" in stdout
    with open(found / "itemsets.csv", "a", newline="") as fh:
        csv.writer(fh).writerow(["sex=Female;colour=blue", "2", "0.5"])
    code, _, err = run(capsys, "evaluate", "--schema", "census", "--found", str(found),
                       "--truth", str(truth), "--out", str(tmp_path / "report"))
    assert code == 1
    assert "no attribute 'colour'" in err


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
