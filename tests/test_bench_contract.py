"""The benchmark still runs against the package, and its traced metrics resolve.

A benchmark child that imports a deleted or renamed name crashes, and the
run then ends without a result line; the first test reads
perfbench/workloads.py as text to catch that. The tracer (perfbench/tracer.py)
wraps functions by the module that binds them and reports a metric whose
function is gone, or whose argument observer no longer fits, as ``null``; the
second test installs it in a child interpreter, runs tiny CLI calls of every
kind the workloads make, and checks that each per-layer metric in
BENCHMARK.json is a number. Nothing under perfbench/ is changed.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import privmine

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = REPO / "perfbench" / "workloads.py"
NOT_FROM_TRACER = {"cli.import_s", "trace.overhead_pct"}  # filled in by perfbench/run.py

TRACED_CALLS = r"""
import json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from tracer import Tracer

tracer = Tracer()
tracer.install()

import privmine
from privmine.cli import main

work = Path(sys.argv[2])


def run(*argv):
    rc = main(list(argv))
    if rc != 0:
        raise SystemExit(f"{argv[0]} exited {rc}")


census = privmine.builtin_schema("census")
data = privmine.generate_synthetic(census, 300, privmine.builtin_distribution("census"), 1)
privmine.write_csv(data, str(work / "plain.csv"))
run("compare", "--schema", "health", "--synthetic", "reference", "--n-records", "300",
    "--data-seed", "1", "--mechanisms", "det-gd,ran-gd,mask,cut-paste", "--gamma", "19",
    "--sup-min", "0.02", "--seeds", "1", "--out", str(work / "compare"))
run("mine", "--schema", "census", "--input", str(work / "plain.csv"), "--sup-min", "0.02",
    "--out", str(work / "truth"))
for m in ("det-gd", "mask", "cut-paste"):
    run("perturb", "--schema", "census", "--input", str(work / "plain.csv"), "--mechanism", m,
        "--gamma", "19", "--seed", "1", "--out", str(work / m))
    table = "perturbed.csv" if m == "det-gd" else "perturbed_bits.csv"
    run("mine", "--schema", "census", "--input", str(work / m / table), "--metadata",
        str(work / m / "metadata.json"), "--sup-min", "0.02", "--out", str(work / m / "mined"))
run("evaluate", "--schema", "census", "--found", str(work / "det-gd" / "mined"), "--truth",
    str(work / "truth"), "--out", str(work / "scores"))
print(json.dumps(tracer.summary()))
"""


def _privmine_names(source: str) -> set[str]:
    """Every ``privmine.<name>`` attribute and ``from privmine import <name>``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "privmine"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "privmine":
            names.update(alias.name for alias in node.names)
    return names


def test_benchmark_workloads_use_existing_names():
    names = _privmine_names(WORKLOADS.read_text())
    assert {"cut_paste_perturb", "cut_paste_dataset", "mask_itemset_condition",
            "SubsetMarginalSpec", "itemset_label"} <= names
    missing = sorted(n for n in names if not hasattr(privmine, n))
    assert not missing, f"perfbench/workloads.py uses names privmine lacks: {missing}"


def test_traced_benchmark_metrics_resolve(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", TRACED_CALLS, str(REPO / "perfbench"), str(tmp_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    summary = json.loads(child.stdout.strip().splitlines()[-1])
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["per_layer"] if m["name"] not in NOT_FROM_TRACER]
    unresolved = [n for n in names if not isinstance(summary.get(n), (int, float))]
    assert not unresolved, f"traced metrics that no longer resolve: {unresolved}"
    # five 300-row ingests, each counted once: ingest calls no traced name
    assert summary["schema.ingest_csv.rows"] == 1500
    # a layer the script reaches through the CLI that reads 0 calls has lost its
    # wrapper (say, a name bound once at import time), so its seconds would read 0
    reached = ["perturb.perturb_dataset", "perturb.mask_dataset", "perturb.cut_paste_dataset",
               "perturb.cut_paste_class_matrix", "schema.ingest_csv", "schema.read_boolean_csv",
               "schema.write_csv", "schema.write_boolean_csv", "schema.generate_synthetic",
               "mining.mine", "mining.estimate", "metrics.accuracy_report", "cli.perturb",
               "cli.mine", "cli.evaluate", "cli.compare"]
    uncalled = [n for n in reached if not summary[f"{n}.calls"] > 0]
    assert not uncalled, f"traced layers the CLI no longer reaches: {uncalled}"
