#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about half a minute).

    python3 perfbench/selftest.py

Checks, for every workload:
- the result line carries exactly the BENCHMARK.json metrics of its mode;
- every metric the benchmark defines is recorded, as a number or as absent;
- traced and untraced runs write byte-identical perturbed files and
  itemsets.csv (set-up outputs and the first iteration of each run, plus the
  untraced and traced iterations inside the traced run).
Then it checks that a wrapped function missing from the package is reported
as absent, and that the benchmark fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SCALE = "0.01"
COMPARED = ("perturbed.csv", "perturbed_bits.csv", "itemsets.csv")


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                       "--trace", str(trace), "--scale", SCALE, "--keep"])
    if rc != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {rc}\n{out.getvalue()}")
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results"
                         / f"{workload}-seed5-trace{trace}.json").read_text())
    return line, record


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.name in COMPARED}


def _same_files(a: Path, b: Path, what: str, errors: list[str]) -> None:
    fa, fb = _files(a), _files(b)
    if fa != fb:
        errors.append(f"{what}: {sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))}")


def check_workloads(bench: dict, errors: list[str]) -> None:
    per_layer = [m["name"] for m in bench["per_layer"]]
    for workload in (w["name"] for w in bench["workloads"]):
        plain_line, plain = _run(workload, 0)
        traced_line, traced = _run(workload, 1)
        for line, names in ((plain_line, [m["name"] for m in bench["end_to_end"]]),
                            (traced_line, per_layer)):
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{workload}: result line keys {sorted(line)}")
            if list(line["metrics"]) != names:
                errors.append(f"{workload}: result line metrics {list(line['metrics'])}")
        for name in [m["name"] for m in bench["end_to_end"]] + list(run.UNGATED):
            if name not in plain["metrics"]:
                errors.append(f"{workload}: end-to-end metric {name} not recorded")
        for name in per_layer:
            if name not in traced["layers"]:
                errors.append(f"{workload}: per-layer metric {name} not recorded")
            elif not isinstance(traced["layers"][name], (int, float, type(None))):
                errors.append(f"{workload}: per-layer metric {name} is not a number")
        for key, value in plain["metrics"].items():
            if key in ("wall_s", "setup_s", "peak_rss_mb") and not value:
                errors.append(f"{workload}: {key} is {value}")
        p_dir, t_dir = Path(plain["workdir"]), Path(traced["workdir"])
        _same_files(p_dir / "setup", t_dir / "setup", f"{workload}: traced set-up", errors)
        _same_files(p_dir / "iter-0", t_dir / "iter-1", f"{workload}: traced iteration", errors)
        _same_files(t_dir / "iter-0", t_dir / "iter-1", f"{workload}: traced run", errors)
        if not (t_dir / "iter-1" / "spans.npz").is_file():
            errors.append(f"{workload}: traced iteration wrote no spans")
        for d in (p_dir, t_dir):
            shutil.rmtree(d)
        print(f"ok {workload}", flush=True)


def check_absent(errors: list[str]) -> None:
    """A trace point whose function is gone reports None, not a crash."""
    sys.path.insert(0, str(ROOT / "src"))
    import privmine.cli

    saved = privmine.cli.cut_paste_dataset
    del privmine.cli.cut_paste_dataset
    try:
        t = tracer.Tracer()
        t.install()
        summary = t.summary()
    finally:
        privmine.cli.cut_paste_dataset = saved
    if summary["perturb.cut_paste_dataset.s"] is not None:
        errors.append("a missing function is not reported as absent")
    if summary["perturb.perturb_dataset.s"] != 0:
        errors.append("an uncalled function does not report zero")
    print("ok absent trace points", flush=True)


def check_bare_directory(errors: list[str]) -> None:
    """Without the package sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "compare-census-50k", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok bare directory", flush=True)


def main() -> int:
    bench = run.load_benchmark()
    errors: list[str] = []
    check_workloads(bench, errors)
    check_absent(errors)
    check_bare_directory(errors)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
