#!/usr/bin/env python3
"""privmine benchmark: the CLI loop end to end, and per module when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is loaded from the
checkout's ``src``. Each set-up and each timed workload iteration runs in a
fresh child process (perfbench/worker.py), one at a time. After the timed
iterations a gate checks the outputs; on a mismatch the result line says
``"correct": false`` and the exit code is 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, taken from
traced iterations that alternate with untraced ones. The lines above it print
every metric by name and unit, including the ungated ones (accuracy,
throughput per side, failed calls). The full record, with per-mechanism and
per-length accuracy and condition numbers, goes to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 3  # set-ups per run, fewer once set-up time reaches half of --seconds
RUN_DEADLINE_S = 170.0  # every child is killed past this, so a run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# files the CLI writes whose bytes must not change between iterations
# (summary.json is left out: it records the call's own runtime)
DATA_FILES = ("perturbed.csv", "perturbed_bits.csv", "metadata.json", "itemsets.csv",
              "accuracy.csv", "accuracy.json", "support_error.csv", "identity_error.csv",
              "cond_number.csv")
UNGATED = {  # printed and recorded, not in BENCHMARK.json (absent on some workloads)
    "client_records_per_s": "1/s",
    "miner_records_per_s": "1/s",
    "support_error_pct": "%",
    "false_positive_pct": "%",
    "false_negative_pct": "%",
    "failed_ops_pct": "%",
}


class BenchError(RuntimeError):
    """A child process failed; the run prints no result."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Children:
    """Starts worker processes one at a time, each waited for, all killed at
    the run deadline."""

    def __init__(self, workload: str, params: dict, workdir: Path, deadline: float):
        self.workload = workload
        self.params = params
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})

    def run(self, mode: str, directory: Path, trace: bool, **extra) -> dict:
        self.count += 1
        spec_path = self.workdir / f"{self.count:03d}-{mode}.spec.json"
        out_path = self.workdir / f"{self.count:03d}-{mode}.result.json"
        log_path = self.workdir / f"{self.count:03d}-{mode}.log"
        spec = {"workload": self.workload, "params": self.params, "dir": str(directory),
                "src": str(ROOT / "src"), "trace": trace, **extra}
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run deadline reached before the {mode} step")
        with open(log_path, "wb") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), mode, str(spec_path), str(out_path)],
                    cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} step passed the run deadline") from None
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"{mode} step exited with {proc.returncode}:\n{tail}")
        return json.loads(out_path.read_text())


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _rate(calls: list[dict], command: str) -> float | None:
    chosen = [c for c in calls if c["command"] == command]
    seconds = sum(c["s"] for c in chosen)
    return sum(c["records"] for c in chosen) / seconds if chosen and seconds > 0 else None


def _data_hashes(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.name in DATA_FILES}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
                 keep: bool = False) -> dict:
    """Set up, iterate for ``seconds``, gate; returns the full result record."""
    workload = workloads.WORKLOADS[name]
    params = workload.params(seed, scale)
    work_root = ROOT / ".perfbench" / "work"
    workdir = work_root / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    children = Children(name, params, workdir, time.monotonic() + RUN_DEADLINE_S)
    setup_dir = workdir / "setup"
    calls: list[dict] = []
    try:
        setups = []
        while not setups or (len(setups) < SETUP_REPEATS
                             and sum(s["wall_s"] for s in setups) < seconds / 2):
            shutil.rmtree(setup_dir, ignore_errors=True)
            setups.append(children.run("setup", setup_dir, trace))
            calls += setups[-1]["calls"]

        iterations = []
        started = time.monotonic()
        while True:
            traced = trace and len(iterations) % 2 == 1
            directory = workdir / f"iter-{len(iterations)}"
            result = children.run("iterate", directory, traced, setup_dir=str(setup_dir))
            result.update(traced=traced, dir=str(directory))
            iterations.append(result)
            calls += result["calls"]
            enough = not trace or any(r["traced"] for r in iterations)
            if enough and time.monotonic() - started >= seconds:
                break

        failed = [c for c in calls if c["rc"] != 0]
        failures = [f"{c['command']} returned {c['rc']}" for c in failed]
        gate: dict = {}
        if not failed:
            dirs = [r["dir"] for r in iterations]
            gate = children.run("gate", workdir, False, setup_dir=str(setup_dir),
                                iteration_dirs=dirs)["gate"]
            failures += gate["failures"]
            reference = _data_hashes(Path(dirs[0]))
            for d in dirs[1:]:
                if _data_hashes(Path(d)) != reference:
                    failures.append(f"{Path(d).name}: output files differ from iter-0")
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in iterations if not r["traced"]]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
        "params": params, "workdir": str(workdir) if keep else None,
        "correct": not failures,
        "failures": failures,
        "attempted": len(calls),
        "failed": len(failed),
        "setup_samples": [s["wall_s"] for s in setups],
        "wall_samples": [r["wall_s"] for r in plain],
        "metrics": {
            "wall_s": _median(r["wall_s"] for r in plain),
            "setup_s": _median(s["wall_s"] for s in setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
            "client_records_per_s": _median(_rate(r["calls"], "perturb") for r in plain),
            "miner_records_per_s": _median(_rate(r["calls"], "mine") for r in plain),
            **gate.get("accuracy", {}),
            "failed_ops_pct": 100.0 * len(failed) / len(calls),
        },
        "mechanisms": gate.get("mechanisms", {}),
    }
    if trace:
        traced = [r for r in iterations if r["traced"]]
        layers = {key: _median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        layers["cli.import_s"] = _median(r["import_s"] for r in traced)
        layers["trace.overhead_pct"] = 100.0 * (
            _median(r["wall_s"] for r in traced) / record["metrics"]["wall_s"] - 1.0)
        record["layers"] = layers
        record["setup_layers"] = setups[-1].get("layers", {})
        record["traced_wall_samples"] = [r["wall_s"] for r in traced]
    return record


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def report(record: dict, bench: dict) -> dict:
    """Print every metric with its unit; return the result line's metrics."""
    trace = record["trace"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {trace}  "
          f"correct {record['correct']}")
    for failure in record["failures"]:
        print(f"  GATE FAILURE: {failure}")
    if trace:
        chosen = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = record["layers"]
        print(f"  per-layer metrics, median of {len(record['traced_wall_samples'])} "
              f"traced iteration(s)")
    else:
        chosen = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = record["metrics"]
        print(f"  wall_s: median of {len(record['wall_samples'])} iteration(s); "
              f"setup_s: median of {len(record['setup_samples'])} set-up(s)")
    for name, unit in chosen.items():
        print(f"  {name:42s} {_fmt(values.get(name)):>14s} {unit}")
    if not trace:
        for name, unit in UNGATED.items():
            print(f"  {name:42s} {_fmt(values.get(name)):>14s} {unit}  (ungated)")
        print(f"  failed CLI calls: {record['failed']} of {record['attempted']}")
        for mech, info in record["mechanisms"].items():
            flagged = info["ill_conditioned_lengths"]
            print(f"  {mech}: negative_estimates {_fmt(info['negative_estimates'])}"
                  + (f", condition number > 1e12 at lengths {flagged}" if flagged else ""))
    return {name: {"value": values.get(name), "unit": unit} for name, unit in chosen.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting timed iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="record-count multiplier (the self-test runs tiny sizes)")
    parser.add_argument("--keep", action="store_true", help="keep the work directory")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "privmine" / "cli.py").is_file():
        print(f"error: no privmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    bench = load_benchmark()
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.scale, args.keep)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = report(record, bench)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
