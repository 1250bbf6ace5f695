#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

For every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound, the same test the benchmark's acceptance uses.
With ``--out`` the result lines of every run and the summary are saved, in
the format of perfbench/baseline/*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            line = json.loads(lines[-1])
            line["seed"], line["run_s"] = seed, time.monotonic() - started
            runs[workload].append(line)
            print(f"{workload} seed {seed}: {line['run_s']:.1f} s, " + ", ".join(
                f"{k}={v['value']}" for k, v in line["metrics"].items()
                if args.trace == 0), flush=True)
        summary[workload] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs[workload]]
            if len(values) < 2 or any(not isinstance(v, (int, float)) for v in values):
                continue
            summary[workload][m["name"]] = s = spread(values)
            if s["spread"] is None:  # a layer this workload never calls
                continue
            bound = m.get("bound")
            flag = "" if bound is None else f"  bound {bound}  ({s['spread'] / bound:.2f} of it)"
            print(f"  {workload} {m['name']}: median {s['median']:.6g} {m['unit']}, "
                  f"spread {s['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"trace": args.trace, "runs": runs,
                                              "summary": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
