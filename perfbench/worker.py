"""One benchmark child process: set-up, one timed iteration, or the gate.

Usage: python3 perfbench/worker.py <setup|iterate|gate> <spec.json> <result.json>

The parent (run.py) starts this with PYTHONPATH pointing at the checkout's
``src`` and every BLAS pool pinned to one thread, waits for it, and reads the
result file. Nothing here starts a thread or a process.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _import_cli(src: Path):
    started = time.perf_counter()
    import privmine.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"privmine imported from {cli.__file__}, not from {src}")
    return cli, time.perf_counter() - started


class CliRunner:
    """Runs ``privmine.cli.main(argv)`` calls and records each outcome."""

    def __init__(self, cli, tracer: Tracer | None):
        self.cli = cli
        self.tracer = tracer
        self.calls: list[dict] = []

    def __call__(self, argv: list[str], records: int = 0) -> None:
        if self.tracer is not None:
            self.tracer.begin_call()
        started = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # a crashing CLI call is a failed operation, not a crash of the run
            traceback.print_exc()
            rc = "raised"
        self.calls.append({"command": argv[0], "rc": rc, "records": records,
                           "s": time.perf_counter() - started})


def main(argv: list[str]) -> int:
    mode, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text())
    workload = workloads.WORKLOADS[spec["workload"]]
    params = spec["params"]
    workdir = Path(spec["dir"])
    cli, import_s = _import_cli(Path(spec["src"]))
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    run = CliRunner(cli, tracer)
    result: dict = {"import_s": import_s}
    if mode == "setup":
        workload.setup(run, params, workdir)
        result["wall_s"] = time.perf_counter() - PROCESS_START
    elif mode == "iterate":
        started = time.perf_counter()
        workload.iterate(run, params, workdir, Path(spec["setup_dir"]))
        result["wall_s"] = time.perf_counter() - started
    elif mode == "gate":
        result["gate"] = workload.gate(params, workdir, Path(spec["setup_dir"]),
                                       [Path(d) for d in spec["iteration_dirs"]])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result["calls"] = run.calls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.save(workdir / "spans.npz")
        result["layers"] = tracer.summary()
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
