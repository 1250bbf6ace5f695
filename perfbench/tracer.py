"""In-memory span tracer that wraps privmine's public functions by name.

Each trace point names a layer metric and the module namespaces where the
callers bind the function (``from .perturb import perturb_dataset`` binds it
in ``privmine.cli``, so that is where the wrapper must go). A point whose
function no longer exists in any of its namespaces is reported as absent
(``None``) instead of failing the run, so the benchmark survives planned
deletions and renames in the package.

Spans are appended to flat arrays (name, parent span, CLI call id, start,
end), so millions of per-record calls stay cheap in memory. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array

# (layer name, attribute, namespaces that bind it); one wrapper per function.
TRACE_POINTS = (
    ("perturb.perturb_dataset", "perturb_dataset", ("privmine.cli",)),
    ("perturb.mask_dataset", "mask_dataset", ("privmine.cli",)),
    ("perturb.cut_paste_dataset", "cut_paste_dataset", ("privmine.cli",)),
    ("perturb.record_rng", "record_rng", ("privmine.perturb",)),
    ("perturb.cut_paste_class_matrix", "cut_paste_class_matrix",
     ("privmine.perturb", "privmine.cli")),
    ("schema.write_csv", "write_csv", ("privmine.cli",)),
    ("schema.ingest_csv", "ingest_csv", ("privmine.cli",)),
    ("schema.read_boolean_csv", "read_boolean_csv", ("privmine.cli",)),
    ("schema.write_boolean_csv", "write_boolean_csv", ("privmine.cli",)),
    ("schema.generate_synthetic", "generate_synthetic", ("privmine.cli",)),
    ("reconstruct.count_subset", "count_subset", ("privmine.mining",)),
    ("reconstruct.reconstruct_subset", "reconstruct_subset", ("privmine.mining",)),
    ("reconstruct.mask_pattern_counts", "mask_pattern_counts", ("privmine.mining",)),
    ("reconstruct.reconstruct_mask_support", "reconstruct_mask_support", ("privmine.mining",)),
    ("reconstruct.cut_paste_supports", "cut_paste_supports", ("privmine.mining",)),
    ("mining.mine", "mine", ("privmine.mining",)),
    ("metrics.accuracy_report", "accuracy_report", ("privmine.cli",)),
    ("cli.perturb", "cmd_perturb", ("privmine.cli",)),
    ("cli.mine", "cmd_mine", ("privmine.cli",)),
    ("cli.evaluate", "cmd_evaluate", ("privmine.cli",)),
    ("cli.compare", "cmd_compare", ("privmine.cli",)),
)

# ``estimate`` is a method on every support-estimator class of this module.
ESTIMATE_MODULE = "privmine.mining"

# Counters derived from call arguments and results, keyed by layer name.
COUNTERS = {
    "perturb.records": ("perturb.perturb_dataset", "perturb.mask_dataset",
                        "perturb.cut_paste_dataset"),
    "schema.ingest_csv.rows": ("schema.ingest_csv",),
    "schema.output_bytes": ("schema.write_csv", "schema.write_boolean_csv"),
    "reconstruct.bytes_scanned": ("reconstruct.count_subset", "reconstruct.mask_pattern_counts",
                                  "reconstruct.cut_paste_supports"),
    "mining.candidates": ("mining.estimate",),
    "mining.frequent": ("mining.mine",),
    "mining.levels": ("mining.mine",),
    "mining.negative_estimates": ("mining.mine",),
}


def _observe(layer, args, result, add):
    """Feed the counters one finished call contributes to."""
    if layer in ("perturb.perturb_dataset", "perturb.mask_dataset", "perturb.cut_paste_dataset"):
        add("perturb.records", args[0].n_records)
    elif layer == "schema.ingest_csv":
        add("schema.ingest_csv.rows", result.n_records)
    elif layer in ("schema.write_csv", "schema.write_boolean_csv"):
        add("schema.output_bytes", os.path.getsize(args[1]))
    elif layer == "reconstruct.count_subset":
        data, subset = args[0], args[1]
        add("reconstruct.bytes_scanned", data.n_records * len(subset) * data.codes.itemsize)
    elif layer in ("reconstruct.mask_pattern_counts", "reconstruct.cut_paste_supports"):
        bits, positions = args[0], args[1]
        add("reconstruct.bytes_scanned", bits.shape[0] * len(positions) * bits.itemsize)
    elif layer == "mining.estimate":
        add("mining.candidates", len(args[1]))
    elif layer == "mining.mine":
        add("mining.frequent", result.n_itemsets)
        add("mining.levels", sum(1 for level in result.by_length.values() if level))
        add("mining.negative_estimates", result.negative_estimates)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.call_id = -1
        self.counters: dict[str, float] = {}
        self.broken: set[str] = set()  # counters whose observer no longer fits the API
        self.present: set[str] = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every trace point that still exists; remember which do."""
        for layer, attr, namespaces in TRACE_POINTS:
            wrapped = {}
            for module_name in namespaces:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, layer)
                setattr(module, attr, wrapped[id(fn)])
            if wrapped:
                self.present.add(layer)
        module = importlib.import_module(ESTIMATE_MODULE)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == ESTIMATE_MODULE and "estimate" in vars(cls):
                cls.estimate = self._wrap(vars(cls)["estimate"], "mining.estimate")
                self.present.add("mining.estimate")

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _wrap(self, fn, layer: str):
        lid = self._layer_id(layer)
        stack, layers, parents, calls = self._stack, self.layer, self.parent, self.call
        starts, ends = self.start, self.end
        counting = any(layer in sources for sources in COUNTERS.values())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1])
            calls.append(self.call_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counting:
                self._count(layer, args, result)
            return result

        return wrapper

    def _count(self, layer, args, result) -> None:
        def add(name, value):
            self.counters[name] = self.counters.get(name, 0) + value

        try:
            _observe(layer, args, result, add)
        except (AttributeError, IndexError, TypeError, OSError):
            self.broken.update(name for name, src in COUNTERS.items() if layer in src)

    def begin_call(self) -> None:
        """Start a new CLI call: later spans carry its id."""
        self.call_id += 1

    # -- results -----------------------------------------------------------

    def save(self, path) -> None:
        """Write the raw spans out (numpy .npz) once the timed work is over."""
        import numpy as np

        np.savez(path, layers=np.array(self.layers), layer=np.frombuffer(self.layer, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 call=np.frombuffer(self.call, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def summary(self) -> dict:
        """Per-layer calls, inclusive seconds and self seconds, plus counters.

        Layers that no longer exist map to None; layers that exist but were
        not called on this workload report zero.
        """
        import numpy as np

        layer = np.frombuffer(self.layer, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                      minlength=len(dur))
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        out: dict = {}
        names = [p[0] for p in TRACE_POINTS] + ["mining.estimate"]
        for name in names:
            if name not in self.present:
                out.update({f"{name}.calls": None, f"{name}.s": None, f"{name}.self_s": None})
                continue
            lid = self._layer_ids[name]
            mask = layer == lid
            # inclusive time counts outermost spans only, so recursion is not doubled
            outer = mask & (parent_layer != lid)
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.s"] = float(dur[outer].sum())
            out[f"{name}.self_s"] = float(self_time[mask].sum())
        for name, sources in COUNTERS.items():
            alive = any(src in self.present for src in sources) and name not in self.broken
            out[name] = self.counters.get(name, 0) if alive else None
        cand, freq = out["mining.candidates"], out["mining.frequent"]
        out["mining.yield"] = freq / cand if cand and freq is not None else None
        return out
