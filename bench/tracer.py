"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each public function the benchmark watches with a
wrapper, at every place the name is looked up: a function imported with
``from .chain import run_batch`` is a separate binding in each importing
module, and calls inside a module go through that module's globals.  Names
that do not exist are skipped and reported, so the tracer survives renames;
a wrapper returns what the function returned and re-raises what it raised.

Each call becomes a span ``(id, parent, name, t0, t1, t_end, attrs)``: t1
ends the call, t_end ends the wrapper's own bookkeeping.  A span stack gives
the parent, and a span's self time is its duration minus the full
``t_end - t0`` of its direct children, so bookkeeping is charged to no layer.
Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _shots_xp(args, kwargs, result):
    return {"shots": int(np.size(result[0]))}


def _shots(args, kwargs, result):
    return {"shots": int(np.size(result))}


def _batch_key(args, kwargs, result):
    return {"key": [result.state_label, result.seed, result.n_shots, result.params.detector.kind]}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _bytes_read(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _inverted_intensity(args, kwargs, result):
    outcomes = np.asarray(_arg(args, kwargs, 0, "outcomes"), dtype=float)
    return {"values": int(np.size(result)), "clamped": int(np.count_nonzero(outcomes < 0.0))}


def _inverted(args, kwargs, result):
    return {"values": int(np.size(result))}


def _binned(args, kwargs, result):
    return {"values": int(result.n_total), "overflow": int(result.overflow)}


def _unfolded(args, kwargs, result):
    diag = result[1]
    attrs = {}
    if "nnls_iterations" in diag:
        attrs["iterations"] = int(diag["nnls_iterations"])
    if "nnls_converged" in diag:
        attrs["converged"] = bool(diag["nnls_converged"])
    return attrs


def _points(args, kwargs, result):
    return {"points": len(result.rows)}


def _exit_code(args, kwargs, result):
    return {"nonzero_exits": int(result != 0)}


_ESTIMATORS = ("standard_reconstruct", "displaced_reconstruct", "homodyne_reconstruct")
_SWEEPS = ("sweep_displacement", "sweep_gain", "robustness_sweep", "homodyne_comparison",
           "squeezing_table")
_DISTILL = ("fit_parabola", "distillable_variance", "loss_corrected_variance")

# (owner, attribute, span name, attrs-from-call).  The owner is a module, or
# "module:Class" for methods.
TARGETS = [
    ("opatomo.states:SourceState", "sample_xp", "states.sample_xp", _shots_xp),
    ("opatomo.chain", "stream", "streams.stream", None),
    ("opatomo.chain", "intensity_shot", "chain.intensity_shot", _shots),
    ("opatomo.chain", "homodyne_shot", "chain.homodyne_shot", _shots),
    ("opatomo.experiments", "run_batch", "chain.run_batch", _batch_key),
    ("opatomo.cli", "run_batch", "chain.run_batch", _batch_key),
    ("opatomo.chain:ShotBatch", "to_csv", "chain.batch_csv.write", _bytes_written),
    ("opatomo.chain:ShotBatch", "from_csv", "chain.batch_csv.read", _bytes_read),
    ("opatomo.reconstruct", "invert_intensity", "reconstruct.invert", _inverted_intensity),
    ("opatomo.reconstruct", "invert_homodyne", "reconstruct.invert", _inverted),
    ("opatomo.reconstruct", "bin_values", "hist.bin_values", _binned),
    ("opatomo.reconstruct", "unfold_fold_samples", "nnls.unfold", _unfolded),
    ("opatomo.experiments", "near_zero_fraction", "reconstruct.near_zero_fraction", None),
    *[("opatomo.experiments", name, "reconstruct", None) for name in _ESTIMATORS],
    *[("opatomo.cli", name, "reconstruct", None)
      for name in (*_ESTIMATORS, "double_displacement_reconstruct")],
    ("opatomo.experiments", "fidelity", "hist.fidelity", None),
    ("opatomo.cli", "fidelity", "hist.fidelity", None),
    # A distillation attempt starts with one peak selection.
    ("opatomo.experiments", "select_peak", "distill.select_peak", None),
    *[("opatomo.experiments", name, "distill", None) for name in _DISTILL],
    *[(module, name, "experiments", _points)
      for module in ("opatomo.experiments", "opatomo.cli") for name in _SWEEPS],
    ("opatomo.cli", "main", "cli", _exit_code),
]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._installed: list = []
        self.wrapped: set[str] = set()
        self.missing: list[str] = []

    def wrap(self, fn, name: str, note=None):
        """``fn`` with a span around every call; result and exceptions pass
        through unchanged."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1, t1, {"error": type(exc).__name__})
                raise
            t1 = time.perf_counter()
            stack.pop()
            attrs = {}
            if note is not None:
                try:
                    attrs = note(args, kwargs, result)
                except Exception as exc:  # bookkeeping must never fail a pass
                    attrs = {"note_error": type(exc).__name__}
            spans[sid] = (sid, parent, name, t0, t1, time.perf_counter(), attrs)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the ``owner.attr`` names
        that do not."""
        for owner_name, attr, span, note in TARGETS:
            owner = _resolve(owner_name)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not callable(fn):
                self.missing.append(f"{owner_name}.{attr}")
                continue
            wrapped = self.wrap(fn, span, note)
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self._installed.append((owner, attr, raw))
            self.wrapped.add(span)
        return self.missing

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def dump(self, path: str) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one pass.  A metric whose layer has no wrapped
        name is left out (absent), not reported as zero."""
        agg: dict = defaultdict(lambda: defaultdict(float))
        children = defaultdict(float)
        for sid, parent, name, t0, t1, t_end, attrs in self.spans:
            if parent >= 0:
                children[parent] += t_end - t0
        keys = set()
        for sid, parent, name, t0, t1, t_end, attrs in self.spans:
            a = agg[name]
            a["calls"] += 1
            a["busy"] += t1 - t0
            a["self"] += t1 - t0 - children[sid]
            for k, v in attrs.items():
                if k == "key":
                    keys.add(tuple(v))
                elif k == "error":
                    a["errors"] += 1
                elif isinstance(v, (int, float)):
                    a[k] += v
                    a["n_" + k] += 1

        def ratio(num, den):
            return num / den if den else 0.0

        rb, rec, nz = agg["chain.run_batch"], agg["reconstruct"], agg["reconstruct.near_zero_fraction"]
        inv, hb, un = agg["reconstruct.invert"], agg["hist.bin_values"], agg["nnls.unfold"]
        dist, peak = agg["distill"], agg["distill.select_peak"]
        csv_w, csv_r = agg["chain.batch_csv.write"], agg["chain.batch_csv.read"]
        table = {
            "states.sample_xp.busy_s": ("states.sample_xp", agg["states.sample_xp"]["busy"]),
            "states.sample_xp.shots": ("states.sample_xp", agg["states.sample_xp"]["shots"]),
            "streams.stream.calls": ("streams.stream", agg["streams.stream"]["calls"]),
            "streams.stream.busy_s": ("streams.stream", agg["streams.stream"]["busy"]),
            "chain.intensity_shot.busy_s": ("chain.intensity_shot", agg["chain.intensity_shot"]["busy"]),
            "chain.intensity_shot.shots": ("chain.intensity_shot", agg["chain.intensity_shot"]["shots"]),
            "chain.homodyne_shot.busy_s": ("chain.homodyne_shot", agg["chain.homodyne_shot"]["busy"]),
            "chain.homodyne_shot.shots": ("chain.homodyne_shot", agg["chain.homodyne_shot"]["shots"]),
            "chain.run_batch.calls": ("chain.run_batch", rb["calls"]),
            "chain.run_batch.self_s": ("chain.run_batch", rb["self"]),
            "chain.draw_reuse": ("chain.run_batch", ratio(rb["calls"], len(keys))),
            "chain.batch_csv.write_s": ("chain.batch_csv.write", csv_w["busy"]),
            "chain.batch_csv.read_s": ("chain.batch_csv.read", csv_r["busy"]),
            "chain.batch_csv.bytes": ("chain.batch_csv.write", csv_w["bytes"] + csv_r["bytes"]),
            "reconstruct.invert.busy_s": ("reconstruct.invert", inv["busy"]),
            "reconstruct.invert.values": ("reconstruct.invert", inv["values"]),
            "reconstruct.near_zero_fraction.busy_s": ("reconstruct.near_zero_fraction", nz["busy"]),
            "reconstruct.self_s": ("reconstruct", rec["self"] + nz["self"]),
            "reconstruct.clamped_frac": ("reconstruct.invert", ratio(inv["clamped"], inv["values"])),
            "hist.bin_values.busy_s": ("hist.bin_values", hb["busy"]),
            "hist.bin_values.values": ("hist.bin_values", hb["values"]),
            "hist.overflow_frac": ("hist.bin_values", ratio(hb["overflow"], hb["values"])),
            "hist.fidelity.busy_s": ("hist.fidelity", agg["hist.fidelity"]["busy"]),
            "hist.fidelity.calls": ("hist.fidelity", agg["hist.fidelity"]["calls"]),
            "nnls.calls": ("nnls.unfold", un["calls"]),
            "nnls.unfold_self_s": ("nnls.unfold", un["self"]),
            "distill.busy_s": ("distill", dist["busy"] + peak["busy"]),
            "distill.fit_failure_frac": (
                "distill.select_peak", ratio(dist["errors"] + peak["errors"], peak["calls"])
            ),
            "experiments.self_s": ("experiments", agg["experiments"]["self"]),
            "experiments.points": ("experiments", agg["experiments"]["points"]),
            "cli.self_s": ("cli", agg["cli"]["self"]),
            "cli.nonzero_exits": ("cli", agg["cli"]["nonzero_exits"]),
        }
        metrics = {name: float(value) for name, (layer, value) in table.items() if layer in self.wrapped}
        # Solver diagnostics count only when the diagnostics carry them.
        if "nnls.unfold" in self.wrapped:
            if un["calls"] == 0 or un["n_iterations"]:
                metrics["nnls.iterations"] = float(un["iterations"])
            if un["calls"] == 0 or un["n_converged"]:
                metrics["nnls.converged_frac"] = ratio(un["converged"], un["n_converged"])
        return metrics

