"""The benchmark's per-layer tracer finds every name it wraps.

``bench/tracer.py`` wraps public functions by module and name from outside
the package; a rename or a call routed around a module's globals would
silently drop a layer from the trace.  Installing it must report no missing
name, and uninstalling must restore the originals.
"""

import importlib.util
from pathlib import Path

from opatomo import cli, experiments, reconstruct
from opatomo.chain import ChainParams
from opatomo.experiments import SweepSpec

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_target():
    before = (experiments.run_batch, cli.sweep_gain, reconstruct.invert_intensity)
    tracer = _load_tracer().Tracer()
    try:
        assert tracer.install() == []
        assert experiments.run_batch is not before[0]
    finally:
        tracer.uninstall()
    assert (experiments.run_batch, cli.sweep_gain, reconstruct.invert_intensity) == before


def test_every_applied_shot_is_traced():
    # Terms cached across sweep points must not route a shot around the
    # traced shot functions: each (chain setting, method) pair is applied,
    # inverted and binned once per repeat shot.
    repeats, n_shots = 2, 20_000
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        experiments.homodyne_comparison(SweepSpec(
            "homodyne_d", "sq", ("displaced",), "displacement", (10.0, 100.0),
            n_shots=n_shots, repeats=repeats))
        experiments.sweep_gain(SweepSpec(
            "gain", "sq_disp", ("standard", "displaced"), "gain", (2.0, 4.0),
            n_shots=n_shots, repeats=repeats))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    # Two displacements x two detectors, and two gains x two methods (the
    # standard estimator's d = 0 differs per gain).
    pairs = 4 + 4
    shots = metrics["chain.intensity_shot.shots"] + metrics["chain.homodyne_shot.shots"]
    assert shots == metrics["reconstruct.invert.values"] == metrics["hist.bin_values.values"]
    assert shots == pairs * repeats * n_shots


def test_every_fit_attempt_selects_one_peak():
    # distill.fit_failure_frac divides failed fits by distill.select_peak
    # calls, so each fit attempt must select its own peak: two incoupling
    # variants x two fit sizes x two repeats, plus one analytic fit per size.
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        experiments.squeezing_table(SweepSpec(
            "squeeze", "sq", ("displaced",), "m", (3.0, 5.0),
            params=ChainParams(displacement=100.0), n_shots=2_000, repeats=2))
    finally:
        tracer.uninstall()
    peaks = [span for span in tracer.spans if span[2] == "distill.select_peak"]
    assert len(peaks) == 2 * 2 * 2 + 2
