"""The benchmark's per-layer tracer finds every name it wraps.

``bench/tracer.py`` wraps public functions by module and name from outside
the package; a rename or a call routed around a module's globals would
silently drop a layer from the trace.  Installing it must report no missing
name, and uninstalling must restore the originals.
"""

import importlib.util
from pathlib import Path

from opatomo import cli, experiments, reconstruct

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
