"""The estimators invert and bin a batch one BATCH_CHUNK slice at a time.

Whatever the batch size, each single-pass estimator's histogram equals
``bin_values`` over the whole inverted array, and the two-displacement
route's unfold equals the one on fold histograms of the whole arrays.  The
working memory an estimator allocates on top of its batch stays O(chunk),
and so does that of the ``simulate`` and ``reconstruct`` commands, which
hold no whole batch at all, and that of the sweep engine, which does not
grow with the number of chunks and frees each chunk's draws before it draws
the next.
"""

import contextlib
import functools
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from opatomo import cli, experiments, reconstruct
from opatomo.chain import (
    BATCH_CHUNK,
    CHAIN_NORMALS,
    ChainParams,
    HomodyneDetector,
    chunk_sizes,
    run_batch,
)
from opatomo.experiments import SweepSpec, homodyne_comparison, squeezing_table, sweep_gain
from opatomo.hist import bin_values
from opatomo.reconstruct import (
    GRID_HALF_WIDTH,
    DegenerateSupport,
    displaced_reconstruct,
    double_displacement_reconstruct,
    fold_displacement,
    homodyne_reconstruct,
    invert_homodyne,
    invert_intensity,
    standard_reconstruct,
    unfold_fold_samples,
)
from opatomo.states import preset
from fold_helpers import fold_histograms

SIZES = [1, BATCH_CHUNK - 1, BATCH_CHUNK, BATCH_CHUNK + 1, 3 * BATCH_CHUNK + 5]
W = 0.05
DOUBLE_W = 0.2

# Each estimator -> (state, chain, seed) of the batch it reads; the
# two-displacement route reads both double_* batches.
BATCHES = {
    "standard": ("sq", ChainParams(), 0),
    "displaced": ("sq", ChainParams(displacement=100.0), 0),
    "homodyne": ("sq", ChainParams(displacement=100.0, detector=HomodyneDetector()), 0),
    "double_a": ("mix", ChainParams(displacement=33.0), 0),
    "double_b": ("mix", ChainParams(displacement=66.0), 1),
}


@functools.cache
def _batch(name: str):
    state, params, seed = BATCHES[name]
    return run_batch(preset(state), params, max(SIZES), seed)


def _head(name: str, size: int):
    batch = _batch(name)
    return replace(batch, outcomes=batch.outcomes[:size])


def _whole(name: str, size: int, bin_width: float, lo: float, hi: float):
    """The reference: bin_values over the batch's whole inverted array."""
    batch = _head(name, size)
    invert = invert_homodyne if name == "homodyne" else invert_intensity
    return bin_values(invert(batch.outcomes, batch.params), bin_width, lo, hi)


ESTIMATORS = {
    "standard": lambda batch: standard_reconstruct(batch, W),
    "displaced": lambda batch: displaced_reconstruct(batch, W),
    "homodyne": lambda batch: homodyne_reconstruct(batch, W),
}


def _expected(name: str, size: int):
    if name == "standard":
        half = _whole(name, size, W, 0.0, GRID_HALF_WIDTH)
        return (np.concatenate([half.counts[::-1], half.counts]), 2 * half.overflow,
                2 * half.n_total)
    hist = _whole(name, size, W, -GRID_HALF_WIDTH, GRID_HALF_WIDTH)
    return hist.counts, hist.overflow, hist.n_total


def _counting_bin_values(monkeypatch) -> list[int]:
    sizes: list[int] = []

    def counting(values, *args):
        sizes.append(np.size(values))
        return bin_values(values, *args)

    monkeypatch.setattr(reconstruct, "bin_values", counting)
    return sizes


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_chunked_estimator_equals_whole_array_binning(monkeypatch, name, size):
    counts, overflow, n_total = _expected(name, size)
    binned = _counting_bin_values(monkeypatch)
    hist = ESTIMATORS[name](_head(name, size))
    assert np.array_equal(hist.counts, counts)
    assert (hist.overflow, hist.n_total) == (overflow, n_total)
    # One bin_values call per BATCH_CHUNK slice, each slice in order.
    assert binned == chunk_sizes(size)


@pytest.mark.parametrize("size", SIZES)
def test_chunked_double_equals_whole_array_unfold(monkeypatch, size):
    a, b = _head("double_a", size), _head("double_b", size)
    d_a, d_b = fold_displacement(a.params), fold_displacement(b.params)
    y = invert_intensity(a.outcomes, a.params) + d_a
    z = invert_intensity(b.outcomes, b.params) + d_b
    hists = fold_histograms(y, z, DOUBLE_W)
    binned = _counting_bin_values(monkeypatch)
    if size == 1:
        # A lone count per bin is below the support threshold either way.
        for unfold in (lambda: unfold_fold_samples(*hists, shift=d_a),
                       lambda: double_displacement_reconstruct(a, b, DOUBLE_W)):
            with pytest.raises(DegenerateSupport):
                unfold()
        return
    expected = unfold_fold_samples(*hists, shift=d_a)
    estimate, diag = double_displacement_reconstruct(a, b, DOUBLE_W)
    assert np.array_equal(estimate.masses, expected[0].masses)
    assert np.array_equal(estimate.centers, expected[0].centers)
    assert diag == expected[1]
    assert binned == chunk_sizes(size) * 2


def _traced_peak(run):
    """``run()``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# The batch a CLI reconstruct reads at the README's scale.
MEMORY_SHOTS = 1 << 20
MEMORY_BOUND = 2 * 1024 * 1024


@functools.cache
def _large(name: str):
    """A 2^20-outcome batch: the first BATCH_CHUNK outcomes, repeated."""
    batch = _head(name, BATCH_CHUNK)
    outcomes = np.tile(batch.outcomes, MEMORY_SHOTS // BATCH_CHUNK)
    return replace(batch, outcomes=outcomes)


@pytest.mark.parametrize("name", [*ESTIMATORS, "double"])
def test_estimator_working_memory_is_one_chunk(name):
    if name == "double":
        args = (_large("double_a"), _large("double_b"))

        def run():
            return double_displacement_reconstruct(*args, DOUBLE_W)
    else:
        batch = _large(name)

        def run():
            return ESTIMATORS[name](batch)
    _, peak = _traced_peak(run)
    assert peak <= MEMORY_BOUND, f"{name}: {peak / 2**20:.2f} MiB traced"


# The commands' bound: one chunk's draws and chain terms take about 1.9 MiB,
# while a whole batch at this scale is an 8 MiB outcome array.
CLI_MEMORY_BOUND = 4 * 1024 * 1024


@pytest.fixture(scope="module")
def large_files(tmp_path_factory) -> dict[str, str]:
    out = tmp_path_factory.mktemp("large")
    paths = {}
    for name in ("displaced", "double_a", "double_b"):
        paths[name] = str(out / f"{name}.csv")
        _large(name).to_csv(paths[name])
    return paths


def _cli_argv(command: str, files: dict[str, str], out_dir: str) -> list[str]:
    if command == "simulate":
        return ["simulate", "--state", "sq", "--displacement", "100",
                "--n-shots", str(MEMORY_SHOTS), "--out-dir", out_dir]
    if command == "displaced":
        return ["reconstruct", "--batch", files["displaced"], "--method", "displaced",
                "--out-dir", out_dir]
    return ["reconstruct", "--batch", files["double_a"], "--batch2", files["double_b"],
            "--method", "double", "--bin-width", str(DOUBLE_W), "--out-dir", out_dir]


@pytest.mark.parametrize("command", ["simulate", "displaced", "double"])
def test_cli_working_memory_is_one_chunk(tmp_path, large_files, command):
    argv = _cli_argv(command, large_files, str(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()):
        code, peak = _traced_peak(lambda: cli.main(argv))
    assert code == 0
    assert peak <= CLI_MEMORY_BOUND, f"{command}: {peak / 2**20:.2f} MiB traced"


# One sweep of each workload's kind, at 2 repeats and two grid values.
SWEEPS = {
    "gain": (sweep_gain, SweepSpec("gain", "sq_disp", ("standard", "displaced"), "gain",
                                   (1.0, 4.0), repeats=2)),
    "homodyne_d": (homodyne_comparison, SweepSpec("homodyne_d", "sq", ("displaced",),
                                                  "displacement", (10.0, 100.0), repeats=2)),
    "squeeze": (squeezing_table, SweepSpec("squeezing", "sq", ("displaced",), "m", (3.0, 5.0),
                                           params=ChainParams(displacement=100.0), repeats=2)),
}
# A chunk's chain terms take 0.75-1 MiB; holding two chunks' terms at once
# shows as +0.5-0.6 MiB at three chunks.
ENGINE_GROWTH_BOUND = 0.1 * 1024 * 1024


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_working_memory_does_not_grow_with_chunks(name):
    sweep, spec = SWEEPS[name]
    one, three = (replace(spec, n_shots=chunks * BATCH_CHUNK) for chunks in (1, 3))
    sweep(one)  # first-call allocations (lazy imports, caches) stay untraced
    _, one_peak = _traced_peak(lambda: sweep(one))
    _, three_peak = _traced_peak(lambda: sweep(three))
    assert three_peak <= one_peak + ENGINE_GROWTH_BOUND, (
        f"{name}: {one_peak / 2**20:.2f} MiB at one chunk, "
        f"{three_peak / 2**20:.2f} MiB at three"
    )


# One chunk's draws (x, p and CHAIN_NORMALS rows of BATCH_CHUNK floats) take
# 7 * 128 KiB.  All that may remain from earlier chunks at a later draw is the
# last pair's outcomes and every pair's running histogram, about 140 KiB.
DRAW_GROWTH_BOUND = CHAIN_NORMALS * BATCH_CHUNK * 8


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_frees_each_chunks_draws_before_the_next_draw(monkeypatch, name):
    sweep, spec = SWEEPS[name]
    three = replace(spec, n_shots=3 * BATCH_CHUNK)
    sweep(three)  # first-call allocations (lazy imports, caches) stay untraced
    held: list[int] = []
    draw = experiments.draw_chunk

    def traced_draw(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return draw(*args)

    monkeypatch.setattr(experiments, "draw_chunk", traced_draw)
    _traced_peak(lambda: sweep(three))
    assert len(held) == 3 * spec.repeats
    growth = [h - held[0] for h in held[1:]]
    assert max(growth) < DRAW_GROWTH_BOUND, (
        f"{name}: {[round(g / 2**10) for g in growth]} KiB held over the first draw"
    )
