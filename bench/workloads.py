"""The three benchmark workloads and the checks on what they write.

Each workload is one pass: a function of the workload seed that writes its
outputs into ``out_dir`` and returns the number of shots it simulated.  The
sweeps use the acceptance-gate specs; the CLI session is the README's
command-line flow, run in process through ``opatomo.cli.main``.

``shot_divisor`` shrinks every shot count for the benchmark's own smoke
tests; the benchmark proper always runs with 1.

Importing this module imports ``opatomo`` and numpy, so the worker imports
it inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from opatomo import cli, experiments

GATE_N_SHOTS = 100_000
GATE_REPEATS = 8
GAIN_GRID = tuple(float(v) for v in np.linspace(1.0, 7.0, 25))
HOMODYNE_D_GRID = tuple(float(v) for v in np.logspace(0.0, 3.0, 13))
CLI_BATCH_SHOTS = 1_000_000

# Files whose bytes are not compared: the two-displacement route may change
# solver (and drop its iteration count), so it is checked by its residual.
UNCOMPARED_PREFIX = "recon_double_"


class WorkloadFailure(RuntimeError):
    """A pass ran but did not do what the workload asks (non-zero exit,
    malformed output)."""


def gain_spec(seed: int, shot_divisor: int = 1) -> experiments.SweepSpec:
    return experiments.SweepSpec(
        experiment="gain", state="sq_disp", methods=("standard", "displaced"),
        param="gain", grid=GAIN_GRID, n_shots=GATE_N_SHOTS // shot_divisor,
        repeats=GATE_REPEATS, seed=seed,
    )


def homodyne_d_spec(seed: int, shot_divisor: int = 1) -> experiments.SweepSpec:
    return experiments.SweepSpec(
        experiment="homodyne_d", state="sq", methods=("displaced",),
        param="displacement", grid=HOMODYNE_D_GRID,
        n_shots=GATE_N_SHOTS // shot_divisor, repeats=GATE_REPEATS, seed=seed,
    )


def cli_steps(seed: int, shot_divisor: int = 1) -> list[list[str]]:
    """The README's command-line flow, with every seed taken from ``seed``."""
    batch = str(CLI_BATCH_SHOTS // shot_divisor)
    s0, s1 = str(seed), str(seed + 1)
    return [
        ["simulate", "--state", "sq", "--displacement", "100", "--n-shots", batch,
         "--seed", s0, "--out-dir", "runs"],
        ["reconstruct", "--batch", f"runs/batch_sq_{s0}.csv", "--method", "displaced",
         "--out-dir", "runs"],
        ["simulate", "--state", "mix", "--displacement", "33", "--n-shots", batch,
         "--seed", s0, "--out-dir", "runs"],
        ["simulate", "--state", "mix", "--displacement", "66", "--n-shots", batch,
         "--seed", s1, "--out-dir", "runs"],
        ["reconstruct", "--batch", f"runs/batch_mix_{s0}.csv",
         "--batch2", f"runs/batch_mix_{s1}.csv", "--method", "double",
         "--bin-width", "0.2", "--out-dir", "runs"],
        ["squeeze", "--state", "sq", "--seed", s0,
         "--n-shots", str(GATE_N_SHOTS // shot_divisor), "--out-dir", "runs"],
    ]


def _sweep_shots(spec: experiments.SweepSpec) -> int:
    return len(spec.grid) * len(spec.methods) * spec.repeats * spec.n_shots


def prepare(workload: str, seed: int, shot_divisor: int = 1):
    """Build a workload's inputs; returns ``(run, shots)`` where ``run(out_dir)``
    is one pass."""
    if workload == "gain_sweep":
        spec = gain_spec(seed, shot_divisor)
        return (lambda out_dir: experiments.sweep_gain(spec).to_csv(out_dir)), _sweep_shots(spec)
    if workload == "homodyne_d_sweep":
        spec = homodyne_d_spec(seed, shot_divisor)
        # homodyne_comparison runs a homodyne batch beside every displaced one.
        shots = _sweep_shots(spec) * 2
        return (lambda out_dir: experiments.homodyne_comparison(spec).to_csv(out_dir)), shots
    if workload == "cli_session":
        steps = cli_steps(seed, shot_divisor)
        n_batch = CLI_BATCH_SHOTS // shot_divisor
        shots = 3 * n_batch + 2 * GATE_REPEATS * (GATE_N_SHOTS // shot_divisor)
        return (lambda out_dir: _run_cli(steps, out_dir)), shots
    raise ValueError(f"unknown workload {workload!r}")


def _run_cli(steps: list[list[str]], out_dir: str) -> None:
    cwd = os.getcwd()
    sink = io.StringIO()
    os.chdir(out_dir)
    try:
        for argv in steps:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            if code != 0:
                raise WorkloadFailure(
                    f"opatomo {argv[0]} exited {code}: {sink.getvalue().strip()[-300:]}"
                )
    finally:
        os.chdir(cwd)


# -- output checks -----------------------------------------------------------


def _float(text: str) -> float:
    # Histogram CSVs render numpy scalars with repr, which numpy >= 2 writes
    # as "np.float64(x)".
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _check_sweep(out_dir: str, rows_expected: int) -> None:
    names = sorted(os.listdir(out_dir))
    stems = {os.path.splitext(n)[0] for n in names}
    if len(stems) != 1 or len(names) != 2:
        raise WorkloadFailure(f"expected one sweep CSV/JSON pair, found {names}")
    stem = os.path.join(out_dir, stems.pop())
    rows = _csv_rows(stem + ".csv")
    if len(rows) != rows_expected:
        raise WorkloadFailure(f"sweep CSV has {len(rows)} rows, expected {rows_expected}")
    for row in rows:
        value = float(row["mean_infidelity"])
        if not 0.0 <= value <= 1.0:
            raise WorkloadFailure(f"mean infidelity {value!r} outside [0, 1]")
    with open(stem + ".json") as fh:
        if not json.load(fh).get("summary"):
            raise WorkloadFailure("sweep JSON has no summary")


def _check_cli(out_dir: str, seed: int, shot_divisor: int) -> dict:
    runs = os.path.join(out_dir, "runs")
    n_batch = CLI_BATCH_SHOTS // shot_divisor
    for stem in (f"batch_sq_{seed}", f"batch_mix_{seed}", f"batch_mix_{seed + 1}"):
        with open(os.path.join(runs, stem + ".csv")) as fh:
            lines = sum(1 for _ in fh)
        if lines != n_batch + 2:
            raise WorkloadFailure(f"{stem}.csv has {lines} lines, expected {n_batch + 2}")
    with open(os.path.join(runs, f"recon_displaced_batch_sq_{seed}.json")) as fh:
        report = json.load(fh)
    if not 0.0 < report["fidelity"] <= 1.0 + 1e-12 or report["N"] != n_batch:
        raise WorkloadFailure(f"displaced reconstruction report is off: {report}")
    double = f"{UNCOMPARED_PREFIX}batch_mix_{seed}"
    with open(os.path.join(runs, double + ".json")) as fh:
        residual = json.load(fh)["diag_residual"]
    densities = [_float(r["estimated_density"]) for r in _csv_rows(os.path.join(runs, double + ".csv"))]
    if not densities or min(densities) < 0.0 or not math.isfinite(residual):
        raise WorkloadFailure("double reconstruction has negative mass or a non-finite residual")
    squeeze = [n for n in os.listdir(runs) if n.startswith("squeezing_") and n.endswith(".csv")]
    if len(squeeze) != 1 or len(_csv_rows(os.path.join(runs, squeeze[0]))) != 15:
        raise WorkloadFailure(f"expected one 15-row squeezing table, found {squeeze}")
    return {"double_residual": residual}


def check_outputs(workload: str, out_dir: str, seed: int, shot_divisor: int = 1) -> dict:
    """Check a pass's outputs for shape and range; raises WorkloadFailure.

    Returns facts that are compared across passes and against the recorded
    values (the double route's NNLS residual).
    """
    if workload == "gain_sweep":
        _check_sweep(out_dir, len(GAIN_GRID) * 2)
        return {}
    if workload == "homodyne_d_sweep":
        _check_sweep(out_dir, len(HOMODYNE_D_GRID) * 2)
        return {}
    return _check_cli(out_dir, seed, shot_divisor)
