"""opatomo benchmark: three workloads, timed end to end and per layer.

    python3 bench/run.py --workload gain_sweep --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(``bench/worker.py``) that imports ``opatomo`` from the checkout's ``src``;
passes repeat until ``--seconds`` is used up.  With ``--trace 0`` every pass
is untraced and the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are reported.
Metric names, units and directions are those of ``BENCHMARK.json``.

Every pass is checked: the worker checks the shape of its outputs, and all
passes of a run must write identical bytes (traced or not).  For the seeds in
``bench/expected.json`` the bytes must also match the recorded digests and
the two-displacement NNLS residual its recorded value.  The last stdout line
is the result; the lines before it give the environment and the digests, so
two commits can be compared byte for byte on any seed.  The full record,
per-pass figures included, goes to ``.bench_work/``.

Exits 2 without a result when the program cannot be imported.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("gain_sweep", "homodyne_d_sweep", "cli_session")
# Set-up is sampled at least this many times per run, with extra set-up-only
# processes when fewer passes fit.
MIN_SETUPS = 5
# Everything, the slowest pass included, must end within this many seconds.
RUN_DEADLINE_S = 160.0
RESIDUAL_TOLERANCE = 1e-12
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerCrashed(RuntimeError):
    pass


def run_worker(workload, seed, shot_divisor, deadline, *flags) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", str(WORK), "--shot-divisor", str(shot_divisor),
           *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerCrashed(f"worker timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerCrashed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel.strip()).resolve() == ROOT
    commit = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain") if in_repo else None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "workload_seed": seed,
    }


def check_passes(passes: list[dict], expected: dict | None) -> None:
    """Mark every pass whose outputs differ from the reference as failed.

    The reference is the recorded digests when there are some, else the
    first pass that ran cleanly."""
    clean = [p for p in passes if p.get("error") is None]
    if not clean:
        return
    ref_digests = expected["digests"] if expected else clean[0]["digests"]
    ref_residual = (expected or clean[0]["facts"]).get("double_residual")
    for p in clean:
        if p["digests"] != ref_digests:
            changed = sorted(set(p["digests"].items()) ^ set(ref_digests.items()))
            p["error"] = f"output bytes differ: {sorted({name for name, _ in changed})}"
        elif ref_residual is not None and not (
            abs(p["facts"]["double_residual"] - ref_residual) <= RESIDUAL_TOLERANCE
        ):
            p["error"] = (f"NNLS residual {p['facts']['double_residual']!r} differs from "
                          f"{ref_residual!r}")


def end_to_end(untraced: list[dict], setups: list[float]) -> dict:
    if not untraced:
        return {"setup_s": median(setups)} if setups else {}
    return {
        "wall_s": median(p["wall_s"] for p in untraced),
        "shots_per_s": median(p["shots"] / p["wall_s"] for p in untraced),
        "setup_s": median(setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    if traced:
        layers = [p["layers"] for p in traced]
        for name in sorted(set().union(*layers)):
            metrics[name] = median(layer[name] for layer in layers if name in layer)
        metrics["trace.wall_s"] = median(p["wall_s"] for p in traced)
    if untraced:
        metrics["process.cpu_util"] = median(p["cpu_util"] for p in untraced)
    if traced and untraced:
        metrics["trace.overhead_frac"] = (
            metrics["trace.wall_s"] / median(p["wall_s"] for p in untraced) - 1.0
        )
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shot-divisor", type=int, default=1,
                    help="divide every shot count (the benchmark's smoke tests)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    deadline = time.monotonic() + RUN_DEADLINE_S
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)

    def worker(*flags):
        return run_worker(args.workload, args.seed, args.shot_divisor, deadline, *flags)

    # Also compiles the program's bytecode before anything is timed.
    try:
        worker("--setup-only")
    except WorkerCrashed as exc:
        print(f"error: the program did not set up: {exc}", file=sys.stderr)
        return 2

    passes: list[dict] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        flags = (["--trace", "--spans-out", str(WORK / f"spans_{args.workload}.jsonl")]
                 if traced else [])
        t0 = time.monotonic()
        try:
            p = worker(*flags)
        except WorkerCrashed as exc:
            p = {"error": str(exc)}
        p["traced"] = traced
        passes.append(p)
        now = time.monotonic()
        enough = len(passes) >= 1 + args.trace
        if (enough and now - start + (now - t0) > args.seconds) or now >= deadline:
            break

    setups = [p["setup_s"] for p in passes if "setup_s" in p]
    while len(setups) < MIN_SETUPS and time.monotonic() < deadline - 10.0:
        try:
            setups.append(worker("--setup-only")["setup_s"])
        except WorkerCrashed:
            break

    expected = None
    expected_path = BENCH / "expected.json"
    if args.shot_divisor == 1 and expected_path.exists():
        expected = json.loads(expected_path.read_text()).get(args.workload, {}).get(str(args.seed))
    check_passes(passes, expected)
    clean = [p for p in passes if p.get("error") is None]
    untraced = [p for p in clean if not p["traced"]]
    traced = [p for p in clean if p["traced"]]

    if args.trace:
        kind, values = "per_layer", per_layer(untraced, traced)
    else:
        kind, values = "end_to_end", end_to_end(untraced, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[kind] if m["name"] in values}
    absent = [m["name"] for m in declared[kind] if m["name"] not in values]
    failed = len(passes) - len(clean)
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed,
              "metrics": metrics}

    env = environment(args.seed)
    digests = clean[0]["digests"] if clean else None
    record = {**result, "workload": args.workload, "trace": args.trace, "env": env,
              "digests": digests, "absent": absent, "setups_s": setups,
              "tracer_missing": sorted({n for p in traced for n in p.get("absent", [])}),
              "passes": [{k: v for k, v in p.items() if k not in ("digests", "layers")}
                         for p in passes]}
    (WORK / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for p in passes:
        if p.get("error"):
            print(f"failed pass: {p['error']}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"digests": digests}))
    if absent:
        print(json.dumps({"absent": absent}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
