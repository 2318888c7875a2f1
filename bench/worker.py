"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload gain_sweep --seed 0 --work-dir .bench_work [--trace]

Times the set-up (``import opatomo`` from this checkout's ``src``, the
workload's inputs, a temp dir), then one pass, then checks and digests what
the pass wrote.  Prints one JSON object.  With ``--setup-only`` it stops after
the set-up.  A fresh process per pass keeps one pass's peak memory out of the
next one's.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def digests(out_dir: str, skip_prefix: str) -> dict[str, str]:
    found = {}
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            if name.startswith(skip_prefix):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--shot-divisor", type=int, default=1)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import opatomo

    if not Path(opatomo.__file__).resolve().is_relative_to(SRC):
        print(f"opatomo was imported from {opatomo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    run, shots = workloads.prepare(args.workload, args.seed, args.shot_divisor)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_dir)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        os.rmdir(out_dir)
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        result["absent"] = tracer.install()
        run = tracer.wrap(run, "pass")

    error = None
    cpu0, w0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    try:
        run(out_dir)
    except Exception as exc:  # a failed pass is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - w0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    cpu_s = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    result.update(
        wall_s=wall_s,
        shots=shots,
        cpu_util=cpu_s / wall_s,
        peak_rss_mb=cpu1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )
    if error is None:
        try:
            result["facts"] = workloads.check_outputs(
                args.workload, out_dir, args.seed, args.shot_divisor
            )
            result["digests"] = digests(out_dir, workloads.UNCOMPARED_PREFIX)
        except (workloads.WorkloadFailure, OSError, ValueError, KeyError) as exc:
            error = f"output check: {type(exc).__name__}: {exc}"
    result["error"] = error
    shutil.rmtree(out_dir, ignore_errors=True)

    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
