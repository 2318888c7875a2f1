"""Tests of the benchmark itself: contract, layer map, tracer, smoke runs.

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--shot-divisor", "100"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_keeps_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert DECLARED["paths"] == ["bench"]
    assert 1 <= DECLARED["run_seconds"] <= 60
    # 4 + 22 runs per workload, each a little longer than run_seconds, in 3420 s.
    assert (4 + 22 * len(WORKLOADS)) * (DECLARED["run_seconds"] + 5) < 3420
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in DECLARED[kind]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in DECLARED["workloads"])
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_names_what_it_moves():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    assert list(layers) == [m["name"] for m in DECLARED["per_layer"]]
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    for name, entry in layers.items():
        assert set(entry["moves"]) <= end_to_end, name
        assert entry["workloads"] and set(entry["workloads"]) <= set(WORKLOADS), name
        assert entry["why"], name
        # Only the tracer's own figures move no end-to-end metric.
        assert entry["moves"] or name.startswith("trace."), name


def test_recorded_digests_cover_every_workload():
    expected = json.loads((BENCH / "expected.json").read_text())
    assert set(expected) == set(WORKLOADS)
    for workload, seeds in expected.items():
        assert len(seeds) >= 2, workload
        assert all(record["digests"] for record in seeds.values()), workload
    assert all("double_residual" in record for record in expected["cli_session"].values())


@pytest.fixture
def tracer_module():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import tracer

        yield tracer
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(BENCH))


def test_tracer_skips_missing_names_and_reports_their_metrics_absent(tracer_module, monkeypatch):
    from opatomo import chain, experiments

    targets = [t for t in tracer_module.TARGETS if t[2] != "chain.homodyne_shot"]
    targets.append(("opatomo.chain", "no_such_shot", "chain.homodyne_shot", None))
    monkeypatch.setattr(tracer_module, "TARGETS", targets)
    original = chain.intensity_shot
    plain = experiments.run_batch(experiments.preset("sq"), chain.ChainParams(), 300, 7)
    t = tracer_module.Tracer()
    assert t.install() == ["opatomo.chain.no_such_shot"]
    try:
        traced = experiments.run_batch(experiments.preset("sq"), chain.ChainParams(), 300, 7)
    finally:
        t.uninstall()
    assert chain.intensity_shot is original
    assert traced.outcomes.tobytes() == plain.outcomes.tobytes()
    metrics = t.layer_metrics()
    assert "chain.homodyne_shot.busy_s" not in metrics
    assert metrics["chain.intensity_shot.shots"] == 300
    assert metrics["chain.run_batch.calls"] == 1


def test_tracer_passes_results_and_exceptions_through(tracer_module):
    t = tracer_module.Tracer()

    def broken_note(args, kwargs, result):
        raise KeyError("bookkeeping")

    def fails():
        raise ValueError("boom")

    assert t.wrap(lambda x: x + 1, "ok", broken_note)(1) == 2
    with pytest.raises(ValueError, match="boom"):
        t.wrap(fails, "fails")()
    assert [s[6] for s in t.spans] == [{"note_error": "KeyError"}, {"error": "ValueError"}]
    assert t._stack == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_exactly_the_declared_metrics(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1 + trace
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    record = json.loads((ROOT / ".bench_work" / f"result_{workload}_seed3_trace{trace}.json")
                        .read_text())
    assert record["env"]["workload_seed"] == 3 and record["env"]["python"]
    # Traced passes were checked against the untraced pass's digests.
    assert any(p["traced"] for p in record["passes"]) == bool(trace)


def test_run_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
