import argparse
import builtins
import errno
import hashlib
import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from opatomo import cli, experiments, reconstruct
from opatomo.chain import (
    BATCH_CHUNK,
    BatchFile,
    ChainParams,
    HomodyneDetector,
    ShotBatch,
    draw_chunk,
    run_batch,
)
from opatomo.cli import EXIT_CONFIG, EXIT_OK, EXIT_POSITIVITY, RunConfig, build_parser, main
from opatomo.experiments import (
    SweepSpec,
    homodyne_comparison,
    robustness_sweep,
    squeezing_table,
    sweep_gain,
)
from opatomo.reconstruct import (
    GRID_HALF_WIDTH,
    METHODS,
    displaced_reconstruct,
    double_displacement_reconstruct,
    fold_displacement,
    homodyne_reconstruct,
    standard_reconstruct,
)
from opatomo.states import PRESETS, SourceState, preset
from python_helpers import C_LOCALE, run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate(capsys, tmp_path, *extra):
    args = ["simulate", "--out-dir", str(tmp_path)] + list(extra)
    code, out, err = run_cli(capsys, *args)
    assert code == EXIT_OK, err
    return out.strip()


def test_presets_lists_catalog(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == EXIT_OK
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == ["vac", "sq", "sq_disp", "mix", "mix_disp", "fock1", "fock2", "fock4"]


def test_simulate_writes_deterministic_batches(capsys, tmp_path):
    path_a = simulate(capsys, tmp_path / "a", "--state", "sq", "--n-shots", "500")
    path_b = simulate(capsys, tmp_path / "b", "--state", "sq", "--n-shots", "500")
    with open(path_a, "rb") as fh:
        first = fh.read()
    with open(path_b, "rb") as fh:
        second = fh.read()
    assert first == second
    path_c = simulate(
        capsys, tmp_path / "c", "--state", "sq", "--n-shots", "500", "--seed", "9"
    )
    with open(path_c, "rb") as fh:
        assert fh.read() != first


def test_simulate_homodyne_detector(capsys, tmp_path):
    path = simulate(capsys, tmp_path, "--state", "fock2", "--detector", "homodyne",
                    "--n-shots", "200")
    with open(path) as fh:
        header = json.loads(fh.readline()[2:])
    assert header["chain"]["detector"]["kind"] == "homodyne"
    assert header["state"] == "fock2"


def test_detector_field_assignment_switches_detector(capsys, tmp_path):
    path = simulate(capsys, tmp_path, "--state", "vac", "--n-shots", "100",
                    "--set", "efficiency=0.5")
    with open(path) as fh:
        header = json.loads(fh.readline()[2:])
    assert header["chain"]["detector"]["kind"] == "homodyne"
    assert header["chain"]["detector"]["efficiency"] == 0.5


def test_config_file_set_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# reference point\n"
        "state = sq\n"
        "displacement = 25  # overridden twice below\n"
        "n_shots = 300\n"
    )
    path = simulate(capsys, tmp_path, "--config", str(config),
                    "--set", "displacement=100", "--displacement", "50")
    with open(path) as fh:
        header = json.loads(fh.readline()[2:])
    assert header["chain"]["displacement"] == 50.0
    assert header["n_shots"] == 300

    path = simulate(capsys, tmp_path / "b", "--config", str(config),
                    "--set", "displacement=100")
    with open(path) as fh:
        header = json.loads(fh.readline()[2:])
    assert header["chain"]["displacement"] == 100.0


def test_a_config_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    (tmp_path / "run.cfg").write_bytes("n_shots = 20  # café\n".encode("utf-8"))
    batches = []
    for name, env in (("here", None), ("ascii", C_LOCALE)):
        proc = run_python("-m", "opatomo.cli", "simulate", "--config", "run.cfg",
                          "--out-dir", name, env=env, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        batches.append((tmp_path / name / "batch_sq_0.csv").read_bytes())
    assert batches[0] == batches[1]


def test_a_config_byte_that_does_not_decode_is_refused_naming_the_file(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"n_shots = 20  # caf\xe9\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert err == (f"error: {config}: 'utf-8' codec can't decode byte 0xe9 in position 19: "
                   "invalid continuation byte\n")
    assert not (tmp_path / "out").exists()


# The option strings every command that runs the chain takes, and each
# command's own; pinned so that deriving flags from the settings dataclasses
# can neither rename nor drop one.
COMMON_OPTIONS = [
    "--bin-width", "--config", "--detector", "--displacement", "--gain", "--gain-jitter",
    "--help", "--input-noise", "--input-transmittance", "--method", "--n-shots", "--out-dir",
    "--output-noise", "--output-transmittance", "--output-transmittance-jitter", "--seed",
    "--set", "--state", "-h",
]
COMMAND_OPTIONS = {
    "simulate": COMMON_OPTIONS,
    "reconstruct": COMMON_OPTIONS + ["--batch", "--batch2"],
    "sweep": COMMON_OPTIONS + ["--grid", "--kind", "--methods", "--param", "--repeats"],
    "squeeze": COMMON_OPTIONS + ["--m", "--repeats"],
    "presets": ["--help", "-h"],
}


def test_command_options_are_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: sorted(s for action in parser._actions for s in action.option_strings)
        for name, parser in sub.choices.items()
    }
    assert options == {name: sorted(opts) for name, opts in COMMAND_OPTIONS.items()}


@pytest.mark.parametrize("extra,config,key", [
    (["--set", "efficiency=0.5", "--detector", "intensity"], None, "efficiency"),
    ([], "efficiency = 0.5\ndetector = intensity\n", "efficiency"),
    (["--set", "n_shots=x"], None, "n_shots"),
    ([], "gain = abc\n", "gain"),
    (["--gain", "abc"], None, "gain"),
], ids=["homodyne-field-flags", "homodyne-field-config", "cast-set", "cast-config", "cast-flag"])
def test_bad_setting_exits_naming_its_key(capsys, tmp_path, extra, config, key):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        extra = ["--config", str(tmp_path / "run.cfg")]
    code, _, err = run_cli(capsys, "simulate", "--n-shots", "5",
                           "--out-dir", str(tmp_path / "out"), *extra)
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {key}:") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


# Every chain and detector field, each set to a value no default has.
SETTABLE_FIELDS = [
    *((f.name, False) for f in fields(ChainParams) if f.name != "detector"),
    *((f.name, True) for f in fields(HomodyneDetector) if f.name != "kind"),
]


@pytest.mark.parametrize("name,on_detector", SETTABLE_FIELDS,
                         ids=[name for name, _ in SETTABLE_FIELDS])
def test_simulate_set_lands_in_batch_header(capsys, tmp_path, name, on_detector):
    path = simulate(capsys, tmp_path, "--n-shots", "5", "--set", f"{name}=0.25")
    with open(path) as fh:
        chain = json.loads(fh.readline()[2:])["chain"]
    assert (chain["detector"] if on_detector else chain)[name] == 0.25
    assert chain["detector"]["kind"] == ("homodyne" if on_detector else "intensity")


# sha256 of the batch CSV and the run JSON `simulate` writes under ./out.
SIMULATE_DIGESTS = {
    "intensity": (
        ["--state", "sq", "--n-shots", "300", "--displacement", "100"],
        "batch_sq_0",
        "500d0ecf4fa955ea38f20813703e5346deda817b14305314e4167ce695b718a8",
        "0834dde810a93e474767073815bf9739f63cd9c81a1d3bdb86a48fa4ea4d6b17",
    ),
    "homodyne": (
        ["--state", "fock2", "--detector", "homodyne", "--n-shots", "300",
         "--set", "efficiency=0.8", "--set", "electronic_noise=0.1", "--seed", "5"],
        "batch_fock2_5",
        "e5b2eb900657c645f84e84a76be386b69be7f165e9d6a5885b16a8962fbe8dba",
        "1921e751e05624f1f946b46572ebb29ad96ce0f73a8277a48f6f586778777c9a",
    ),
}


@pytest.mark.parametrize("kind", sorted(SIMULATE_DIGESTS))
def test_simulate_output_digests(capsys, tmp_path, monkeypatch, kind):
    argv, stem, csv_digest, json_digest = SIMULATE_DIGESTS[kind]
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "simulate", "--out-dir", "out", *argv)
    assert code == EXIT_OK, err
    digests = tuple(
        hashlib.sha256((tmp_path / "out" / (stem + ext)).read_bytes()).hexdigest()
        for ext in (".csv", ".json")
    )
    assert digests == (csv_digest, json_digest)


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--out-dir", str(tmp_path),
                           "--set", "gian=3")
    assert code == EXIT_CONFIG
    assert "gian" in err


def test_unknown_state_exits_with_config_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--out-dir", str(tmp_path),
                           "--state", "squeezed")
    assert code == EXIT_CONFIG
    assert err == f"error: state: unknown preset 'squeezed'; known: {', '.join(PRESETS)}\n"


def test_reconstruct_displaced_reports_fidelity(capsys, tmp_path):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                     "--n-shots", "20000")
    code, out, err = run_cli(capsys, "reconstruct", "--batch", batch,
                             "--method", "displaced", "--out-dir", str(tmp_path))
    assert code == EXIT_OK, err
    report = json.loads(out)
    assert report["method"] == "displaced"
    assert report["N"] == 20000
    assert report["state"] == "sq"
    assert 0.0 <= report["fidelity"] <= 1.0
    assert report["infidelity"] == pytest.approx(1.0 - report["fidelity"])
    assert (tmp_path / "recon_displaced_batch_sq_0.csv").exists()
    assert (tmp_path / "recon_displaced_batch_sq_0.json").exists()


def test_reconstruct_positivity_violation_hints_second_batch(capsys, tmp_path):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--n-shots", "5000")
    code, _, err = run_cli(capsys, "reconstruct", "--batch", batch,
                           "--method", "displaced", "--out-dir", str(tmp_path))
    assert code == EXIT_POSITIVITY
    assert "second batch" in err
    assert "--method double" in err


def test_reconstruct_standard_rejects_displaced_batch(capsys, tmp_path):
    # Each method refuses a batch it cannot read, naming the method key.
    intensity = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                         "--n-shots", "1000")
    homodyne = simulate(capsys, tmp_path / "h", "--state", "sq", "--detector", "homodyne",
                        "--n-shots", "1000")
    homodyne_displaced = simulate(capsys, tmp_path / "hd", "--state", "sq",
                                  "--detector", "homodyne", "--displacement", "100",
                                  "--n-shots", "1000")
    for method, batches, why in [
        ("standard", [intensity], "standard needs a batch taken at zero displacement"),
        ("standard", [homodyne], "standard cannot read the homodyne detector"),
        ("displaced", [homodyne], "displaced cannot read the homodyne detector"),
        ("homodyne", [intensity], "homodyne cannot read the intensity detector"),
        ("double", [homodyne, homodyne_displaced], "double cannot read the homodyne detector"),
    ]:
        argv = ["--batch", batches[0], *(["--batch2", batches[1]] if batches[1:] else [])]
        out_dir = tmp_path / f"out_{method}"
        code, _, err = run_cli(capsys, "reconstruct", *argv, "--method", method,
                               "--out-dir", str(out_dir))
        assert (code, err) == (EXIT_CONFIG, f"error: method: {why}\n")
        assert not out_dir.exists()


def test_reconstruct_double_needs_two_batches(capsys, tmp_path):
    batch = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "33",
                     "--n-shots", "1000")
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "reconstruct", "--batch", batch,
                           "--method", "double", "--out-dir", str(out_dir))
    assert code == EXIT_CONFIG
    assert err.startswith("error: batch2: ")
    # A second batch is refused by every single-pass method before any file
    # is read, so a missing one gives the same error.
    for method in ("standard", "displaced", "homodyne"):
        for batch2 in (batch, str(tmp_path / "missing.csv")):
            code, _, err = run_cli(capsys, "reconstruct", "--batch", batch, "--batch2", batch2,
                                   "--method", method, "--out-dir", str(out_dir))
            assert code == EXIT_CONFIG
            assert err.startswith("error: batch2: ")
    assert not out_dir.exists()


def test_reconstruct_double_end_to_end(capsys, tmp_path):
    first = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "33",
                     "--n-shots", "30000", "--seed", "0")
    second = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "66",
                      "--n-shots", "30000", "--seed", "1")
    code, out, err = run_cli(capsys, "reconstruct", "--batch", first,
                             "--batch2", second, "--method", "double",
                             "--bin-width", "0.2", "--out-dir", str(tmp_path))
    assert code == EXIT_OK, err
    report = json.loads(out)
    assert report["N"] == 60000
    assert report["fidelity"] > 0.95
    assert report["diag_nnls_converged"] is True
    # A second batch of another state is refused, naming both states.
    other = simulate(capsys, tmp_path / "sq", "--state", "sq", "--displacement", "66",
                     "--n-shots", "1000")
    code, _, err = run_cli(capsys, "reconstruct", "--batch", first, "--batch2", other,
                           "--method", "double", "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert "'mix'" in err and "'sq'" in err
    assert not (tmp_path / "out").exists()


def test_reconstruct_double_calls_no_lapack(capsys, tmp_path, monkeypatch):
    # numpy's first LAPACK call maps about 1.1 MiB that stays resident for the
    # rest of the process, so the two-displacement unfold makes none.
    first = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "33",
                     "--n-shots", "30000", "--seed", "0")
    second = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "66",
                      "--n-shots", "30000", "--seed", "1")

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} was called")
        return call

    for name in np.linalg.__all__:
        function = getattr(np.linalg, name)
        if callable(function) and not isinstance(function, type):
            monkeypatch.setattr(np.linalg, name, refuse(name))
    code, _, err = run_cli(capsys, "reconstruct", "--batch", first, "--batch2", second,
                           "--method", "double", "--bin-width", "0.2",
                           "--out-dir", str(tmp_path))
    assert code == EXIT_OK, err


@pytest.mark.parametrize("stray", [1e6, 1e9])
def test_reconstruct_double_counts_stray_outcomes_as_overflow(capsys, tmp_path, stray):
    first = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "33",
                     "--n-shots", "20000", "--seed", "0")
    second = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "66",
                      "--n-shots", "20000", "--seed", "1")

    def report(out_dir):
        code, out, err = run_cli(capsys, "reconstruct", "--batch", first, "--batch2", second,
                                 "--method", "double", "--bin-width", "0.2",
                                 "--out-dir", str(tmp_path / out_dir))
        assert code == EXIT_OK, err
        return json.loads(out)

    clean = report("clean")
    # Two stray rows join the first batch, its header's n_shots following.
    batch = ShotBatch.from_csv(first)
    outcomes = np.concatenate([batch.outcomes, [stray, stray]])
    replace(batch, outcomes=outcomes).to_csv(first)
    strayed = report("stray")
    assert strayed["N"] == clean["N"] + 2
    assert (strayed["diag_n1"], strayed["diag_n2"]) == (clean["diag_n1"], clean["diag_n2"]) == (7, 10)
    assert strayed["fidelity"] == pytest.approx(clean["fidelity"], abs=1e-3)


def test_reconstruct_unknown_batch_state_exits_with_config_error(capsys, tmp_path):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                     "--n-shots", "100")
    with open(batch) as fh:
        header, rest = fh.readline(), fh.read()
    meta = json.loads(header[2:])
    meta["state"] = "squeezed"
    with open(batch, "w") as fh:
        fh.write("# " + json.dumps(meta) + "\n" + rest)
    code, _, err = run_cli(capsys, "reconstruct", "--batch", batch,
                           "--method", "displaced", "--out-dir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert err.startswith("error: state:")
    assert "squeezed" in err


def test_reconstruct_double_sparse_batches_exit_with_config_error(capsys, tmp_path):
    first = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "33",
                     "--n-shots", "1", "--seed", "0")
    second = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "66",
                      "--n-shots", "1", "--seed", "1")
    code, _, err = run_cli(capsys, "reconstruct", "--batch", first,
                           "--batch2", second, "--method", "double",
                           "--out-dir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "dependable count" in err


def _rewrite_outcomes(path, edit):
    with open(path) as fh:
        header, column, *rows = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join([header, column, *edit(rows)]) + "\n")


def _reconstruct_exit(capsys, tmp_path, batch, *extra):
    code, _, err = run_cli(capsys, "reconstruct", "--batch", batch,
                           "--method", "displaced", "--out-dir", str(tmp_path), *extra)
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and len(err.splitlines()) == 1
    return err


def test_reconstruct_rejects_batch_shorter_than_header(capsys, tmp_path):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                     "--n-shots", "5")
    _rewrite_outcomes(batch, lambda rows: rows[:3])
    err = _reconstruct_exit(capsys, tmp_path, batch)
    assert "n_shots = 5" in err and "3 outcomes" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_reconstruct_rejects_non_finite_outcomes(capsys, tmp_path, bad):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                     "--n-shots", "5")
    _rewrite_outcomes(batch, lambda rows: [bad] + rows[1:])
    assert "finite" in _reconstruct_exit(capsys, tmp_path, batch)


@pytest.mark.parametrize("flag,value", [
    ("--displacement", "50"), ("--gain", "3"), ("--output-noise", "1"),
    ("--detector", "homodyne"), ("--state", "mix"), ("--n-shots", "7"), ("--seed", "3"),
    ("--set", "gain=3"), ("--set", "state=mix"), ("--set", "detector=homodyne"),
    ("--set", "efficiency=0.5"), ("--config", "seed = 3"), ("--config", "n_shots=7"),
    ("--config", "output_noise = 1"), ("--config", "vacuum_noise = 0.3"),
])
def test_reconstruct_rejects_flags_the_batch_header_fixes(capsys, tmp_path, flag, value):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                     "--n-shots", "200")
    key = value.split("=")[0].strip() if flag in ("--set", "--config") else flag[2:]
    if flag == "--config":
        (tmp_path / "run.cfg").write_text(f"method = displaced\n{value}\n")
        value = str(tmp_path / "run.cfg")
    err = _reconstruct_exit(capsys, tmp_path, batch, flag, value)
    assert err.startswith(f"error: {key.replace('-', '_')}:") and "batch header" in err


def _rename(key, new):
    return lambda meta: {new if k == key else k: v for k, v in meta.items()}


@pytest.mark.parametrize("edit,needle", [
    pytest.param(_rename("chain", "chian"), "lacks chain", id="chain-renamed"),
    pytest.param(_rename("n_shots", "shots"), "lacks n_shots", id="n_shots-renamed"),
    pytest.param(lambda meta: {k: v for k, v in meta.items() if k != "seed"}, "lacks seed",
                 id="seed-dropped"),
    pytest.param(lambda meta: [meta], "JSON object", id="not-an-object"),
    pytest.param(lambda meta: {**meta, "chain": [1, 2]}, "chain: must be a JSON object",
                 id="chain-not-an-object"),
    pytest.param(lambda meta: {**meta, "chain": {**meta["chain"], "gian": 4.0}},
                 "unknown fields ['gian']", id="unknown-chain-field"),
    pytest.param(lambda meta: {**meta, "chain": {**meta["chain"], "gain": "high"}}, "chain:",
                 id="non-numeric-gain"),
    pytest.param(lambda meta: {**meta, "n_shots": None}, "integers", id="null-n_shots"),
    pytest.param(lambda meta: {**meta, "n_shots": 5.9},
                 "n_shots and seed must be integers (got 5.9 and 0)", id="fractional-n_shots"),
    pytest.param(lambda meta: {**meta, "n_shots": 0}, "n_shots must be at least 1 (got 0)",
                 id="zero-n_shots"),
    pytest.param(lambda meta: {**meta, "n_shots": -5}, "n_shots must be at least 1 (got -5)",
                 id="negative-n_shots"),
    pytest.param(lambda meta: {**meta, "chain": {**meta["chain"], "gain": True}},
                 "chain: gain must be a number (got True)", id="boolean-gain"),
    pytest.param(lambda meta: {**meta, "state": ["sq"]}, "state must be a string",
                 id="state-not-a-string"),
    pytest.param(lambda meta: {**meta, "chain": {**meta["chain"], "detector": {
        "kind": "intensity", "efficiency": 0.5, "electronic_noise": 3.0}}},
        "efficiency: is a homodyne setting, but detector=intensity",
        id="homodyne-field-on-intensity"),
])
def test_reconstruct_rejects_malformed_batch_header(capsys, tmp_path, edit, needle):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                     "--n-shots", "5")
    _edit_header(batch, edit)
    assert needle in _reconstruct_exit(capsys, tmp_path, batch)


def _edit_header(path, edit):
    with open(path) as fh:
        header, rest = fh.readline(), fh.read()
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(edit(json.loads(header[2:]))) + "\n" + rest)


_SQ_100 = ("--state", "sq", "--displacement", "100")
_MIX_33 = ("--state", "mix", "--displacement", "33", "--seed", "0")
_MIX_66 = ("--state", "mix", "--displacement", "66", "--seed", "1")
_LACKS_SEED = _rename("seed", "sede")
_BAD_LAST_ROW = lambda rows: [*rows[:-1], "x"]  # noqa: E731

# A batch file with two or more faults: its batches, each (simulate flags,
# header edit, rows edit), the method and flags that read them, and the one
# error that wins.  Every header, and every check on headers and flags, is
# made before any row is read; after the headers come row parse errors, the
# row count, non-finite values and positivity, in that order, file by file.
MULTI_FAULTS = {
    "header-before-rows": ([(_SQ_100, _LACKS_SEED, _BAD_LAST_ROW)], "displaced", [],
                           "lacks seed"),
    "shot-count-before-rows": (
        [(_SQ_100, lambda meta: {**meta, "n_shots": 0}, _BAD_LAST_ROW)], "displaced", [],
        "n_shots must be at least 1 (got 0)"),
    "unknown-state-before-rows": (
        [(_SQ_100, lambda meta: {**meta, "state": "squeezed"}, _BAD_LAST_ROW)], "displaced", [],
        "state: unknown preset 'squeezed'; known: vac,"),
    "method-before-rows": ([(_SQ_100, None, _BAD_LAST_ROW)], "standard", [],
                           "method: standard needs a batch taken at zero displacement"),
    "bin-cap-before-rows": ([(_SQ_100, None, _BAD_LAST_ROW)], "displaced",
                            ["--bin-width", "1e-7"], "exceeds the cap"),
    "bin-cap-before-positivity": ([(("--state", "sq"), None, None)], "displaced",
                                  ["--bin-width", "1e-7"], "exceeds the cap"),
    "row-before-count": ([(_SQ_100, None, lambda rows: ["x", *rows[2:]])], "displaced", [],
                         r"could not convert string to float: 'x\n'"),
    "count-before-finite": ([(_SQ_100, None, lambda rows: ["nan", *rows[2:]])], "displaced", [],
                            "n_shots = 200 but the file holds 199 outcomes"),
    "finite-before-positivity": ([(("--state", "sq"), None, lambda rows: ["inf", *rows[1:]])],
                                 "displaced", [], "outcomes must be finite"),
    "second-header-before-first-rows": (
        [(_MIX_33, None, _BAD_LAST_ROW), (_MIX_66, _LACKS_SEED, None)], "double", [],
        "lacks seed"),
    "states-before-rows": (
        [(_MIX_33, None, _BAD_LAST_ROW), (("--state", "sq", "--displacement", "66"), None, None)],
        "double", [], "batches hold different states ('mix' and 'sq')"),
    "chains-before-rows": (
        [(_MIX_33, None, _BAD_LAST_ROW), ((*_MIX_66, "--gain", "3"), None, None)], "double", [],
        "disagree on nominal chain parameters"),
    "displacements-before-rows": (
        [(_MIX_33, None, _BAD_LAST_ROW), (("--state", "mix", "--displacement", "33"), None, None)],
        "double", [], "needs two distinct displacements"),
    "fold-bin-cap-before-rows": ([(_MIX_33, None, _BAD_LAST_ROW), (_MIX_66, None, None)], "double",
                                 ["--bin-width", "1e-7"], "exceeds the cap"),
    "first-file-before-second": (
        [(_MIX_33, None, lambda rows: rows[:-1]), (_MIX_66, None, _BAD_LAST_ROW)], "double", [],
        "n_shots = 200 but the file holds 199 outcomes"),
}


@pytest.mark.parametrize("case", list(MULTI_FAULTS))
def test_reconstruct_checks_every_header_before_any_row(capsys, tmp_path, case):
    specs, method, extra, needle = MULTI_FAULTS[case]
    paths = []
    for i, (flags, header_edit, rows_edit) in enumerate(specs):
        path = simulate(capsys, tmp_path / f"batch{i}", *flags, "--n-shots", "200")
        if rows_edit is not None:
            _rewrite_outcomes(path, rows_edit)
        if header_edit is not None:
            _edit_header(path, header_edit)
        paths.append(path)
    argv = ["--batch", paths[0], *(["--batch2", paths[1]] if paths[1:] else [])]
    code, _, err = run_cli(capsys, "reconstruct", *argv, "--method", method, *extra,
                           "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert needle in err
    assert not (tmp_path / "out").exists()


# Two whole blocks of rows and a part of a third.
EDGE_SHOTS = 2 * BATCH_CHUNK + 7
EDGE_BATCHES = {
    "standard": [("sq", ChainParams(), 0)],
    "displaced": [("sq", ChainParams(displacement=100.0), 0)],
    "homodyne": [("sq", ChainParams(displacement=100.0, detector=HomodyneDetector()), 0)],
    "double": [("mix", ChainParams(displacement=33.0), 0),
               ("mix", ChainParams(displacement=66.0), 1)],
}
IN_MEMORY = {
    "standard": standard_reconstruct,
    "displaced": displaced_reconstruct,
    "homodyne": homodyne_reconstruct,
    "double": lambda a, b, w: double_displacement_reconstruct(a, b, w)[0],
}


def _write_ragged(batch: ShotBatch, path) -> None:
    """``batch`` as a batch file with CRLF line ends and blank lines between
    its first two blocks of rows and at its end."""
    batch.to_csv(path)
    lines = path.read_text().splitlines()
    boundary = 2 + BATCH_CHUNK
    lines[boundary:boundary] = ["", " \t"]
    path.write_bytes(("\r\n".join([*lines, "", "  "]) + "\r\n").encode())


@pytest.mark.parametrize("method", list(EDGE_BATCHES))
def test_reconstruct_reads_blocks_as_the_in_memory_route_does(capsys, tmp_path, method):
    width = "0.2" if method == "double" else "0.05"
    batches = [run_batch(preset(state), params, EDGE_SHOTS, seed)
               for state, params, seed in EDGE_BATCHES[method]]
    paths = []
    for i, batch in enumerate(batches):
        paths.append(tmp_path / f"batch{i}.csv")
        _write_ragged(batch, paths[-1])
        assert np.array_equal(ShotBatch.from_csv(paths[-1]).outcomes, batch.outcomes)
    argv = ["--batch", str(paths[0]), *(["--batch2", str(paths[1])] if paths[1:] else [])]
    code, _, err = run_cli(capsys, "reconstruct", *argv, "--method", method,
                           "--bin-width", width, "--out-dir", str(tmp_path / "cli"))
    assert code == EXIT_OK, err
    IN_MEMORY[method](*batches, float(width)).to_csv(tmp_path / "in_memory.csv")
    assert ((tmp_path / "cli" / f"recon_{method}_batch0.csv").read_bytes()
            == (tmp_path / "in_memory.csv").read_bytes())


def test_reconstruct_refuses_a_row_past_a_whole_block(capsys, tmp_path):
    batch = run_batch(preset("sq"), ChainParams(displacement=100.0), BATCH_CHUNK + 1, seed=0)
    path = tmp_path / "batch.csv"
    BatchFile(path, batch.params, BATCH_CHUNK, batch.seed, batch.state_label).write(
        batch.blocks())
    err = _reconstruct_exit(capsys, tmp_path, str(path))
    assert f"n_shots = {BATCH_CHUNK} but the file holds {BATCH_CHUNK + 1} outcomes" in err
    assert not list(tmp_path.glob("recon_*"))


def test_reconstruct_refuses_a_deeply_nested_header(capsys, tmp_path):
    # json.loads raises RecursionError, which is not a ValueError, on such a header.
    path = tmp_path / "batch.csv"
    path.write_text("# " + "[" * 200_000 + "\noutcome\n1.0\n")
    err = _reconstruct_exit(capsys, tmp_path, str(path))
    assert err == f"error: {path}: batch header nests too deeply\n"
    assert os.listdir(tmp_path) == ["batch.csv"]


@pytest.mark.parametrize("flag", ["--batch", "--batch2"])
@pytest.mark.parametrize("at", ["header", "row"])
def test_reconstruct_names_the_file_that_holds_a_byte_that_does_not_decode(capsys, tmp_path,
                                                                           flag, at):
    # 4,000 rows fill more than the 8 KiB the header read decodes, so a bad
    # byte in the last row is met by the row reader, not the header read.
    paths = [simulate(capsys, tmp_path / f"batch{i}", "--state", "mix", "--displacement", d,
                      "--n-shots", "4000", "--seed", str(i))
             for i, d in enumerate(("33", "66"))]
    bad = paths[flag == "--batch2"]
    with open(bad, "rb") as fh:
        data = fh.read()
    cut = data.index(b"\n") - 1 if at == "header" else len(data) - 3
    with open(bad, "wb") as fh:
        fh.write(data[:cut] + b"\xff" + data[cut:])
    if at == "row":
        BatchFile.read_header(bad)
    code, _, err = run_cli(capsys, "reconstruct", "--batch", paths[0], "--batch2", paths[1],
                           "--method", "double", "--bin-width", "0.2",
                           "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_reconstruct_refuses_a_bin_width_beyond_the_bin_cap(capsys, tmp_path):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                     "--n-shots", "200")
    err = _reconstruct_exit(capsys, tmp_path, batch, "--bin-width", "1.2e-6")
    assert "cap" in err
    assert not list(tmp_path.glob("recon_*"))


def test_standard_refuses_a_mirrored_grid_beyond_the_bin_cap(capsys, tmp_path, monkeypatch):
    # Standard's half grid [0, 6) is 750,000 bins of this width, under the
    # cap, but the grid it mirrors them onto is 1,500,000: reconstruct refuses
    # it before any slice is binned, as the sweeps refuse the same width.
    batch = simulate(capsys, tmp_path, "--state", "sq", "--n-shots", "2000")
    binned, real = [], reconstruct.bin_values
    monkeypatch.setattr(reconstruct, "bin_values",
                        lambda *args: binned.append(args) or real(*args))
    cap = ("a grid of 1500000 bins of width 8e-06 exceeds the cap of 1000000 bins; "
           "use a wider bin width\n")
    code, _, err = run_cli(capsys, "reconstruct", "--batch", batch, "--method", "standard",
                           "--bin-width", "8e-6", "--out-dir", str(tmp_path))
    assert (code, err, binned) == (EXIT_CONFIG, "error: " + cap, [])
    assert not list(tmp_path.glob("recon_*"))
    code, _, err = run_cli(capsys, "sweep", "--kind", "displacement", "--methods", "standard",
                           "--bin-width", "8e-6", "--out-dir", str(tmp_path / "out"))
    assert (code, err) == (EXIT_CONFIG, "error: bin_width: " + cap)


def test_reconstruct_double_refuses_a_bin_width_beyond_the_bin_cap(capsys, tmp_path):
    # The fold grid's extent comes from the chain, so the cap is checked on
    # the first slice, before the unfold or any file is written.
    first = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "33",
                     "--n-shots", "200", "--seed", "0")
    second = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "66",
                      "--n-shots", "200", "--seed", "1")
    code, _, err = run_cli(capsys, "reconstruct", "--batch", first, "--batch2", second,
                           "--method", "double", "--bin-width", "1e-7",
                           "--out-dir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "exceeds the cap of 1000000 bins" in err
    assert not list(tmp_path.glob("recon_*"))


def test_reconstruct_double_refuses_a_subnormal_bin_width(capsys, tmp_path):
    # The fold grid's bin count overflows to inf; the cap refuses it before
    # the count is rounded to an integer.
    first = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "33",
                     "--n-shots", "200", "--seed", "0")
    second = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "66",
                      "--n-shots", "200", "--seed", "1")
    code, _, err = run_cli(capsys, "reconstruct", "--batch", first, "--batch2", second,
                           "--method", "double", "--bin-width", "5e-324",
                           "--out-dir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert err == ("error: a grid of inf bins of width 5e-324 exceeds the cap of 1000000 "
                   "bins; use a wider bin width\n")
    assert not list(tmp_path.glob("recon_*"))


def test_reconstruct_double_accepts_a_grid_of_exactly_the_bin_cap(capsys, tmp_path):
    # The fold grid's top, 6 plus the larger fold displacement, is exactly
    # 10**6 bins of this width, so the grid is the cap's own size; 200 shots
    # over it leave no dependable bin for the unfold.
    width = "7.214922039791464e-06"
    first = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "33",
                     "--n-shots", "200", "--seed", "0")
    second = simulate(capsys, tmp_path, "--state", "mix", "--displacement", "66",
                      "--n-shots", "200", "--seed", "1")
    top = GRID_HALF_WIDTH + fold_displacement(ShotBatch.from_csv(second).params)
    assert top / float(width) == 1e6
    code, _, err = run_cli(capsys, "reconstruct", "--batch", first, "--batch2", second,
                           "--method", "double", "--bin-width", width,
                           "--out-dir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert err == "error: folded histograms carry no bin with a dependable count\n"


@pytest.mark.parametrize("method,first_center,extra", [
    ("standard", -6.02 + 0.035, ["--displacement", "0"]),
    ("displaced", -6.0 + 0.035, ["--displacement", "100"]),
    ("homodyne", -6.0 + 0.035, ["--displacement", "100", "--detector", "homodyne"]),
], ids=["standard", "displaced", "homodyne"])
def test_reconstruct_rounds_a_grid_up_to_whole_bins(capsys, tmp_path, method, first_center,
                                                    extra):
    # 0.07 does not divide 6: the 12-unit grid is rounded up to 172 bins,
    # [-6, 6.04), and standard's half grid to 86, mirrored onto [-6.02, 6.02).
    batch = simulate(capsys, tmp_path, "--state", "sq", "--n-shots", "2000", *extra)
    code, out, err = run_cli(capsys, "reconstruct", "--batch", batch, "--method", method,
                             "--bin-width", "0.07", "--out-dir", str(tmp_path))
    assert code == EXIT_OK, err
    assert json.loads(out)["fidelity"] > 0.99
    with open(tmp_path / f"recon_{method}_batch_sq_0.csv") as fh:
        # Centers are numpy floats, written as their repr under numpy 2.
        centers = np.array([float(line.split(",")[0].removeprefix("np.float64(").rstrip(")"))
                            for line in fh.read().splitlines()[1:]])
    assert centers.size == 172
    assert centers[0] == pytest.approx(first_center)
    assert np.diff(centers) == pytest.approx(np.full(171, 0.07))


@pytest.mark.parametrize("method", METHODS)
def test_cli_binds_every_estimator(method):
    # reconstruct calls each estimator by its METHODS name through the cli
    # module's bindings, so a missing import would fail only at run time.
    name = METHODS[method][2]
    assert getattr(cli, name) is getattr(reconstruct, name)


BAD_RUN_ARGUMENTS = {
    "reconstruct-inf": ("reconstruct", ["--bin-width", "inf"], "bin_width"),
    "reconstruct-nan": ("reconstruct", ["--bin-width", "nan"], "bin_width"),
    "sweep-inf": ("sweep", ["--kind", "displacement", "--bin-width", "inf"], "bin_width"),
    "sweep-grid": ("sweep", ["--kind", "gain", "--grid", "2,abc"], "grid"),
    "squeeze-m": ("squeeze", ["--m", "3,x"], "m"),
    "sweep-grid-unsorted": ("sweep", ["--kind", "gain", "--grid", "4,2"], "grid"),
    "sweep-grid-repeated": ("sweep", ["--kind", "displacement", "--grid", "10,10"], "grid"),
    "sweep-methods-repeated": ("sweep", ["--kind", "displacement", "--grid", "10,100",
                                         "--methods", "displaced,displaced"], "methods"),
    "sweep-methods-unknown": ("sweep", ["--kind", "homodyne-d", "--grid", "10", "--methods",
                                        "foo"], "methods"),
    # A method must read the detector it runs on; the homodyne kinds run their
    # own homodyne curves and their listed methods on the intensity detector.
    "sweep-methods-homodyne-on-intensity": (
        "sweep", ["--kind", "displacement", "--grid", "100", "--methods", "homodyne"],
        "methods"),
    "sweep-methods-standard-on-homodyne": (
        "sweep", ["--kind", "gain", "--grid", "2", "--detector", "homodyne", "--methods",
                  "standard"], "methods"),
    "sweep-methods-homodyne-d": (
        "sweep", ["--kind", "homodyne-d", "--grid", "10", "--methods", "displaced,homodyne"],
        "methods"),
    "sweep-methods-homodyne-gain": (
        "sweep", ["--kind", "homodyne-gain", "--grid", "2", "--methods", "homodyne"], "methods"),
    # An explicit empty list is refused, not read as absent.
    "sweep-methods-empty": ("sweep", ["--kind", "displacement", "--grid", "10", "--methods", ""],
                            "methods"),
    "sweep-grid-empty": ("sweep", ["--kind", "displacement", "--grid=", "--methods", "displaced"],
                         "grid"),
    "squeeze-m-empty": ("squeeze", ["--m="], "m"),
    "squeeze-m-even": ("squeeze", ["--m", "4"], "m"),
    "squeeze-m-fraction": ("squeeze", ["--m", "3.7"], "m"),
    "squeeze-m-inf": ("squeeze", ["--m", "inf"], "m"),
    "squeeze-m-window": ("squeeze", ["--m", "301"], "m"),
    "squeeze-m-unsorted": ("squeeze", ["--m", "5,3"], "m"),
    "squeeze-m-repeated": ("squeeze", ["--m", "3,3"], "m"),
    "squeeze-displacement-zero": ("squeeze", ["--m", "3", "--displacement", "0"], "displacement"),
    # The displaced estimator inverts on the positive branch only.
    "sweep-displaced-negative-displacement": (
        "sweep", ["--kind", "displacement", "--grid=-100,100", "--methods", "displaced"],
        "methods"),
    "squeeze-displacement-negative": ("squeeze", ["--m", "3", "--displacement", "-100"],
                                      "displacement"),
    "simulate-seed-negative": ("simulate", ["--seed", "-1"], "seed"),
    # The detector kind is checked before the settings that only one kind takes.
    "simulate-detector-unknown-with-homodyne-setting": (
        "simulate", ["--detector", "foo", "--set", "efficiency=0.5"], "detector"),
    "sweep-seed-negative": ("sweep", ["--kind", "gain", "--grid", "2", "--seed", "-1"], "seed"),
}


@pytest.mark.parametrize("command,extra,key", BAD_RUN_ARGUMENTS.values(),
                         ids=list(BAD_RUN_ARGUMENTS))
def test_bad_run_argument_exits_naming_its_key(capsys, tmp_path, monkeypatch, command, extra,
                                               key):
    argv = [command, "--out-dir", str(tmp_path / "out"), *extra]
    if command == "reconstruct":
        argv += ["--batch", simulate(capsys, tmp_path, "--displacement", "100", "--n-shots", "200")]
    elif command == "simulate":
        argv += ["--n-shots", "200"]
    else:
        argv += ["--n-shots", "200", "--repeats", "2"]
    draws = []
    monkeypatch.setattr(SourceState, "sample_xp", lambda *args: draws.append(args))
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {key}:") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()
    assert draws == []


@pytest.mark.parametrize("command", [["sweep", "--kind", "gain", "--grid", "2"],
                                     ["squeeze", "--m", "3"]], ids=["sweep", "squeeze"])
def test_repeats_below_one_exits_naming_its_key(capsys, tmp_path, command):
    code, _, err = run_cli(capsys, *command, "--repeats", "0", "--n-shots", "200",
                           "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert err.startswith("error: repeats:") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


# Each command, and each sweep kind, with the settings it never reads.
REFUSED = {
    "simulate": (["simulate"], ("method", "bin_width")),
    "displacement": (["sweep", "--kind", "displacement", "--grid", "100", "--repeats", "1"],
                     ("method", "displacement")),
    "gain": (["sweep", "--kind", "gain", "--grid", "2", "--repeats", "1"],
             ("method", "gain", "displacement")),
    "robustness": (["sweep", "--kind", "robustness", "--param", "output_noise", "--grid", "1",
                    "--displacement", "100", "--repeats", "1"], ("method", "output_noise")),
    "homodyne-d": (["sweep", "--kind", "homodyne-d", "--grid", "100", "--repeats", "1"],
                   ("method", "displacement")),
    "homodyne-gain": (["sweep", "--kind", "homodyne-gain", "--grid", "2", "--repeats", "1"],
                      ("method", "gain", "displacement", "detector", "efficiency",
                       "lo_amplitude", "vacuum_noise", "electronic_noise")),
    "squeeze": (["squeeze", "--m", "3", "--repeats", "1"],
                ("method", "input_transmittance", "input_noise", "detector", "efficiency",
                 "lo_amplitude", "vacuum_noise", "electronic_noise")),
}
REFUSED_VALUES = {
    "method": "standard", "bin_width": "0.1", "displacement": "50", "gain": "3",
    "output_noise": "1", "detector": "homodyne", "efficiency": "0.5", "lo_amplitude": "2",
    "vacuum_noise": "0.3", "electronic_noise": "0.2", "input_transmittance": "0.9",
    "input_noise": "0.1",
}
# A flag where the setting has one, --set for the homodyne fields, and one
# --config line per command.
_HOMODYNE_FIELDS = {f.name for f in fields(HomodyneDetector)} - {"kind"}
REFUSED_CASES = [
    (run, key, "set" if key in _HOMODYNE_FIELDS else "flag")
    for run, (_, keys) in REFUSED.items() for key in keys
] + [("simulate", "bin_width", "config"), ("gain", "displacement", "config"),
     ("squeeze", "input_noise", "config")]


@pytest.mark.parametrize("run,key,source", REFUSED_CASES,
                         ids=[f"{run}-{source}-{key}" for run, key, source in REFUSED_CASES])
def test_settings_a_command_never_reads_are_refused(capsys, tmp_path, run, key, source):
    value = REFUSED_VALUES[key]
    if source == "config":
        (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
        given = ["--config", str(tmp_path / "run.cfg")]
    elif source == "set":
        given = ["--set", f"{key}={value}"]
    else:
        given = [f"--{key.replace('_', '-')}", value]
    code, _, err = run_cli(capsys, *REFUSED[run][0], *given, "--n-shots", "200",
                           "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {key}:") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_simulate_overflowing_chain_exits_with_config_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--gain", "1000", "--n-shots", "20",
                           "--out-dir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert err.startswith("error: overflow") and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


def test_a_simulate_that_fails_midway_leaves_no_batch_file(capsys, tmp_path, monkeypatch):
    # The first chunk is on disk when the second one fails; nothing of the
    # batch, partial or whole, outlives the failure.
    on_disk = []

    def failing(state, seed, index, count):
        if index == 1:
            on_disk.extend(path.name for path in tmp_path.glob("batch_*"))
            raise FloatingPointError("overflow encountered in exp")
        return draw_chunk(state, seed, index, count)

    monkeypatch.setattr("opatomo.chain.draw_chunk", failing)
    code, _, err = run_cli(capsys, "simulate", "--n-shots", str(3 * BATCH_CHUNK),
                           "--out-dir", str(tmp_path))
    assert (code, err) == (EXIT_CONFIG, "error: overflow encountered in exp "
                                        "(the inputs leave the floating-point range)\n")
    assert on_disk and os.listdir(tmp_path) == []
    monkeypatch.undo()
    simulate(capsys, tmp_path, "--n-shots", str(3 * BATCH_CHUNK))
    assert sorted(os.listdir(tmp_path)) == ["batch_sq_0.csv", "batch_sq_0.json"]


# Each command, run into an empty directory, with the batches it reads.
FAILED_WRITES = {
    "simulate": ["simulate", "--state", "sq", "--displacement", "100", "--n-shots", "300"],
    "reconstruct-displaced": ["reconstruct", "--batch", "{sq}", "--method", "displaced"],
    "reconstruct-double": ["reconstruct", "--batch", "{mix0}", "--batch2", "{mix1}",
                           "--method", "double", "--bin-width", "0.2"],
    "sweep": ["sweep", "--kind", "displacement", "--grid", "10,100", "--repeats", "1",
              "--n-shots", "300"],
    "squeeze": ["squeeze", "--m", "3", "--repeats", "1", "--n-shots", "300"],
}
FAILED_WRITE_BATCHES = {
    "sq": ["--state", "sq", "--displacement", "100", "--seed", "0"],
    "mix0": ["--state", "mix", "--displacement", "33", "--seed", "0"],
    "mix1": ["--state", "mix", "--displacement", "66", "--seed", "1"],
}
NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDisk:
    """A file opened for writing on a full disk: it exists, and every write
    to it fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(*NO_SPACE.args)

    writelines = write


@pytest.mark.parametrize("command", list(FAILED_WRITES))
def test_a_failed_write_keeps_the_last_good_output(capsys, tmp_path, monkeypatch, command):
    batches = {name: simulate(capsys, tmp_path / name, *flags, "--n-shots", "300")
               for name, flags in FAILED_WRITE_BATCHES.items()}
    out = tmp_path / "out"
    argv = [arg.format(**batches) for arg in FAILED_WRITES[command]] + ["--out-dir", str(out)]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    real_open = builtins.open

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if set(mode) & set("wax+") else fh

    monkeypatch.setattr(builtins, "open", full_disk_open)
    code, _, err = run_cli(capsys, *argv)
    monkeypatch.undo()
    assert (code, err) == (EXIT_CONFIG, f"error: {NO_SPACE}\n")
    assert not list(out.glob("*.partial"))
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_reconstruct_overflowing_header_gain_exits_with_config_error(capsys, tmp_path):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                     "--n-shots", "20")
    _edit_header(batch, lambda meta: {**meta, "chain": {**meta["chain"], "gain": 1000.0}})
    assert "floating-point range" in _reconstruct_exit(capsys, tmp_path, batch)


def test_reconstruct_counts_huge_outcomes_as_overflow(capsys, tmp_path, recwarn):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                     "--n-shots", "20")
    _rewrite_outcomes(batch, lambda rows: ["1e300"] + rows[1:])
    code, out, err = run_cli(capsys, "reconstruct", "--batch", batch, "--method", "displaced",
                             "--out-dir", str(tmp_path))
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["N"] == 20
    assert len(recwarn) == 0


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unreadable_config_exits_with_config_error(capsys, tmp_path, command):
    extra = ["--kind", "gain"] if command == "sweep" else []
    code, _, err = run_cli(capsys, command, "--config", str(tmp_path),
                           "--out-dir", str(tmp_path), *extra)
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(tmp_path) in err


def test_reconstruct_missing_batch_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "reconstruct", "--batch",
                           str(tmp_path / "nothere.csv"), "--out-dir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "nothere" in err


def test_sweep_unknown_kind_is_an_argparse_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--kind", "resonance", "--out-dir", str(tmp_path)])
    assert info.value.code == 2


def test_sweep_displacement_writes_rows(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "sweep", "--kind", "displacement", "--grid", "10,100,1000",
        "--methods", "standard,displaced", "--n-shots", "1000", "--repeats", "2",
        "--out-dir", str(tmp_path),
    )
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert "plateau_level" in payload["summary"]
    with open(payload["csv"]) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 1 + 6  # header + 3 grid points x 2 methods


def test_sweep_robustness_requires_param_and_grid(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--kind", "robustness",
                           "--out-dir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "param" in err


def test_squeeze_reports_table(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "squeeze", "--m", "3", "--repeats", "2", "--n-shots", "2000",
        "--out-dir", str(tmp_path),
    )
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert "v_d" in payload["summary"]
    assert "analytic" in payload["summary"]["v_d"]["3"]


def test_reconstruct_displaced_refuses_a_negative_displacement(capsys, tmp_path, monkeypatch):
    # The displaced estimator inverts on the positive branch only, so at
    # d < 0 it would mirror the state; the batch is refused before any row
    # is read.
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "-100",
                     "--n-shots", "2000")
    reads = []
    monkeypatch.setattr(BatchFile, "blocks", lambda self: reads.append(self) or iter(()))
    code, out, err = run_cli(capsys, "reconstruct", "--batch", batch, "--method", "displaced",
                             "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (EXIT_CONFIG, "", "error: method: displaced needs a batch taken "
                                                 "at a positive displacement (got -100.0)\n")
    assert reads == []
    assert not (tmp_path / "out").exists()


def test_runconfig_validation_names_offending_field():
    from opatomo.chain import ConfigError

    with pytest.raises(ConfigError) as info:
        RunConfig(method="fold").validate()
    assert info.value.field == "method"


# Each sweep kind through the CLI against the same spec run as a library call.
CLI_SWEEPS = {
    "gain": (
        ["sweep", "--kind", "gain", "--grid", "2,4"],
        sweep_gain,
        SweepSpec("gain", "sq", ("standard", "displaced"), "gain", (2.0, 4.0)),
    ),
    "robustness": (
        ["sweep", "--kind", "robustness", "--param", "output_noise", "--grid", "0.3,3",
         "--displacement", "100", "--methods", "displaced"],
        robustness_sweep,
        SweepSpec("robustness", "sq", ("displaced",), "output_noise", (0.3, 3.0),
                  params=ChainParams(displacement=100.0)),
    ),
    "homodyne-d": (
        ["sweep", "--kind", "homodyne-d", "--grid", "10,100", "--methods", "displaced"],
        homodyne_comparison,
        SweepSpec("homodyne_d", "sq", ("displaced",), "displacement", (10.0, 100.0)),
    ),
    "homodyne-gain": (
        ["sweep", "--kind", "homodyne-gain", "--grid", "2,4"],
        homodyne_comparison,
        SweepSpec("homodyne_gain", "sq", ("standard", "displaced"), "gain", (2.0, 4.0)),
    ),
    "squeeze": (
        ["squeeze", "--m", "3,5"],
        squeezing_table,
        SweepSpec("squeezing", "sq", ("displaced",), "m", (3.0, 5.0),
                  params=ChainParams(displacement=100.0)),
    ),
}


@pytest.mark.parametrize("kind", sorted(CLI_SWEEPS))
def test_cli_sweep_writes_library_bytes(capsys, tmp_path, kind):
    argv, run, spec = CLI_SWEEPS[kind]
    code, _, err = run_cli(capsys, *argv, "--n-shots", "2000", "--repeats", "2",
                           "--out-dir", str(tmp_path / "cli"))
    assert code == EXIT_OK, err
    run(replace(spec, n_shots=2000, repeats=2)).to_csv(str(tmp_path / "lib"))
    names = sorted(os.listdir(tmp_path / "lib"))
    assert sorted(os.listdir(tmp_path / "cli")) == names and len(names) == 2
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


# Each sweep kind with the settings its methods need besides the grid.
METHOD_SWEEPS = {
    "displacement": ["--grid", "10,100"],
    "gain": ["--grid", "2,4"],
    "robustness": ["--param", "output_noise", "--grid", "0.3,3", "--displacement", "100"],
    "homodyne-d": ["--grid", "10,100"],
    "homodyne-gain": ["--grid", "2,4"],
}


def test_sweep_accepts_a_bin_width_that_does_not_divide_the_grid(capsys, tmp_path):
    code, out, err = run_cli(capsys, "sweep", "--kind", "displacement", "--grid", "100",
                             "--bin-width", "0.07", "--n-shots", "2000", "--repeats", "1",
                             "--out-dir", str(tmp_path))
    assert code == EXIT_OK, err
    with open(json.loads(out)["csv"]) as fh:
        assert len(fh.read().splitlines()) == 1 + 2


@pytest.mark.parametrize("argv", [["sweep", "--kind", kind, *METHOD_SWEEPS[kind]]
                                  for kind in sorted(METHOD_SWEEPS)] + [["squeeze", "--m", "3"]],
                         ids=[*sorted(METHOD_SWEEPS), "squeeze"])
def test_sweeps_refuse_a_bin_width_beyond_the_cap_before_any_draw(capsys, tmp_path,
                                                                  monkeypatch, argv):
    # The estimators' 12-unit grid at this width is 1714285.7 bins, rounded up.
    draws = []
    monkeypatch.setattr(experiments, "draw_chunk", lambda *args: draws.append(args))
    code, _, err = run_cli(capsys, *argv, "--bin-width", "7e-06", "--n-shots", "200",
                           "--repeats", "1", "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert err == ("error: bin_width: a grid of 1714286 bins of width 7e-06 exceeds the cap "
                   "of 1000000 bins; use a wider bin width\n")
    assert draws == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", sorted(set(METHOD_SWEEPS) - {"robustness"}))
def test_sweep_refuses_param_where_the_kind_sets_its_field(capsys, tmp_path, monkeypatch, kind):
    # Only a robustness sweep reads --param; every other kind sweeps its own field.
    draws = []
    monkeypatch.setattr(experiments, "draw_chunk", lambda *args: draws.append(args))
    code, _, err = run_cli(capsys, "sweep", "--kind", kind, *METHOD_SWEEPS[kind],
                           "--param", "output_noise", "--state", "sq_disp", "--n-shots", "2000",
                           "--repeats", "1", "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert err.startswith("error: param: ") and len(err.splitlines()) == 1
    assert draws == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", sorted(METHOD_SWEEPS))
def test_different_methods_write_different_bytes(capsys, tmp_path, kind):
    # Every accepted --methods list is run as given, so no two lists write
    # the same rows under different spec hashes.
    written = {}
    for methods in ("standard", "displaced", "standard,displaced", "displaced,standard"):
        code, out, err = run_cli(capsys, "sweep", "--kind", kind, *METHOD_SWEEPS[kind],
                                 "--methods", methods, "--n-shots", "500", "--repeats", "1",
                                 "--out-dir", str(tmp_path))
        assert code == EXIT_OK, err
        with open(json.loads(out)["csv"], "rb") as fh:
            written[methods] = fh.read()
    assert len(set(written.values())) == len(written)
