import argparse
import hashlib
import json
import os
from dataclasses import fields, replace

import pytest

from opatomo.chain import ChainParams, HomodyneDetector
from opatomo.cli import EXIT_CONFIG, EXIT_OK, EXIT_POSITIVITY, RunConfig, build_parser, main
from opatomo.experiments import (
    SweepSpec,
    homodyne_comparison,
    robustness_sweep,
    squeezing_table,
    sweep_gain,
)
from opatomo.states import SourceState


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
        "8c749567bebc27aeae67306440c437c6df04591de8a7aac44e78acfb4453530e",
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
    assert "state" in err


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


def test_reconstruct_refuses_a_bin_width_beyond_the_bin_cap(capsys, tmp_path):
    batch = simulate(capsys, tmp_path, "--state", "sq", "--displacement", "100",
                     "--n-shots", "200")
    err = _reconstruct_exit(capsys, tmp_path, batch, "--bin-width", "1.2e-6")
    assert "cap" in err
    assert not list(tmp_path.glob("recon_*"))


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
    "squeeze-m-even": ("squeeze", ["--m", "4"], "m"),
    "squeeze-m-fraction": ("squeeze", ["--m", "3.7"], "m"),
    "squeeze-m-inf": ("squeeze", ["--m", "inf"], "m"),
    "squeeze-m-window": ("squeeze", ["--m", "301"], "m"),
    "squeeze-m-unsorted": ("squeeze", ["--m", "5,3"], "m"),
    "squeeze-m-repeated": ("squeeze", ["--m", "3,3"], "m"),
    "squeeze-displacement-zero": ("squeeze", ["--m", "3", "--displacement", "0"], "displacement"),
    "simulate-seed-negative": ("simulate", ["--seed", "-1"], "seed"),
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
