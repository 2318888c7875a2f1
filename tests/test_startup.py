"""Every command runs without scipy and loads no module inside its pass.

A module loaded for the first time during a command moves its import time
out of start-up and into the run.  Each command runs in a fresh interpreter
that imports ``opatomo.cli``, notes ``sys.modules``, runs the command through
``main`` and reports what the run added.  The import itself leaves out
``statistics``, which no command uses, and the modules it loads.
"""

import json

import pytest

from opatomo.cli import EXIT_OK, main
from python_helpers import run_python

_CHILD = """
import json, sys
import opatomo.cli
loaded = set(sys.modules)
code = opatomo.cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "added": sorted(set(sys.modules) - loaded),
               "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")}, fh)
"""

_SMALL = ["--repeats", "1", "--n-shots", "300"]
COMMANDS = {
    "simulate": ["simulate", "--state", "sq", "--displacement", "100", "--n-shots", "300"],
    "sweep-displacement": ["sweep", "--kind", "displacement", "--grid", "10,100", *_SMALL],
    "sweep-gain": ["sweep", "--kind", "gain", "--grid", "2,3", *_SMALL],
    "sweep-robustness": ["sweep", "--kind", "robustness", "--param", "output_noise",
                         "--grid", "0,1", "--displacement", "100", *_SMALL],
    "sweep-homodyne-d": ["sweep", "--kind", "homodyne-d", "--grid", "10,100", *_SMALL],
    "sweep-homodyne-gain": ["sweep", "--kind", "homodyne-gain", "--grid", "2,3", *_SMALL],
    "squeeze": ["squeeze", "--m", "3", *_SMALL],
    "reconstruct-standard": ["reconstruct", "--batch", "{sq_d0}", "--method", "standard"],
    "reconstruct-displaced": ["reconstruct", "--batch", "{sq}", "--method", "displaced"],
    "reconstruct-homodyne": ["reconstruct", "--batch", "{sq_homodyne}", "--method", "homodyne"],
    "reconstruct-double": ["reconstruct", "--batch", "{mix0}", "--batch2", "{mix1}",
                           "--method", "double", "--bin-width", "0.2"],
}

# Batch name -> the simulate flags that write it.
BATCHES = {
    "sq": ["--state", "sq", "--displacement", "100", "--seed", "0"],
    "sq_d0": ["--state", "sq", "--displacement", "0", "--seed", "1"],
    "sq_homodyne": ["--state", "sq", "--displacement", "100", "--detector", "homodyne",
                    "--seed", "2"],
    "mix0": ["--state", "mix", "--displacement", "33", "--seed", "0"],
    "mix1": ["--state", "mix", "--displacement", "66", "--seed", "1"],
}


@pytest.fixture(scope="module")
def batches(tmp_path_factory) -> dict[str, str]:
    out = tmp_path_factory.mktemp("batches")
    paths = {}
    for name, flags in BATCHES.items():
        code = main(["simulate", *flags, "--n-shots", "300", "--out-dir", str(out / name)])
        assert code == EXIT_OK
        paths[name] = str(out / name / f"batch_{flags[1]}_{flags[-1]}.csv")
    return paths


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_runs_without_scipy_and_loads_nothing(tmp_path, batches, command):
    argv = [arg.format(**batches) for arg in COMMANDS[command]]
    report = tmp_path / "modules.json"
    proc = run_python("-c", _CHILD, str(report), *argv, "--out-dir", str(tmp_path / "out"),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(report.read_text())
    assert found["code"] == EXIT_OK, proc.stderr
    assert found["scipy"] == []
    assert found["added"] == []


def test_import_leaves_out_statistics_decimal_and_fractions():
    # The homodyne flatness band's median is written out, so importing the
    # CLI does not pay for statistics and the decimal and fractions modules
    # it loads (about 0.5 MiB of every pass's peak).
    unused = "{'statistics', 'decimal', 'fractions'}"
    proc = run_python("-c", f"import sys, opatomo.cli; print(sorted({unused} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
