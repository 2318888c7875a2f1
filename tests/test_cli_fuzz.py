"""Fuzz of the command line's input boundary.

``reconstruct`` reads malformed batch files (header and rows), beside a
valid second batch for the two-displacement method, and
``simulate``, ``squeeze`` and a gain ``sweep`` read malformed ``key=value``
config files.  Whatever they hold, the command must exit 0, 2 or 3, write
nothing to stderr but ``error:`` lines, and raise no warning.  The examples
are derandomized, so every run tries the same inputs.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings, strategies as st

from opatomo.chain import ChainParams, run_batch
from opatomo.cli import _CHAIN_FIELDS, _DETECTOR_FIELDS, _RUN_FIELDS, main
from opatomo.reconstruct import METHODS
from opatomo.states import preset

FUZZ = settings(derandomize=True, max_examples=120, deadline=None)

N_SHOTS = 20
_BATCH = run_batch(preset("sq"), ChainParams(displacement=100.0), N_SHOTS, seed=0)
HEADER = {"chain": _BATCH.params.to_dict(), "n_shots": N_SHOTS, "seed": 0, "state": "sq"}
ROWS = [repr(float(v)) for v in _BATCH.outcomes]
# A valid batch at another displacement, the second batch of ``double``.
_BATCH2 = run_batch(preset("sq"), ChainParams(displacement=200.0), N_SHOTS, seed=1)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def edited_headers(draw):
    """The valid header with up to three keys dropped or overwritten, at the
    top level or inside the chain."""
    header = json.loads(json.dumps(HEADER))
    for _ in range(draw(st.integers(0, 3))):
        chain = header.get("chain")
        where = chain if isinstance(chain, dict) and draw(st.booleans()) else header
        key = draw(st.sampled_from(sorted(where)) | st.text(max_size=6)) if where else ""
        if draw(st.booleans()):
            where.pop(key, None)
        else:
            where[key] = draw(json_values)
    return "# " + json.dumps(header)


header_lines = st.one_of(
    edited_headers(),
    json_values.map(lambda value: "# " + json.dumps(value)),
    st.text(max_size=30),
)
row_lists = st.one_of(
    st.just(ROWS),
    st.lists(st.floats().map(repr), min_size=N_SHOTS, max_size=N_SHOTS),
    st.lists(st.floats().map(repr) | st.text(max_size=8), max_size=N_SHOTS + 2),
)

_CONFIG_KEYS = sorted({*_RUN_FIELDS, *_CHAIN_FIELDS, *_DETECTOR_FIELDS})
config_values = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=10),
    st.sampled_from(["sq", "fock2", "homodyne", "intensity", *METHODS]),
)
config_lines = st.one_of(
    st.builds("{}={}".format, st.sampled_from(_CONFIG_KEYS) | st.text(max_size=6), config_values),
    st.text(max_size=20),
)


def _run(argv) -> tuple[int, str, list]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), caught


def _assert_clean_exit(code: int, err: str, caught: list) -> None:
    assert code in (0, 2, 3)
    assert [str(w.message) for w in caught] == []
    lines = err.split("\n")[:-1]
    assert all(line.startswith("error:") for line in lines), err
    assert (code == 0) == (lines == [])


@FUZZ
@given(header=header_lines, rows=row_lists, method=st.sampled_from(list(METHODS)))
def test_reconstruct_survives_any_batch_file(header, rows, method):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "batch.csv")
        with open(path, "w") as fh:
            fh.write("\n".join([header, "outcome", *rows]) + "\n")
        argv = ["reconstruct", "--batch", path, "--method", method, "--out-dir", tmp]
        if method == "double":
            _BATCH2.to_csv(os.path.join(tmp, "batch2.csv"))
            argv += ["--batch2", os.path.join(tmp, "batch2.csv")]
        _assert_clean_exit(*_run(argv))


@FUZZ
@given(lines=st.lists(config_lines, max_size=5))
def test_simulate_survives_any_config_file(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _assert_clean_exit(*_run(["simulate", "--config", path, "--n-shots", "16",
                                  "--out-dir", tmp]))


def _run_with_config(lines, argv) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _assert_clean_exit(*_run([*argv, "--config", path, "--n-shots", "16", "--out-dir", tmp]))


@FUZZ
@given(lines=st.lists(config_lines, max_size=5))
def test_squeeze_survives_any_config_file(lines):
    _run_with_config(lines, ["squeeze", "--m", "3", "--repeats", "1"])


@FUZZ
@given(lines=st.lists(config_lines, max_size=5))
def test_sweep_survives_any_config_file(lines):
    _run_with_config(lines, ["sweep", "--kind", "gain", "--grid", "2", "--repeats", "1"])
