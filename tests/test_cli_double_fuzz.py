"""Fuzz of the two-displacement route past the batch reader.

The pristine headers of a simulated ``mix`` pair at d = 33 and d = 66 are
kept, and the first batch's rows are replaced by fuzzed finite outcomes,
with its header's ``n_shots`` following their count.  Every example so
passes the reader and reaches the inversion, the chunked fold binning and
the unfold.  Each must exit 0, 2 or 3 with nothing on stderr but ``error:``
lines and no warning, and at least one must exit 0, so the unfold's NNLS
solve is among what is fuzzed.  The examples are derandomized.
"""

import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from opatomo.chain import ChainParams, run_batch
from opatomo.states import preset
from test_cli_fuzz import _assert_clean_exit, _run

N_SHOTS = 400
_FIRST = run_batch(preset("mix"), ChainParams(displacement=33.0), N_SHOTS, seed=0)
_SECOND = run_batch(preset("mix"), ChainParams(displacement=66.0), N_SHOTS, seed=1)
ROWS = _FIRST.outcomes.tolist()

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def edited_rows(draw):
    """The first batch's rows with up to five edits, each overwriting a row
    with any finite float, dropping a row, or repeating one."""
    rows = list(ROWS)
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["set", "drop", "repeat"]))
        if edit == "set":
            rows[i] = draw(finite)
        elif edit == "drop":
            rows.pop(i)
        else:
            rows.insert(i, rows[i])
    return rows


row_lists = st.one_of(edited_rows(), st.lists(finite, min_size=1, max_size=40))


def test_double_survives_any_finite_first_batch():
    codes = []

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(rows=row_lists)
    def reconstruct(rows):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first.csv"), os.path.join(tmp, "second.csv")
            replace(_FIRST, outcomes=np.array(rows)).to_csv(first)
            _SECOND.to_csv(second)
            code, err, caught = _run(["reconstruct", "--batch", first, "--batch2", second,
                                      "--method", "double", "--out-dir", tmp])
        _assert_clean_exit(code, err, caught)
        codes.append(code)

    reconstruct()
    assert 0 in codes
