"""Golden sha256 digests of every sweep kind's CSV and JSON output.

Each sweep runs at reduced scale (3-point grid, 2 repeats, 20,000 shots, so
every batch spans two BATCH_CHUNK chunks).  Any change to the draws, the
estimators, the serialisation or the summary shows up as a digest mismatch;
a refactor that claims byte-identical output must leave these unchanged.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from opatomo.chain import BATCH_CHUNK, ChainParams
from opatomo.experiments import (
    SweepSpec,
    homodyne_comparison,
    robustness_sweep,
    squeezing_table,
    sweep_displacement,
    sweep_gain,
)

N_SHOTS = 20_000
REPEATS = 2

SWEEPS = {
    "displacement": (
        sweep_displacement,
        SweepSpec("displacement", "sq", ("standard", "displaced"), "displacement",
                  (10.0, 100.0, 1000.0)),
    ),
    "gain": (
        sweep_gain,
        SweepSpec("gain", "sq_disp", ("standard", "displaced"), "gain", (2.0, 4.0, 6.0)),
    ),
    "robustness": (
        robustness_sweep,
        SweepSpec("robustness", "sq", ("displaced",), "output_noise", (0.3, 3.0, 30.0),
                  params=ChainParams(displacement=100.0)),
    ),
    "homodyne_d": (
        homodyne_comparison,
        SweepSpec("homodyne_d", "sq", ("displaced",), "displacement", (1.0, 10.0, 100.0)),
    ),
    "homodyne_gain": (
        homodyne_comparison,
        SweepSpec("homodyne_gain", "sq", ("standard", "displaced"), "gain", (2.0, 4.0, 6.0)),
    ),
    "squeezing": (
        squeezing_table,
        SweepSpec("squeezing", "sq", ("displaced",), "m", (3.0, 5.0, 7.0),
                  params=ChainParams(displacement=100.0)),
    ),
}

# (csv sha256, json sha256)
GOLDEN = {
    "displacement": (
        "ca2ea3aa6fb841937f1127a933ac6230fb3946d37388a8da7952ca514f437412",
        "35fef2810cd236e451bb6ac59c047a630e23bbcbe0601c348db657e16cc56e3f",
    ),
    "gain": (
        "aaf683f259da5437921b8b11aeb376983e42522ee08bc3d6bb5e577e47e95b93",
        "3c3b66963b8589b8f9a08eb80cfaaf9b16fb5b5a896589464e9bda808c847a40",
    ),
    "homodyne_d": (
        "e3eb874ac242fbf147057303150c5bee30d98ef7ca7e33e24e27984b549ab2ca",
        "e17b769535c259d99ffc38a3a338633d7bb1ce46dfbbddb7b19aff62f81e7065",
    ),
    "homodyne_gain": (
        "c2c458a7100a48e05dde9075326a15134c3d0ec70340b30b8de3ebbf697b045a",
        "c34ac21d6692746124d0e8a6e7f77e016a0f29eb2a1fdf898a72e6b94e6a088c",
    ),
    "robustness": (
        "a6b24681f7d6088bc136ca7a2bcc5cc7a9a010657d34ad8345c778b0ecf6ac18",
        "6fbeeed018d9273cad761141f0ea74a8bbb6502c255071a02471e4bbf681c3bf",
    ),
    "squeezing": (
        "dbeda78a045e2cc3f6850505b7967e1e4236a29e89a89e40192c24f14f251dd7",
        "04f7fe2cc254a22d00e8d16cf01b87550fd3af48ab20a4fc9e745dd112108b87",
    ),
}


def test_reduced_scale_spans_two_chunks():
    assert BATCH_CHUNK < N_SHOTS <= 2 * BATCH_CHUNK


@pytest.mark.parametrize("kind", sorted(SWEEPS))
def test_sweep_output_digests(kind, tmp_path):
    run, spec = SWEEPS[kind]
    result = run(replace(spec, n_shots=N_SHOTS, repeats=REPEATS))
    csv_path, json_path = result.to_csv(str(tmp_path))
    digests = tuple(
        hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in (csv_path, json_path)
    )
    assert digests == GOLDEN[kind]
