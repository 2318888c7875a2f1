"""The measurement chain: lossy incoupling, phase-sensitive gain, detection.

One shot takes a quadrature pair (x, p), attenuates and blurs it on the way
in, amplifies x by e^G while deamplifying p by e^-G (with per-shot gain
jitter), displaces the amplified quadrature by d, and lands on one of two
detectors:

* intensity: N = alpha_out * ((e^G X + d)^2 + (e^-G P)^2 - 1/2) + noise,
  with per-shot fluctuations of alpha_out. Outcomes stay real-valued and may
  be negative; nothing is discretized.
* homodyne: i = (sqrt(eta) * (e^G X + d) + noise) * lo_amplitude, where the
  noise mixes the vacuum admitted by the imperfect LO port with electronic
  noise.

All randomness comes from the caller's Generator; the draw order inside a
shot function is fixed and documented so batches are reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
import json
import math

import numpy as np

from .states import SourceState
from .streams import stream

__all__ = [
    "ConfigError",
    "IntensityDetector",
    "HomodyneDetector",
    "ChainParams",
    "ShotBatch",
    "intensity_shot",
    "homodyne_shot",
    "run_batch",
    "chunk_sizes",
    "draw_chunk",
    "apply_chunk",
    "BATCH_CHUNK",
]

# Shots are partitioned into fixed-size chunks, each with its own sub-stream,
# so the chunk size, not the batch size, fixes which draws a shot receives.
BATCH_CHUNK = 1 << 14

# Lower clip for the per-shot output transmittance; the interval is open at 0.
_MIN_TRANSMITTANCE = 1e-12


class ConfigError(ValueError):
    """A parameter failed validation; `field` names the offender."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class IntensityDetector:
    kind: str = "intensity"


@dataclass(frozen=True)
class HomodyneDetector:
    """Homodyne readout of the amplified quadrature.

    efficiency is the LO-port transmittance eta; the admixed vacuum enters
    with quadrature std vacuum_noise (1/2 for our convention), on top of
    additive electronic noise. lo_amplitude only rescales the current.
    """

    efficiency: float = 1.0
    lo_amplitude: float = 1.0
    vacuum_noise: float = 0.5
    electronic_noise: float = 0.0
    kind: str = "homodyne"


@dataclass(frozen=True)
class ChainParams:
    """Chain settings; defaults are the baseline operating point."""

    gain: float = 4.0
    gain_jitter: float = 0.01
    input_transmittance: float = 0.99
    input_noise: float = 0.01
    output_transmittance: float = 0.1
    output_transmittance_jitter: float = 1e-3
    output_noise: float = 3.0
    displacement: float = 0.0
    detector: IntensityDetector | HomodyneDetector = field(default_factory=IntensityDetector)

    def __post_init__(self):
        self.validate()

    def validate(self):
        checks = [
            ("gain", self.gain >= 0.0, "must be >= 0"),
            ("gain_jitter", self.gain_jitter >= 0.0, "must be >= 0"),
            ("input_transmittance", 0.0 < self.input_transmittance <= 1.0, "must be in (0, 1]"),
            ("input_noise", self.input_noise >= 0.0, "must be >= 0"),
            ("output_transmittance", 0.0 < self.output_transmittance <= 1.0, "must be in (0, 1]"),
            ("output_transmittance_jitter", self.output_transmittance_jitter >= 0.0, "must be >= 0"),
            ("output_noise", self.output_noise >= 0.0, "must be >= 0"),
        ]
        if isinstance(self.detector, HomodyneDetector):
            checks += [
                ("detector.efficiency", 0.0 < self.detector.efficiency <= 1.0, "must be in (0, 1]"),
                ("detector.lo_amplitude", self.detector.lo_amplitude > 0.0, "must be > 0"),
                ("detector.vacuum_noise", self.detector.vacuum_noise >= 0.0, "must be >= 0"),
                ("detector.electronic_noise", self.detector.electronic_noise >= 0.0, "must be >= 0"),
            ]
        for name, ok, msg in checks:
            if not ok:
                raise ConfigError(name, f"{msg} (got {_get(self, name)})")
        for obj, prefix in ((self, ""), (self.detector, "detector.")):
            for f in fields(obj):
                if isinstance(f.default, float) and not math.isfinite(getattr(obj, f.name)):
                    raise ConfigError(prefix + f.name, "must be finite")

    def chain_key(self) -> "ChainParams":
        """The same chain at zero displacement; used to pair batches."""
        return replace(self, displacement=0.0)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ChainParams":
        """Inverse of ``to_dict``; anything malformed raises ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError("chain", "must be a JSON object")
        det_d = d.get("detector", {"kind": "intensity"})
        if not isinstance(det_d, dict):
            raise ConfigError("detector", "must be a JSON object")
        det_d = dict(det_d)
        kind = det_d.pop("kind", "intensity")
        rest = {k: v for k, v in d.items() if k != "detector"}
        if kind not in ("homodyne", "intensity"):
            raise ConfigError("detector.kind", f"unknown detector kind {kind!r}")
        for name, given, cls in (("chain", rest, ChainParams),
                                 ("detector", det_d, HomodyneDetector)):
            unknown = sorted(set(given) - {f.name for f in fields(cls)})
            if unknown:
                raise ConfigError(name, f"unknown fields {unknown!r}")
        try:
            detector = HomodyneDetector(**det_d) if kind == "homodyne" else IntensityDetector()
            return ChainParams(detector=detector, **rest)
        except (TypeError, OverflowError) as exc:
            # A value that is not a number, or too large an integer.
            raise ConfigError("chain", str(exc)) from None


def _get(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _incoupled(x, p, params: ChainParams, rng: np.random.Generator, n: int):
    # eps_in is drawn independently for each quadrature. Standard normals are
    # drawn explicitly and scaled so the stream consumption does not depend on
    # the parameter values (keeps paired sweeps paired).
    root_t = math.sqrt(params.input_transmittance)
    eps_x = params.input_noise * rng.standard_normal(n)
    eps_p = params.input_noise * rng.standard_normal(n)
    return root_t * np.asarray(x, dtype=float) + eps_x, root_t * np.asarray(p, dtype=float) + eps_p


def intensity_shot(x, p, params: ChainParams, rng: np.random.Generator) -> np.ndarray:
    """Intensity outcomes for quadrature pairs (x, p); scalar or array alike.

    Draw order: eps_in(x), eps_in(p), gain, output transmittance, detector
    noise. The per-shot gain is clipped at 0, the per-shot transmittance to
    (0, 1]; the detector noise is never clipped, so outcomes can be negative.
    """
    n = np.broadcast(x, p).size
    X, P = _incoupled(x, p, params, rng, n)
    g = np.maximum(params.gain + params.gain_jitter * rng.standard_normal(n), 0.0)
    t = np.clip(
        params.output_transmittance + params.output_transmittance_jitter * rng.standard_normal(n),
        _MIN_TRANSMITTANCE, 1.0,
    )
    noise = params.output_noise * rng.standard_normal(n)
    amplified = np.exp(g) * X + params.displacement
    deamplified = np.exp(-g) * P
    return t * (amplified**2 + deamplified**2 - 0.5) + noise


def homodyne_shot(x, p, params: ChainParams, rng: np.random.Generator) -> np.ndarray:
    """Homodyne current for quadrature pairs; p never reaches this detector.

    Draw order: eps_in(x), gain, vacuum admixture, electronic noise.
    """
    det = params.detector
    if not isinstance(det, HomodyneDetector):
        raise ConfigError("detector", "homodyne_shot needs a HomodyneDetector")
    n = np.broadcast(x, p).size
    eps_x = params.input_noise * rng.standard_normal(n)
    X = math.sqrt(params.input_transmittance) * np.asarray(x, dtype=float) + eps_x
    g = np.maximum(params.gain + params.gain_jitter * rng.standard_normal(n), 0.0)
    noise = (
        math.sqrt(1.0 - det.efficiency) * det.vacuum_noise * rng.standard_normal(n)
        + det.electronic_noise * rng.standard_normal(n)
    )
    amplified = np.exp(g) * X + params.displacement
    return (math.sqrt(det.efficiency) * amplified + noise) * det.lo_amplitude


def _shot_fn(params: ChainParams):
    return homodyne_shot if isinstance(params.detector, HomodyneDetector) else intensity_shot


@dataclass(frozen=True)
class ShotBatch:
    """Outcomes of n_shots passes of one state through one chain setting."""

    outcomes: np.ndarray
    params: ChainParams
    n_shots: int
    seed: int
    state_label: str = ""

    def to_csv(self, path):
        header = {
            "chain": self.params.to_dict(),
            "seed": self.seed,
            "n_shots": self.n_shots,
            "state": self.state_label,
        }
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.write("outcome\n")
            for v in self.outcomes:
                fh.write(repr(float(v)) + "\n")

    @staticmethod
    def from_csv(path) -> "ShotBatch":
        with open(path) as fh:
            first = fh.readline()
            if not first.startswith("# "):
                raise ValueError(f"{path}: missing batch header line")
            meta = json.loads(first[2:])
            column = fh.readline().strip()
            if column != "outcome":
                raise ValueError(f"{path}: unexpected column header {column!r}")
            outcomes = np.array([float(line) for line in fh if line.strip()])
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: batch header must be a JSON object")
        missing = [key for key in ("chain", "n_shots", "seed") if key not in meta]
        if missing:
            raise ValueError(f"{path}: batch header lacks {', '.join(missing)}")
        state_label = meta.get("state", "")
        if not isinstance(state_label, str):
            raise ValueError(f"{path}: batch header state must be a string")
        try:
            n_shots, seed = int(meta["n_shots"]), int(meta["seed"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"{path}: batch header n_shots and seed must be integers ({exc})"
            ) from None
        if n_shots < 1 or outcomes.size != n_shots:
            raise ValueError(
                f"{path}: header says n_shots = {n_shots} but the file holds "
                f"{outcomes.size} outcomes"
            )
        if not np.isfinite(outcomes).all():
            raise ValueError(f"{path}: outcomes must be finite")
        return ShotBatch(
            outcomes=outcomes,
            params=ChainParams.from_dict(meta["chain"]),
            n_shots=n_shots,
            seed=seed,
            state_label=state_label,
        )


# Standard-normal rows a shot function reads, one value per shot in each:
# intensity_shot reads all five, homodyne_shot the first four.
CHAIN_NORMALS = 5


class _Replay:
    """Stand-in Generator for the shot functions: each ``standard_normal``
    call returns the next row of pre-drawn normals, in draw order."""

    def __init__(self, normals: np.ndarray):
        self._rows = iter(normals)

    def standard_normal(self, n: int) -> np.ndarray:
        return next(self._rows)


def chunk_sizes(n_shots: int) -> list[int]:
    """Shot counts of the BATCH_CHUNK-sized chunks an n_shots batch spans."""
    sizes = [BATCH_CHUNK] * (n_shots // BATCH_CHUNK)
    if n_shots % BATCH_CHUNK:
        sizes.append(n_shots % BATCH_CHUNK)
    return sizes


def draw_chunk(state: SourceState, seed: int, index: int, count: int) -> tuple:
    """Every draw of chunk ``index`` of a batch: the source pairs (x, p) and a
    (CHAIN_NORMALS, count) block of chain normals.

    Sub-stream (seed, index) yields the source draws first, then the chain's
    normals.  A block equals CHAIN_NORMALS successive ``standard_normal(count)``
    draws, and the shot functions scale the normals only after drawing them,
    so one chunk's draws serve every chain setting and either detector.
    """
    rng = stream(seed, index)
    x, p = state.sample_xp(count, rng)
    return x, p, rng.standard_normal((CHAIN_NORMALS, count))


def apply_chunk(draws: tuple, params: ChainParams) -> np.ndarray:
    """Outcomes of one chunk's ``draw_chunk`` draws through the chain ``params``."""
    x, p, normals = draws
    return _shot_fn(params)(x, p, params, _Replay(normals))


def run_batch(
    state: SourceState,
    params: ChainParams,
    n_shots: int,
    seed: int,
) -> ShotBatch:
    """Simulate n_shots outcomes.

    The batch is split into BATCH_CHUNK-sized chunks, each seeded as
    sub-stream (seed, chunk_index), so the partitioning determines every
    draw.
    """
    if n_shots <= 0:
        raise ConfigError("n_shots", f"must be positive (got {n_shots})")
    parts = [
        apply_chunk(draw_chunk(state, seed, i, c), params)
        for i, c in enumerate(chunk_sizes(n_shots))
    ]
    return ShotBatch(
        outcomes=np.concatenate(parts),
        params=params,
        n_shots=n_shots,
        seed=seed,
        state_label=state.label,
    )
