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

A shot function draws nothing: it reads a block of standard normals whose
row order is fixed and documented, so batches are reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
import io
from itertools import chain, islice
import json
import math
import os

import numpy as np
import orjson

from .states import ConfigError, SourceState
from .streams import stream

__all__ = [
    "ConfigError",
    "IntensityDetector",
    "HomodyneDetector",
    "ChainParams",
    "ShotBatch",
    "BatchFile",
    "intensity_shot",
    "homodyne_shot",
    "run_batch",
    "batch_chunks",
    "chunk_sizes",
    "draw_chunk",
    "apply_chunk",
    "BATCH_CHUNK",
    "CHAIN_NORMALS",
]

# Shots are partitioned into fixed-size chunks, each with its own sub-stream,
# so the chunk size, not the batch size, fixes which draws a shot receives.
BATCH_CHUNK = 1 << 14

# Batch CSV text is read this many characters at a time, which bounds the
# row text held at once (a row longer than this is held whole).
_PIECE_CHARS = 1 << 13

# Lower clip for the per-shot output transmittance; the interval is open at 0.
_MIN_TRANSMITTANCE = 1e-12


@dataclass(frozen=True)
class IntensityDetector:
    kind: str = field(default="intensity", init=False)


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
    kind: str = field(default="homodyne", init=False)


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
            raise ConfigError("detector", f"unknown detector kind {kind!r}")
        for name, given, cls in (("chain", rest, ChainParams),
                                 ("detector", det_d, HomodyneDetector)):
            unknown = sorted(set(given) - {f.name for f in fields(cls)})
            if unknown:
                raise ConfigError(name, f"unknown fields {unknown!r}")
        if kind == "intensity" and det_d:
            raise ConfigError(next(iter(det_d)), "is a homodyne setting, but detector=intensity")
        for name, value in {**rest, **det_d}.items():
            if type(value) is bool or not isinstance(value, (int, float)):
                raise ConfigError("chain", f"{name} must be a number (got {value!r})")
        try:
            detector = HomodyneDetector(**det_d) if kind == "homodyne" else IntensityDetector()
            return ChainParams(detector=detector, **rest)
        except OverflowError as exc:  # too large an integer
            raise ConfigError("chain", str(exc)) from None


def _get(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _cached(cache: dict, name: str, key: tuple, compute):
    """``compute()``, or the value ``cache`` already holds for term ``name``
    at the same ``key``.  A cache holds one slot per term: a new key
    replaces the old value."""
    slot = cache.get(name)
    if slot is None or slot[0] != key:
        slot = cache[name] = (key, compute())
    return slot[1]


def _incoupled(q, params: ChainParams, eps) -> np.ndarray:
    root_t = math.sqrt(params.input_transmittance)
    return root_t * np.asarray(q, dtype=float) + params.input_noise * eps


def intensity_shot(
    x, p, params: ChainParams, normals: np.ndarray, cache: dict | None = None
) -> np.ndarray:
    """Intensity outcomes for quadrature pairs (x, p); scalar or array alike.

    ``normals`` is a (CHAIN_NORMALS, n) block of standard normals, read row by
    row in draw order: eps_in(x), eps_in(p), gain, output transmittance,
    detector noise.  The rows are scaled here, so one block serves every
    parameter value (keeps paired sweeps paired).  The per-shot gain is clipped at 0, the per-shot transmittance to (0, 1]; the
    detector noise is never clipped, so outcomes can be negative.

    ``cache`` keeps the terms that do not depend on the displacement (the
    incoupled X and P, e^g X and (e^-g P)^2, the transmittance, the noise)
    across calls on the same x, p and normals, each keyed by the fields it
    reads; a reused term holds the same bytes a fresh one would.
    """
    cache = {} if cache is None else cache
    incoupling = (params.input_transmittance, params.input_noise)
    X = _cached(cache, "X", incoupling, lambda: _incoupled(x, params, normals[0]))

    def gain_terms():
        P = _cached(cache, "P", incoupling, lambda: _incoupled(p, params, normals[1]))
        # e^g X and (e^-g P)^2 with g = max(G + j n, 0), evaluated in two
        # fresh arrays, g's and e^g's, so no draw or cached term is written.
        g = params.gain_jitter * normals[2]
        g += params.gain
        np.maximum(g, 0.0, out=g)
        gained = np.exp(g)
        gained *= X
        np.negative(g, out=g)
        np.exp(g, out=g)
        g *= P
        np.square(g, out=g)
        return gained, g

    gained_x, deamplified_sq = _cached(
        cache, "intensity_gain", (params.gain, params.gain_jitter, *incoupling), gain_terms
    )
    t = _cached(
        cache, "t", (params.output_transmittance, params.output_transmittance_jitter),
        lambda: np.clip(
            params.output_transmittance + params.output_transmittance_jitter * normals[3],
            _MIN_TRANSMITTANCE, 1.0,
        ),
    )
    noise = _cached(cache, "output_noise", (params.output_noise,),
                    lambda: params.output_noise * normals[4])
    # t * ((gained_x + d)**2 + deamplified_sq - 0.5) + noise, evaluated in
    # the one fresh array the first sum makes, so no cached term is written.
    out = gained_x + params.displacement
    np.square(out, out=out)
    out += deamplified_sq
    out -= 0.5
    out *= t
    out += noise
    return out


def homodyne_shot(
    x, p, params: ChainParams, normals: np.ndarray, cache: dict | None = None
) -> np.ndarray:
    """Homodyne current for quadrature pairs; p never reaches this detector.

    Reads the first four rows of ``normals`` in draw order: eps_in(x), gain,
    vacuum admixture, electronic noise.  ``cache`` works as in
    ``intensity_shot``; the incoupled X is shared with it.
    """
    det = params.detector
    if not isinstance(det, HomodyneDetector):
        raise ConfigError("detector", "homodyne_shot needs a HomodyneDetector")
    cache = {} if cache is None else cache
    incoupling = (params.input_transmittance, params.input_noise)
    X = _cached(cache, "X", incoupling, lambda: _incoupled(x, params, normals[0]))
    gained_x = _cached(
        cache, "homodyne_gain", (params.gain, params.gain_jitter, *incoupling),
        lambda: np.exp(np.maximum(params.gain + params.gain_jitter * normals[1], 0.0)) * X,
    )
    noise = _cached(
        cache, "homodyne_noise", (det.efficiency, det.vacuum_noise, det.electronic_noise),
        lambda: (
            math.sqrt(1.0 - det.efficiency) * det.vacuum_noise * normals[2]
            + det.electronic_noise * normals[3]
        ),
    )
    # (sqrt(eta) * (gained_x + d) + noise) * lo_amplitude, in place as in
    # ``intensity_shot``.
    out = gained_x + params.displacement
    out *= math.sqrt(det.efficiency)
    out += noise
    out *= det.lo_amplitude
    return out


@dataclass(frozen=True)
class ShotBatch:
    """Outcomes of n_shots passes of one state through one chain setting."""

    outcomes: np.ndarray
    params: ChainParams
    seed: int
    state_label: str = ""

    @property
    def n_shots(self) -> int:
        return self.outcomes.size

    def blocks(self):
        """The outcomes in BATCH_CHUNK-sized slices, in order; an empty batch
        is one empty slice."""
        for start in range(0, max(self.outcomes.size, 1), BATCH_CHUNK):
            yield self.outcomes[start:start + BATCH_CHUNK]

    def to_csv(self, path):
        BatchFile(path, self.params, self.n_shots, self.seed, self.state_label).write(self.blocks())

    @staticmethod
    def from_csv(path) -> "ShotBatch":
        file = BatchFile.read_header(path)
        outcomes = np.concatenate(list(file.blocks()))
        return ShotBatch(outcomes, file.params, file.seed, file.state_label)


@dataclass(frozen=True)
class BatchFile:
    """A batch CSV: a ``# {json}`` header line, an ``outcome`` column line,
    then one outcome per line.

    The header is held; the outcomes are written as they come and read back
    BATCH_CHUNK rows at a time, so neither direction holds more than one
    block of them.
    """

    path: str | os.PathLike
    params: ChainParams
    n_shots: int
    seed: int
    state_label: str = ""

    def write(self, blocks) -> None:
        """Write the header, then each block of outcomes as it comes.

        The rows go to a sibling file that replaces ``path`` only once the
        last block is written; on any exception it is removed, so ``path`` is
        never left holding part of a batch.
        """
        header = {
            "chain": self.params.to_dict(),
            "seed": self.seed,
            "n_shots": self.n_shots,
            "state": self.state_label,
        }
        partial = f"{self.path}.partial"
        try:
            with open(partial, "wb") as fh:
                fh.write(("# " + json.dumps(header, sort_keys=True) + "\noutcome\n").encode())
                for block in blocks:
                    if block.size:
                        fh.write(_render_rows(block))
            os.replace(partial, self.path)
        except BaseException:
            if os.path.exists(partial):
                os.remove(partial)
            raise

    @staticmethod
    def read_header(path) -> "BatchFile":
        """The checked header of the batch file at ``path``; no row is read."""
        with utf8_text(path) as fh:
            first = fh.readline()
            if not first.startswith("# "):
                raise ValueError(f"{path}: missing batch header line")
            try:
                meta = json.loads(first[2:])
            except RecursionError:  # not a ValueError, so refuse it as one
                raise ValueError(f"{path}: batch header nests too deeply") from None
            column = fh.readline().strip()
            if column != "outcome":
                raise ValueError(f"{path}: unexpected column header {column!r}")
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: batch header must be a JSON object")
        missing = [key for key in ("chain", "n_shots", "seed") if key not in meta]
        if missing:
            raise ValueError(f"{path}: batch header lacks {', '.join(missing)}")
        state_label = meta.get("state", "")
        if not isinstance(state_label, str):
            raise ValueError(f"{path}: batch header state must be a string")
        n_shots, seed = meta["n_shots"], meta["seed"]
        if type(n_shots) is not int or type(seed) is not int:
            raise ValueError(f"{path}: batch header n_shots and seed must be integers "
                             f"(got {n_shots!r} and {seed!r})")
        if n_shots < 1:
            raise ValueError(f"{path}: batch header n_shots must be at least 1 (got {n_shots})")
        return BatchFile(path, ChainParams.from_dict(meta["chain"]), n_shots, seed, state_label)

    def blocks(self):
        """The outcomes, BATCH_CHUNK non-blank rows at a time, in order.

        A row that does not parse as a float raises as its block is read.
        After the last row, a row count other than the header's ``n_shots``
        is refused, then a non-finite outcome; no block is yielded from the
        first one that holds a non-finite outcome on, so a caller never
        sees one.
        """
        count, finite = 0, True
        with utf8_text(self.path) as fh:
            fh.readline()  # the header line
            fh.readline()  # the column line
            values = chain.from_iterable(_row_values(fh))
            while (block := np.fromiter(islice(values, BATCH_CHUNK), dtype=float)).size:
                count += block.size
                finite = finite and bool(np.isfinite(block).all())
                if finite:
                    yield block
        if count != self.n_shots:
            raise ValueError(
                f"{self.path}: header says n_shots = {self.n_shots} but the file holds "
                f"{count} outcomes"
            )
        if not finite:
            raise ValueError(f"{self.path}: outcomes must be finite")


def _render_rows(block: np.ndarray) -> bytes:
    """The outcomes of ``block`` as ``repr`` writes them, one per line, each
    line ended.

    orjson renders a whole float64 block in one call, with the shortest
    digits that round-trip, as ``repr`` does; its text equals ``repr``'s for
    ±0.0 and for magnitudes in [1e-4, 1e16).  Outside that range it spells
    the exponent its own way (``0.00001``, ``1e16``) and writes NaN and
    ±inf as ``null``, so those rows take ``repr`` instead.
    """
    block = np.ascontiguousarray(block, dtype=float)
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    magnitude = np.abs(block)
    other = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)) & (block != 0.0))
    if not other.size:
        return text.replace(b",", b"\n") + b"\n"
    rows = text.split(b",")
    for i in other.tolist():
        rows[i] = repr(float(block[i])).encode()
    return b"\n".join(rows) + b"\n"


@contextmanager
def utf8_text(path):
    """``path`` opened as UTF-8 text, whatever the locale; a byte that does
    not decode is refused as a ValueError that names the file.  Batch and
    config files are read through it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _row_values(fh):
    """The values of the non-blank rows left in ``fh``, one iterable per
    piece of whole lines read _PIECE_CHARS characters at a time.

    orjson reads a piece as one array, each line break a comma; the result
    stands if it holds one float per line, which a blank line or a comma in a
    row rules out.  Any other piece is read lazily as file iteration reads
    it: blank lines skipped, ``float()`` on each row, line break kept.
    """
    rest, text = "", None
    while text != "":
        text = fh.read(_PIECE_CHARS)
        body, end, rest = (rest + text).rpartition("\n") if text else (rest, "", "")
        try:
            values = orjson.loads("[" + body.replace("\n", ",") + "]")
        except orjson.JSONDecodeError:
            values = []
        fast = len(values) == body.count("\n") + 1 and set(map(type, values)) == {float}
        yield values if fast else map(float, filter(str.strip, io.StringIO(body + end)))


# Standard-normal rows a shot function reads, one value per shot in each:
# intensity_shot reads all five, homodyne_shot the first four.
CHAIN_NORMALS = 5


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
    draws, and the shot functions scale its rows themselves, so one chunk's
    draws serve every chain setting and either detector.
    """
    rng = stream(seed, index)
    x, p = state.sample_xp(count, rng)
    return x, p, rng.standard_normal((CHAIN_NORMALS, count))


def apply_chunk(draws: tuple, params: ChainParams, cache: dict | None = None) -> np.ndarray:
    """Outcomes of one chunk's ``draw_chunk`` draws through the chain ``params``.

    Give every call on the same draws the same ``cache`` dict to reuse the
    chain terms a setting shares with the previous ones (see
    ``intensity_shot``); the outcomes do not change.
    """
    x, p, normals = draws
    shot = homodyne_shot if params.detector.kind == "homodyne" else intensity_shot
    return shot(x, p, params, normals, cache)


def batch_chunks(state: SourceState, params: ChainParams, n_shots: int, seed: int):
    """The outcomes of an n_shots batch, one BATCH_CHUNK-sized chunk at a time.

    Each chunk is seeded as sub-stream (seed, chunk_index), so the
    partitioning determines every draw.
    """
    if n_shots <= 0:
        raise ConfigError("n_shots", f"must be positive (got {n_shots})")
    for i, count in enumerate(chunk_sizes(n_shots)):
        yield apply_chunk(draw_chunk(state, seed, i, count), params)


def run_batch(state: SourceState, params: ChainParams, n_shots: int, seed: int) -> ShotBatch:
    """Simulate n_shots outcomes into memory (see ``batch_chunks``)."""
    outcomes = np.concatenate(list(batch_chunks(state, params, n_shots, seed)))
    return ShotBatch(outcomes, params, seed, state.label)
