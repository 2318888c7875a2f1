import decimal
from decimal import Decimal
import json
import math
from dataclasses import asdict, fields, replace

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from batch_helpers import reference_blocks
from python_helpers import C_LOCALE, run_python
from opatomo import chain
from opatomo.chain import (
    BATCH_CHUNK,
    CHAIN_NORMALS,
    BatchFile,
    ChainParams,
    ConfigError,
    HomodyneDetector,
    IntensityDetector,
    ShotBatch,
    apply_chunk,
    chunk_sizes,
    draw_chunk,
    homodyne_shot,
    intensity_shot,
    run_batch,
)
from opatomo.states import preset
from opatomo.streams import stream


def noiseless(**overrides) -> ChainParams:
    base = dict(
        gain=4.0,
        gain_jitter=0.0,
        input_transmittance=1.0,
        input_noise=0.0,
        output_transmittance=0.1,
        output_transmittance_jitter=0.0,
        output_noise=0.0,
        displacement=0.0,
    )
    base.update(overrides)
    return ChainParams(**base)


def normals(seed: int, n: int = 1) -> np.ndarray:
    """The block of chain normals a shot function reads for n shots."""
    return stream(seed, 0).standard_normal((CHAIN_NORMALS, n))


# -- intensity point oracles -------------------------------------------------

def test_intensity_origin_offset():
    out = intensity_shot(0.0, 0.0, noiseless(), normals(0))
    assert float(out[0]) == pytest.approx(-0.05, abs=1e-15)


def test_intensity_unit_input():
    # 0.1 * (e^8 - 1/2), frozen from direct evaluation.
    out = intensity_shot(1.0, 0.0, noiseless(), normals(0))
    assert float(out[0]) == pytest.approx(298.04579870417285, rel=1e-12)


def test_intensity_with_displacement():
    # 0.1 * ((e^4 + 100)^2 - 1/2), frozen from direct evaluation.
    out = intensity_shot(1.0, 0.0, noiseless(displacement=100.0), normals(0))
    assert float(out[0]) == pytest.approx(2390.0087993670577, rel=1e-12)


def test_intensity_noiseless_closed_form_on_arrays():
    params = noiseless(gain=2.0, output_transmittance=0.7)
    x = np.linspace(-2, 2, 9)
    p = np.linspace(1, -1, 9)
    out = intensity_shot(x, p, params, normals(1, 9))
    expected = 0.7 * (np.exp(4.0) * x**2 + np.exp(-4.0) * p**2 - 0.5)
    assert np.allclose(out, expected, rtol=1e-13)


def test_intensity_outcomes_can_be_negative():
    params = noiseless(output_noise=3.0)
    out = intensity_shot(np.zeros(4000), np.zeros(4000), params, normals(2, 4000))
    assert np.min(out) < 0.0


def test_per_shot_gain_clipped_at_zero():
    # With x=1, p=0 and huge gain jitter, N = t*(e^{2g} - 1/2) with g >= 0,
    # so outcomes can never fall below t/2.
    params = noiseless(gain=0.0, gain_jitter=5.0, output_transmittance=1.0)
    out = intensity_shot(np.ones(20_000), np.zeros(20_000), params, normals(3, 20_000))
    assert np.min(out) >= 0.5 - 1e-12


def test_per_shot_transmittance_clipped_to_unit_interval():
    params = noiseless(gain=0.0, output_transmittance=0.5,
                       output_transmittance_jitter=10.0)
    out = intensity_shot(np.ones(20_000), np.zeros(20_000), params, normals(4, 20_000))
    # N = t * (1 - 1/2) = t/2 with t in (0, 1].
    assert np.max(out) <= 0.5 + 1e-12
    assert np.min(out) > 0.0
    assert np.sum(out > 0.49) > 100  # upper clip engaged


# -- homodyne point oracles --------------------------------------------------

def hometers(**overrides) -> ChainParams:
    det = HomodyneDetector(
        efficiency=overrides.pop("efficiency", 0.5),
        lo_amplitude=overrides.pop("lo_amplitude", 1.0),
        vacuum_noise=overrides.pop("vacuum_noise", 0.0),
        electronic_noise=overrides.pop("electronic_noise", 0.0),
    )
    return noiseless(**overrides, detector=det)


def test_homodyne_zero_input():
    out = homodyne_shot(0.0, 0.0, hometers(), normals(0))
    assert float(out[0]) == pytest.approx(0.0, abs=1e-15)


def test_homodyne_unit_input():
    # sqrt(0.5) * e^4, frozen from direct evaluation.
    out = homodyne_shot(1.0, 0.0, hometers(), normals(0))
    assert float(out[0]) == pytest.approx(38.606722128676815, rel=1e-12)


def test_homodyne_lo_amplitude_scales_current():
    a = homodyne_shot(1.3, 0.0, hometers(lo_amplitude=1.0), normals(5))
    b = homodyne_shot(1.3, 0.0, hometers(lo_amplitude=2.0), normals(5))
    assert float(b[0]) == pytest.approx(2.0 * float(a[0]), rel=1e-13)


def test_homodyne_affine_in_x():
    params = hometers(efficiency=0.8, input_transmittance=0.9)
    x1, x2 = 1.7, -0.4
    i1 = homodyne_shot(x1, 0.0, params, normals(6))
    i2 = homodyne_shot(x2, 0.0, params, normals(6))
    slope = math.exp(4.0) * math.sqrt(0.8 * 0.9)
    assert float(i1[0] - i2[0]) == pytest.approx(slope * (x1 - x2), rel=1e-12)


def test_homodyne_requires_homodyne_detector():
    with pytest.raises(ConfigError):
        homodyne_shot(0.0, 0.0, noiseless(), normals(0))


# -- batches -------------------------------------------------------------------

def test_vacuum_noiseless_mean_photon_number():
    # G=0, alpha_out=1, d=0: mean(N) -> <x^2 + p^2> - 1/2 = 0.
    params = noiseless(gain=0.0, output_transmittance=1.0)
    batch = run_batch(preset("vac"), params, 1_000_000, seed=7)
    assert abs(float(np.mean(batch.outcomes))) < 0.01


def test_batch_determinism():
    params = ChainParams()
    a = run_batch(preset("sq"), params, 50_000, seed=42)
    b = run_batch(preset("sq"), params, 50_000, seed=42)
    assert np.array_equal(a.outcomes, b.outcomes)
    c = run_batch(preset("sq"), params, 50_000, seed=43)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_batch_chunking_is_position_invariant():
    # The first BATCH_CHUNK outcomes do not depend on the total batch size.
    params = ChainParams()
    small = run_batch(preset("sq"), params, BATCH_CHUNK, seed=9)
    large = run_batch(preset("sq"), params, BATCH_CHUNK + 500, seed=9)
    assert np.array_equal(small.outcomes, large.outcomes[:BATCH_CHUNK])


def test_chunk_sizes_partition_the_batch():
    assert chunk_sizes(BATCH_CHUNK) == [BATCH_CHUNK]
    assert chunk_sizes(2 * BATCH_CHUNK + 7) == [BATCH_CHUNK, BATCH_CHUNK, 7]
    assert chunk_sizes(3) == [3]


@pytest.mark.parametrize("shot,detector", [
    (intensity_shot, IntensityDetector()),
    (homodyne_shot, HomodyneDetector(efficiency=0.5, electronic_noise=0.1)),
])
def test_one_chunk_draw_replays_either_shot_function(shot, detector):
    # A chunk's pre-drawn block gives the outcomes the shot function gets
    # from the same sub-stream, for both detectors: homodyne reads a prefix.
    state, params = preset("sq"), ChainParams(displacement=30.0, detector=detector)
    rng = stream(4, 1)
    x, p = state.sample_xp(1_000, rng)
    direct = shot(x, p, params, rng.standard_normal((CHAIN_NORMALS, 1_000)))
    assert np.array_equal(apply_chunk(draw_chunk(state, 4, 1, 1_000), params), direct)


def _cached_terms(cache: dict) -> list:
    """Every array a shared cache holds, in slot order."""
    return [a for _, value in cache.values()
            for a in (value if isinstance(value, tuple) else (value,))]


def test_shared_cache_keeps_outcome_bytes_and_one_array_per_term():
    # Settings interleave gains, displacements, incoupling noises and both
    # detectors, so every cached term is both reused and replaced.
    n = 2_000
    draws = draw_chunk(preset("sq"), 3, 0, n)
    settings = [
        ChainParams(gain=g, displacement=d, input_noise=noise, output_noise=out, detector=det)
        for g in (3.0, 4.0)
        for d in (0.0, 30.0)
        for noise, out in ((0.01, 3.0), (0.2, 1.0))
        for det in (IntensityDetector(), HomodyneDetector(efficiency=0.5, electronic_noise=0.1))
    ]
    order = stream(0, 0).permutation(len(settings))
    cache: dict = {}
    for params in [settings[i] for i in order] + settings:
        cached = apply_chunk(draws, params, cache)
        assert cached.tobytes() == apply_chunk(draws, params).tobytes()
    # Eight terms: X, P, e^g X and (e^-g P)^2, the transmittance and the
    # output noise for intensity; e^g X and the noise for homodyne.
    arrays = _cached_terms(cache)
    assert len(arrays) == 8
    assert all(a.shape == (n,) for a in arrays)


@pytest.mark.parametrize("detector", [
    IntensityDetector(), HomodyneDetector(efficiency=0.5, electronic_noise=0.1),
])
def test_repeated_calls_on_a_shared_cache_write_no_cached_term(detector):
    # Only the displacement moves, so every call reuses every cached term;
    # the outcomes are computed in a fresh array, never in a cached one.
    draws = draw_chunk(preset("sq_disp"), 5, 0, 2_000)
    settings = [ChainParams(displacement=d, detector=detector) for d in (0.0, 30.0)]
    cache: dict = {}
    first = [apply_chunk(draws, params, cache) for params in settings]
    snapshot = [a.tobytes() for a in _cached_terms(cache)]
    for _ in range(3):
        for params, ref in zip(settings, first):
            out = apply_chunk(draws, params, cache)
            assert out.tobytes() == ref.tobytes()
            assert not any(np.shares_memory(out, a) for a in _cached_terms(cache))
    assert [a.tobytes() for a in _cached_terms(cache)] == snapshot
    assert [out.tobytes() for out in first] == [
        apply_chunk(draws, params).tobytes() for params in settings]


@pytest.mark.parametrize("shared", [False, True], ids=["fresh_cache", "shared_cache"])
@pytest.mark.parametrize("detector", [
    IntensityDetector(), HomodyneDetector(efficiency=0.5, electronic_noise=0.1),
])
def test_apply_chunk_never_writes_its_draws(detector, shared):
    # One chunk's draws serve every pair of a sweep, so no shot function may
    # compute in them.  At gain 0 and unit jitter the per-shot gain of every
    # shot with a negative gain normal is clipped at 0.
    draws = draw_chunk(preset("sq"), 6, 0, 2_000)
    gain_row = draws[2][2 if detector.kind == "intensity" else 1]
    assert (gain_row < 0.0).any()
    before = [a.tobytes() for a in draws]
    cache: dict = {}
    for gain in (0.0, 2.0):
        for d in (0.0, 30.0):
            if not shared:
                cache = {}
            params = ChainParams(gain=gain, gain_jitter=1.0, displacement=d, detector=detector)
            out = apply_chunk(draws, params, cache)
            for a in (out, *_cached_terms(cache)):
                assert not any(np.shares_memory(a, draw) for draw in draws)
            assert [a.tobytes() for a in draws] == before


_GAIN_DRAWS = draw_chunk(preset("sq_disp"), 7, 0, 1_000)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(gain=st.floats(0.0, 8.0), jitter=st.floats(0.0, 4.0))
@example(gain=0.0, jitter=0.0)
@example(gain=0.0, jitter=1.0)
@example(gain=0.5, jitter=4.0)
def test_intensity_gain_terms_equal_their_closed_forms_bit_for_bit(gain, jitter):
    # The cached pair is built in place; it must hold the bytes of e^g X and
    # (e^-g P)^2 with g = max(G + j n, 0), clipped shots included.
    x, p, normals = _GAIN_DRAWS
    cache: dict = {}
    intensity_shot(x, p, ChainParams(gain=gain, gain_jitter=jitter), normals, cache)
    X, P = cache["X"][1], cache["P"][1]
    g = np.maximum(gain + jitter * normals[2], 0.0)
    gained_x, deamplified_sq = cache["intensity_gain"][1]
    assert gained_x.tobytes() == (np.exp(g) * X).tobytes()
    assert deamplified_sq.tobytes() == ((np.exp(-g) * P) ** 2).tobytes()


def test_batch_size_validation():
    with pytest.raises(ConfigError):
        run_batch(preset("vac"), ChainParams(), 0, seed=0)


def test_batch_csv_round_trip(tmp_path):
    params = ChainParams(displacement=33.0)
    batch = run_batch(preset("sq_disp"), params, 500, seed=21)
    path = tmp_path / "batch.csv"
    batch.to_csv(path)
    loaded = ShotBatch.from_csv(path)
    assert np.array_equal(loaded.outcomes, batch.outcomes)
    assert loaded.params == params
    assert loaded.seed == 21
    assert loaded.n_shots == 500
    assert loaded.state_label == "sq_disp"


def test_batch_n_shots_is_its_outcome_count(tmp_path):
    # n_shots is derived from the outcomes, so no batch can claim another count.
    assert "n_shots" not in {f.name for f in fields(ShotBatch)}
    batch = run_batch(preset("sq"), ChainParams(displacement=100.0), BATCH_CHUNK + 3, seed=2)
    batch.to_csv(tmp_path / "batch.csv")
    loaded = ShotBatch.from_csv(tmp_path / "batch.csv")
    empty = ShotBatch(np.empty(0), ChainParams(), seed=0)
    for b, n in ((batch, BATCH_CHUNK + 3), (loaded, BATCH_CHUNK + 3), (empty, 0)):
        assert b.n_shots == b.outcomes.size == n


def test_batch_file_yields_no_block_past_a_non_finite_outcome(tmp_path):
    # The non-finite value sits in the second block: the first block is
    # yielded, the second is not, and the refusal comes after the last row,
    # so a row that does not parse in the third block wins over it.
    batch = run_batch(preset("sq"), ChainParams(displacement=100.0), 2 * BATCH_CHUNK + 1, seed=0)
    outcomes = batch.outcomes.copy()
    outcomes[BATCH_CHUNK + 3] = np.nan
    path = tmp_path / "batch.csv"
    replace(batch, outcomes=outcomes).to_csv(path)
    seen = []
    with pytest.raises(ValueError, match="outcomes must be finite"):
        seen.extend(BatchFile.read_header(path).blocks())
    assert len(seen) == 1 and np.array_equal(seen[0], outcomes[:BATCH_CHUNK])
    path.write_text(path.read_text().rstrip("\n").rsplit("\n", 1)[0] + "\nx\n")
    with pytest.raises(ValueError, match="could not convert"):
        list(BatchFile.read_header(path).blocks())


def test_batch_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("outcome\n1.0\n")
    with pytest.raises(ValueError):
        ShotBatch.from_csv(path)


# -- batch CSV rows: the writer renders as repr, the reader parses as float ---

CSV_CASES = settings(derandomize=True, max_examples=200, deadline=None)


def _powers_of_ten_and_neighbours() -> list[float]:
    values = []
    for k in range(-323, 309):
        power = float(f"1e{k}")
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, math.inf)]
    return [float(v) for v in values]


# Values whose rendering differs between orjson and repr, and their edges:
# zeros, subnormals, [1e-5, 1e-4), every 10^k and its neighbouring doubles,
# magnitudes from 1e16 up, and the non-finite values.
_RENDER_EDGES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf]),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308, allow_subnormal=True),
    st.floats(min_value=1e-5, max_value=1e-4, exclude_max=True),
    st.sampled_from(_powers_of_ten_and_neighbours()),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(),
)
_SIGNED = st.builds(lambda v, negate: -v if negate else v, _RENDER_EDGES, st.booleans())


def _written_rows(path, blocks) -> list[str]:
    n_shots = sum(block.size for block in blocks)
    BatchFile(path, ChainParams(), n_shots, 0).write(iter(blocks))
    return path.read_text().splitlines()[2:]


@CSV_CASES
@given(values=st.lists(_SIGNED, min_size=1, max_size=80), cut=st.integers(0, 80))
def test_batch_rows_are_written_as_repr(tmp_path_factory, values, cut):
    block = np.array(values, dtype=float)
    rows = _written_rows(tmp_path_factory.mktemp("rows") / "b.csv", [block[:cut], block[cut:]])
    assert rows == [repr(v) for v in block.tolist()]


def test_batch_rows_are_written_as_repr_on_every_bit_pattern_class(tmp_path):
    rng = stream(5, 0)
    bits = rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64).view(float)
    spread = rng.uniform(-330.0, 308.0, size=100_000)
    block = np.concatenate([bits, 10.0 ** spread, -(10.0 ** spread),
                            np.array(_powers_of_ten_and_neighbours())])
    assert _written_rows(tmp_path / "b.csv", [block]) == [repr(v) for v in block.tolist()]


def _midpoint(a: float) -> str:
    """The exact decimal midpoint between ``a`` and the next double up."""
    with decimal.localcontext(decimal.Context(prec=1200)):
        return str((Decimal(a) + Decimal(float(np.nextafter(a, math.inf)))) / 2)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_OVERFLOW_TIE = 2**1024 - 2**970  # halfway from the largest double to 2^1024
# Texts JSON reads as floats: each has a fraction or an exponent.
_JSON_FLOAT_TEXT = st.one_of(
    _FINITE.map(repr),
    _FINITE.map(lambda v: f"{v:.40e}"),
    _FINITE.map(lambda v: f"{v:.3E}"),
    _FINITE.filter(lambda v: abs(v) < 1e300).map(_midpoint).filter(lambda s: "." in s),
    st.from_regex(r"-?(0|[1-9][0-9]{0,25})\.[0-9]{1,45}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from([f"{_OVERFLOW_TIE - 1}.0", f"{_OVERFLOW_TIE}.0", f"{_OVERFLOW_TIE + 1}.0",
                     "2.4703282292062327e-324", "2.4703282292062328e-324", "-1e-400"]),
)
# Rows orjson refuses or reads as another type, so float() reads them.
FALLBACK_ROWS = ["-0", "true", "1_0", "１２", "+5", ".5", "nan", "1e400", '"1.5"']
_OTHER_ROW = st.one_of(st.sampled_from(FALLBACK_ROWS), st.integers(-10**30, 10**30).map(str))


def _read_like_float(path, rows: list[str]):
    """Write ``rows`` as a batch file and read it back; compare what the
    reader yields or refuses with ``float`` on each row."""
    path.write_text("# " + json.dumps({"chain": {}, "n_shots": len(rows), "seed": 0})
                    + "\noutcome\n" + "".join(row + "\n" for row in rows))
    try:
        expected = np.array([float(row + "\n") for row in rows])
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            list(BatchFile.read_header(path).blocks())
        assert str(info.value) == str(exc)
        return
    if not np.isfinite(expected).all():
        with pytest.raises(ValueError, match="outcomes must be finite"):
            list(BatchFile.read_header(path).blocks())
        return
    read = np.concatenate(list(BatchFile.read_header(path).blocks()))
    assert read.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


@CSV_CASES
@given(rows=st.lists(st.one_of(_JSON_FLOAT_TEXT, _JSON_FLOAT_TEXT.map(lambda s: f" {s}\t")),
                     min_size=1, max_size=40),
       other=st.none() | _OTHER_ROW, at=st.integers(0, 40))
def test_batch_rows_are_read_as_float_reads_them(tmp_path_factory, rows, other, at):
    if other is not None:
        rows.insert(at, other)
    _read_like_float(tmp_path_factory.mktemp("rows") / "b.csv", rows)


@pytest.mark.parametrize("row", FALLBACK_ROWS)
def test_rows_orjson_does_not_read_as_a_float_are_read_by_float(tmp_path, row):
    ordinary = [repr(v) for v in stream(1, 0).normal(0.0, 50.0, 2 * BATCH_CHUNK).tolist()]
    rows = [*ordinary[:BATCH_CHUNK + 7], row, *ordinary[BATCH_CHUNK + 7:]]
    _read_like_float(tmp_path / "b.csv", rows)


# -- batch CSV rows: the piece reader reads as file iteration does -------------

_BLANK_ROW = st.sampled_from(["", " ", "\x0c", "\u2028"])
# Float texts are listed twice, so most pieces can take the orjson path.
_RAGGED_ROW = st.one_of(_JSON_FLOAT_TEXT, _JSON_FLOAT_TEXT, _BLANK_ROW,
                        st.sampled_from([*FALLBACK_ROWS, "1.0,2.0", "[1.0]"]))
# Rows longer than a piece at the default piece size.
_LONG_ROW = st.sampled_from([" " * 9000 + "1.5", "1." + "0" * 9000 + "1", "x" * 9000])


def _read_outcome(blocks):
    """The size and bits of each block ``blocks`` yields, and the type and
    message of its refusal, if any."""
    seen = []
    try:
        for block in blocks:
            seen.append((block.size, block.tobytes()))
    except ValueError as exc:
        return seen, (type(exc), str(exc))
    return seen, None


@CSV_CASES
@given(rows=st.lists(_RAGGED_ROW, max_size=40), blank_tail=st.lists(_BLANK_ROW, max_size=3),
       long_row=st.none() | st.tuples(_LONG_ROW, st.integers(0, 40)),
       line_end=st.sampled_from(["\n", "\r\n", "\r"]), ended=st.booleans(),
       piece=st.sampled_from([7, 64, None]), chunk=st.sampled_from([3, None]),
       miscount=st.sampled_from([0, 0, 1, -1]))
@example(rows=["1.0,2.0"], blank_tail=[""], long_row=None, line_end="\n", ended=True,
         piece=None, chunk=None, miscount=0)
@example(rows=["0.0", "0.0", "0.0", "true"], blank_tail=[], long_row=None, line_end="\n",
         ended=True, piece=None, chunk=3, miscount=0)
def test_batch_rows_are_read_as_file_iteration_reads_them(
        tmp_path_factory, rows, blank_tail, long_row, line_end, ended, piece, chunk, miscount):
    if long_row is not None:
        rows.insert(long_row[1], long_row[0])
    rows += blank_tail
    path = tmp_path_factory.mktemp("rows") / "b.csv"
    path.write_text(line_end.join(["# {}", "outcome", *rows]) + (line_end if ended else ""),
                    newline="")
    n_shots = sum(1 for row in rows if row.strip()) + miscount
    with pytest.MonkeyPatch.context() as patch:
        if piece is not None:
            patch.setattr(chain, "_PIECE_CHARS", piece)
        if chunk is not None:
            patch.setattr(chain, "BATCH_CHUNK", chunk)
        read = _read_outcome(BatchFile(path, ChainParams(), n_shots, 0).blocks())
        assert read == _read_outcome(reference_blocks(path, n_shots))


@pytest.mark.parametrize("piece", [None, 1 << 20])
def test_a_row_that_does_not_parse_is_refused_only_as_its_block_is_read(tmp_path, piece,
                                                                         monkeypatch):
    # The bad row opens the second block; a piece of 1 MiB holds the whole
    # file, so the first block comes out of the piece that holds the bad row.
    if piece is not None:
        monkeypatch.setattr(chain, "_PIECE_CHARS", piece)
    rows = [repr(v) for v in stream(2, 0).normal(0.0, 50.0, 2 * BATCH_CHUNK).tolist()]
    rows[BATCH_CHUNK] = "x"
    path = tmp_path / "b.csv"
    path.write_text("\n".join(["# {}", "outcome", "", *rows]) + "\n")
    blocks = BatchFile(path, ChainParams(), len(rows), 0).blocks()
    first = next(blocks)
    assert first.tolist() == [float(row) for row in rows[:BATCH_CHUNK]]
    with pytest.raises(ValueError, match=r"^could not convert string to float: 'x\\n'$"):
        next(blocks)


_READ_BATCH = """
import codecs, locale, sys
from opatomo.chain import BatchFile, ChainParams
blocks = BatchFile(sys.argv[1], ChainParams(), 1, 0).blocks()
print(codecs.lookup(locale.getpreferredencoding(False)).name,
      [v for block in blocks for v in block.tolist()])
"""


def test_a_batch_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    # float() reads the fullwidth digits of the UTF-8 row as 12.
    path = tmp_path / "b.csv"
    path.write_bytes("# {}\noutcome\n\uff11\uff12\n".encode("utf-8"))
    reads = []
    for env in (None, C_LOCALE):
        proc = run_python("-c", _READ_BATCH, str(path), env=env)
        assert proc.returncode == 0, proc.stderr
        reads.append(proc.stdout.split(" ", 1))
    assert reads[1][0] == "ascii"  # the second read ran under an ASCII locale
    assert [values for _, values in reads] == ["[12.0]\n"] * 2


# -- parameter validation ------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(gain=-0.1), "gain"),
        (dict(gain_jitter=-1.0), "gain_jitter"),
        (dict(input_transmittance=0.0), "input_transmittance"),
        (dict(input_transmittance=1.1), "input_transmittance"),
        (dict(input_noise=-0.5), "input_noise"),
        (dict(output_transmittance=0.0), "output_transmittance"),
        (dict(output_noise=-1.0), "output_noise"),
        (dict(displacement=float("nan")), "displacement"),
        (dict(gain=float("inf")), "gain"),
        (dict(detector=HomodyneDetector(lo_amplitude=float("inf"))), "detector.lo_amplitude"),
        (dict(detector=HomodyneDetector(electronic_noise=float("inf"))),
         "detector.electronic_noise"),
    ],
)
def test_chain_params_validation_names_field(kwargs, field):
    with pytest.raises(ConfigError) as err:
        ChainParams(**kwargs)
    assert err.value.field == field


def test_homodyne_detector_validation():
    with pytest.raises(ConfigError) as err:
        ChainParams(detector=HomodyneDetector(efficiency=0.0))
    assert err.value.field == "detector.efficiency"


def test_params_dict_round_trip():
    for params in (
        ChainParams(displacement=17.0),
        ChainParams(detector=HomodyneDetector(efficiency=0.5, electronic_noise=0.1)),
    ):
        assert ChainParams.from_dict(params.to_dict()) == params


def test_from_dict_unknown_detector():
    with pytest.raises(ConfigError) as err:
        ChainParams.from_dict({"detector": {"kind": "calorimeter"}})
    assert err.value.field == "detector"


@pytest.mark.parametrize("chain,name,value", [
    ({"gain": True}, "gain", True),
    ({"displacement": "17"}, "displacement", "17"),
    ({"output_noise": None}, "output_noise", None),
    ({"detector": {"kind": "homodyne", "efficiency": False}}, "efficiency", False),
    ({"detector": {"kind": "homodyne", "lo_amplitude": [1.0]}}, "lo_amplitude", [1.0]),
], ids=["bool-gain", "str-displacement", "null-output_noise", "bool-efficiency",
        "list-lo_amplitude"])
def test_from_dict_refuses_values_that_are_not_numbers(chain, name, value):
    with pytest.raises(ConfigError) as err:
        ChainParams.from_dict(chain)
    assert err.value.field == "chain"
    assert str(err.value) == f"chain: {name} must be a number (got {value!r})"


@pytest.mark.parametrize("cls,kind,other", [(IntensityDetector, "intensity", "homodyne"),
                                            (HomodyneDetector, "homodyne", "intensity")])
def test_a_detector_kind_is_fixed_by_its_class(cls, kind, other):
    # A detector cannot name another kind, so the shot function, the method
    # check and the inversion all read the class's kind.
    with pytest.raises(TypeError):
        cls(kind=other)
    with pytest.raises(TypeError):
        cls(kind=kind)
    assert cls().kind == kind
    # The kind is still written, so batch headers keep their bytes.
    assert asdict(cls())["kind"] == kind
    assert ChainParams(detector=cls()).to_dict()["detector"]["kind"] == kind


def test_default_detector_is_intensity():
    assert isinstance(ChainParams().detector, IntensityDetector)
