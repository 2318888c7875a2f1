import math
from dataclasses import replace

import numpy as np
import pytest

from opatomo.chain import (
    BATCH_CHUNK,
    CHAIN_NORMALS,
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


def test_batch_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("outcome\n1.0\n")
    with pytest.raises(ValueError):
        ShotBatch.from_csv(path)


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


def test_chain_key_ignores_displacement():
    a = ChainParams()
    b = replace(a, displacement=250.0)
    assert a.chain_key() == b.chain_key()
    assert b.displacement == 250.0
    c = ChainParams(gain=3.0)
    assert a.chain_key() != c.chain_key()


def test_params_dict_round_trip():
    for params in (
        ChainParams(displacement=17.0),
        ChainParams(detector=HomodyneDetector(efficiency=0.5, electronic_noise=0.1)),
    ):
        assert ChainParams.from_dict(params.to_dict()) == params


def test_from_dict_unknown_detector():
    with pytest.raises(ConfigError):
        ChainParams.from_dict({"detector": {"kind": "calorimeter"}})


def test_default_detector_is_intensity():
    assert isinstance(ChainParams().detector, IntensityDetector)
