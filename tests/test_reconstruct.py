import math
from dataclasses import replace

import numpy as np
import pytest

from opatomo.chain import ChainParams, ConfigError, HomodyneDetector, IntensityDetector, run_batch
from opatomo.hist import bin_values, fidelity
from opatomo.reconstruct import (
    METHODS,
    NEAR_ZERO_SIGMAS,
    POSITIVITY_THRESHOLD,
    DegenerateSupport,
    InconsistentBinning,
    PositivityViolation,
    build_fold_matrices,
    check_method,
    displaced_reconstruct,
    double_displacement_reconstruct,
    fold_displacement,
    homodyne_reconstruct,
    invert_homodyne,
    invert_intensity,
    near_zero_cut,
    near_zero_fraction,
    noise_equivalent_std,
    standard_reconstruct,
    unfold_fold_samples,
)
from opatomo.states import SourceState, preset
from state_helpers import gaussian_1d


def noiseless(**overrides) -> ChainParams:
    base = dict(
        gain=4.0, gain_jitter=0.0, input_transmittance=1.0, input_noise=0.0,
        output_transmittance=1.0, output_transmittance_jitter=0.0, output_noise=0.0,
    )
    base.update(overrides)
    return ChainParams(**base)


# -- inversion -------------------------------------------------------------------

def test_invert_intensity_composes_with_forward_scale():
    params = noiseless(displacement=40.0)
    scale = math.exp(2.0 * params.gain)
    fd = fold_displacement(params)
    targets = np.array([0.0, 0.3, 1.7])
    outcomes = scale * (targets + fd) ** 2
    recovered = invert_intensity(outcomes, params)
    assert np.allclose(recovered, targets, atol=1e-10)


def test_invert_intensity_high_gain_forward_shot():
    from opatomo.chain import CHAIN_NORMALS, intensity_shot

    params = noiseless(gain=8.0)
    rng = np.random.default_rng(0)
    outcome = intensity_shot(np.array([1.0]), np.array([0.0]), params,
                             rng.standard_normal((CHAIN_NORMALS, 1)))
    estimate = invert_intensity(outcome, params)
    assert abs(estimate[0] - 1.0) < math.exp(-8.0)


def test_invert_intensity_zero_outcome():
    params = noiseless()
    assert invert_intensity([0.0], params)[0] == pytest.approx(0.0, abs=1e-15)
    displaced = noiseless(displacement=10.0)
    assert invert_intensity([0.0], displaced)[0] == pytest.approx(
        -fold_displacement(displaced), abs=1e-15
    )


def test_invert_intensity_pure_displacement_maps_near_zero():
    from opatomo.chain import CHAIN_NORMALS, intensity_shot

    params = noiseless(displacement=100.0)
    rng = np.random.default_rng(1)
    zeros = np.zeros(4)
    outcome = intensity_shot(zeros, zeros, params, rng.standard_normal((CHAIN_NORMALS, 4)))
    assert np.all(np.abs(invert_intensity(outcome, params)) < 1e-4)


def test_invert_intensity_clamps_negative_outcomes():
    params = noiseless()
    assert invert_intensity([-5.0], params)[0] == invert_intensity([0.0], params)[0]


def test_invert_homodyne_is_exact_affine_inverse():
    from dataclasses import replace

    from opatomo.chain import CHAIN_NORMALS, homodyne_shot

    det = HomodyneDetector(efficiency=0.8, lo_amplitude=2.5, vacuum_noise=0.0, electronic_noise=0.0)
    params = replace(noiseless(displacement=7.0, input_transmittance=0.99), detector=det)

    rng = np.random.default_rng(2)
    x = np.array([-1.3, 0.0, 0.4, 2.2])
    outcome = homodyne_shot(x, np.zeros_like(x), params, rng.standard_normal((CHAIN_NORMALS, 4)))
    assert np.allclose(invert_homodyne(outcome, params), x, atol=1e-10)


def test_inversions_leave_their_argument_unchanged():
    outcomes = np.array([-5.0, -0.0, 0.0, 3.0, 1e4, 2.5e5])
    before = outcomes.tobytes()
    for params, invert in ((ChainParams(displacement=20.0), invert_intensity),
                           (ChainParams(detector=HomodyneDetector()), invert_homodyne)):
        estimates = invert(outcomes, params)
        assert not np.shares_memory(estimates, outcomes)
        assert outcomes.tobytes() == before


def test_invert_homodyne_requires_homodyne_batch():
    with pytest.raises(ValueError):
        invert_homodyne([1.0], ChainParams())


# -- noise scale / positivity gating ------------------------------------------------

def test_noise_equivalent_std_default_chain():
    assert noise_equivalent_std(ChainParams()) == pytest.approx(
        0.40329709503271144 / NEAR_ZERO_SIGMAS, rel=1e-12
    )


def test_noise_equivalent_std_noiseless_is_zero():
    assert noise_equivalent_std(noiseless()) == 0.0


def test_near_zero_cut():
    assert near_zero_cut(ChainParams()) == pytest.approx(0.40329709503271144, rel=1e-12)
    assert near_zero_cut(noiseless()) == 0.0


@pytest.mark.parametrize("displacement", [0.0, 20.0])
def test_near_zero_fraction_counts_fold_coordinates_below_the_cut(displacement):
    params = ChainParams(displacement=displacement)
    batch = run_batch(preset("sq"), params, 20_000, 7)
    scale = math.exp(2.0 * params.gain) * params.input_transmittance * params.output_transmittance
    fold = np.sqrt(np.clip(batch.outcomes, 0.0, None) / scale)
    count = np.count_nonzero(fold < near_zero_cut(params))
    assert count > 0
    assert near_zero_fraction(batch) == count / batch.n_shots


def test_near_zero_fraction_is_zero_without_output_noise():
    batch = run_batch(preset("sq"), ChainParams(output_noise=0.0), 20_000, 7)
    assert (batch.outcomes < 0.0).any()
    assert near_zero_fraction(batch) == 0.0


def test_displaced_passes_positivity_far_from_fold():
    params = ChainParams(displacement=100.0)
    batch = run_batch(preset("sq"), params, 100_000, 7)
    hist = displaced_reconstruct(batch, 0.05)
    assert hist.n_total == 100_000
    assert near_zero_fraction(batch) <= POSITIVITY_THRESHOLD


def test_displaced_raises_positivity_at_zero_displacement():
    batch = run_batch(preset("sq"), ChainParams(), 20_000, 7)
    with pytest.raises(PositivityViolation) as info:
        displaced_reconstruct(batch, 0.05)
    exc = info.value
    assert exc.fraction > POSITIVITY_THRESHOLD
    assert exc.fraction == near_zero_fraction(batch)
    assert exc.cut == pytest.approx(0.40329709503271144, rel=1e-12)
    assert exc.threshold == POSITIVITY_THRESHOLD
    # the escape hatch for sweeps that just want the (bad) histogram
    hist = displaced_reconstruct(batch, 0.05, enforce_positivity=False)
    assert hist.n_total == 20_000
    assert near_zero_fraction(batch) > 0.3


# -- standard (fold-and-mirror) -------------------------------------------------------

def _two_point_state() -> SourceState:
    return SourceState.gaussian(
        [gaussian_1d(1e-4, -0.975, 0.5), gaussian_1d(1e-4, 0.975, 0.5)],
        label="pair",
    )


def test_standard_exact_for_symmetric_two_point_state():
    # High gain suppresses the conjugate quadrature, which these narrow
    # components carry with a huge anti-squeezed variance.
    state = _two_point_state()
    params = noiseless(gain=10.0)
    batch = run_batch(state, params, 20_000, 3)
    hist = standard_reconstruct(batch, 0.05)
    assert fidelity(hist, state) > 1.0 - 1e-12


def test_standard_output_is_mirror_symmetric():
    batch = run_batch(preset("sq_disp"), ChainParams(), 5_000, 11)
    hist = standard_reconstruct(batch, 0.05)
    assert np.array_equal(hist.counts, hist.counts[::-1])
    assert hist.n_total == 10_000
    assert hist.origin == -6.0


def test_standard_rejects_displaced_batch():
    batch = run_batch(preset("sq"), ChainParams(displacement=100.0), 100, 0)
    with pytest.raises(ValueError):
        standard_reconstruct(batch, 0.05)


def test_intensity_estimators_reject_homodyne_batches():
    params = ChainParams(detector=HomodyneDetector())
    batch = run_batch(preset("sq"), params, 100, 0)
    with pytest.raises(ValueError):
        standard_reconstruct(batch, 0.05)
    with pytest.raises(ValueError):
        displaced_reconstruct(batch, 0.05)


_ESTIMATORS = {
    "standard": standard_reconstruct,
    "displaced": lambda batch, w: displaced_reconstruct(batch, w, enforce_positivity=False),
    "double": lambda batch, w: double_displacement_reconstruct(
        batch, run_batch(preset("mix"), replace(batch.params, displacement=66.0), 2_000, 1), w),
    "homodyne": homodyne_reconstruct,
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("detector", [IntensityDetector(), HomodyneDetector()],
                         ids=["intensity", "homodyne"])
@pytest.mark.parametrize("displacement", [0.0, 33.0])
def test_method_table_matches_the_estimators(method, detector, displacement):
    # Each estimator accepts a batch exactly when check_method does.
    params = ChainParams(displacement=displacement, detector=detector)
    try:
        check_method(method, params)
        accepted = True
    except ConfigError as exc:
        assert exc.field == "method"
        accepted = False
    batch = run_batch(preset("mix"), params, 2_000, 0)
    if accepted:
        _ESTIMATORS[method](batch, 0.2)
    else:
        with pytest.raises(ConfigError, match="^method: "):
            _ESTIMATORS[method](batch, 0.2)
    assert accepted == (METHODS[method][0] == detector.kind
                        and (method != "standard" or displacement == 0.0))


def test_homodyne_reconstruct_vacuum():
    params = ChainParams(detector=HomodyneDetector())
    batch = run_batch(preset("vac"), params, 100_000, 5)
    hist = homodyne_reconstruct(batch, 0.05)
    assert fidelity(hist, preset("vac")) > 0.995


# -- fold matrices -----------------------------------------------------------------

def test_fold_matrices_smallest_nontrivial():
    # Worked by hand: signed centers -1.5w, -0.5w, 0.5w, 1.5w; |x| sends the
    # middle pair to fold bin 1 and the outer pair to bin 2, |x + w| sends
    # them to bins 1, 1, 2, 3.
    a, b = build_fold_matrices(2, 3)
    assert np.array_equal(a, [[0, 1, 1, 0], [1, 0, 0, 1]])
    assert np.array_equal(b, [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def _fold_matrices_by_centers(n1: int, n2: int):
    """Independent construction: push each signed bin center through the fold."""
    w = 1.0
    a = np.zeros((n1, 2 * n1))
    b = np.zeros((n2, 2 * n1))
    delta = n2 - n1
    for k in range(1, 2 * n1 + 1):
        c = (k - n1 - 0.5) * w
        t = int(math.floor(abs(c) / w)) + 1
        if t <= n1:
            a[t - 1, k - 1] += 1.0
        t = int(math.floor(abs(c + delta * w) / w)) + 1
        if t <= n2:
            b[t - 1, k - 1] += 1.0
    return a, b


@pytest.mark.parametrize("n1", range(1, 9))
def test_fold_matrices_match_center_mapping(n1):
    for n2 in range(n1, 9):
        a, b = build_fold_matrices(n1, n2)
        a_ref, b_ref = _fold_matrices_by_centers(n1, n2)
        assert np.array_equal(a, a_ref), (n1, n2)
        assert np.array_equal(b, b_ref), (n1, n2)
        assert np.array_equal(a.sum(axis=1), np.full(n1, 2.0))
        assert set(np.unique(b.sum(axis=1))) <= {0.0, 1.0, 2.0}


def test_fold_matrices_validation():
    with pytest.raises(ValueError):
        build_fold_matrices(0, 3)
    with pytest.raises(ValueError):
        build_fold_matrices(3, 2)


# -- unfolding -------------------------------------------------------------------

def _spikes(values, counts):
    return np.repeat(np.asarray(values, dtype=float), counts)


def test_unfold_exact_recovery():
    w = 0.1
    values = np.array([-0.15, 0.05, 0.25, 0.35])
    counts = np.array([30, 80, 50, 40])
    x = _spikes(values, counts)
    d = 6 * w
    estimate, diag = unfold_fold_samples(np.abs(x), np.abs(x + d), w)
    assert diag["n1"] == 4
    assert diag["n2"] == 10
    assert not diag["flipped"]
    assert diag["model_displacement"] == pytest.approx(d, rel=1e-12)
    assert diag["nnls_converged"]
    assert diag["residual"] == pytest.approx(0.0, abs=1e-10)
    for v, c in zip(values, counts):
        i = int(np.argmin(np.abs(estimate.centers - v)))
        assert estimate.centers[i] == pytest.approx(v, abs=1e-9)
        assert estimate.masses[i] == pytest.approx(c / counts.sum(), abs=1e-9)
    assert estimate.masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_unfold_flips_when_support_is_negative():
    w = 0.1
    values = np.array([-1.15, -0.95, -0.55, -0.25])
    counts = np.array([40, 60, 70, 30])
    x = _spikes(values, counts)
    d = 0.6
    estimate, diag = unfold_fold_samples(np.abs(x), np.abs(x + d), w)
    assert diag["flipped"]
    assert diag["model_displacement"] == pytest.approx(d, rel=1e-12)
    for v, c in zip(values, counts):
        i = int(np.argmin(np.abs(estimate.centers - v)))
        assert estimate.centers[i] == pytest.approx(v, abs=1e-9)
        assert estimate.masses[i] == pytest.approx(c / counts.sum(), abs=1e-9)


def test_unfold_shift_moves_centers_only():
    x = _spikes([-0.15, 0.05, 0.25, 0.35], [30, 80, 50, 40])
    a, _ = unfold_fold_samples(np.abs(x), np.abs(x + 0.6), 0.1)
    b, _ = unfold_fold_samples(np.abs(x), np.abs(x + 0.6), 0.1, shift=0.45)
    assert np.allclose(a.centers - 0.45, b.centers, atol=1e-12)
    assert np.array_equal(a.masses, b.masses)


def test_unfold_degenerate_support():
    with pytest.raises(DegenerateSupport):
        unfold_fold_samples([], [0.1], 0.1)
    # a lone count per bin is below the support threshold
    with pytest.raises(DegenerateSupport):
        unfold_fold_samples([0.05], [0.65], 0.1)


def test_unfold_input_validation():
    with pytest.raises(ValueError):
        unfold_fold_samples([-0.1, 0.1], [0.1, 0.1], 0.1)
    with pytest.raises(ValueError):
        unfold_fold_samples([0.1, 0.1], [0.1, 0.1], 0.0)


def test_unfold_benchmark_asymmetric_mixture():
    state = SourceState.gaussian(
        [gaussian_1d(0.4, -1.0, 0.5), gaussian_1d(0.6, 1.0, 0.5)], label="bench"
    )
    rng = np.random.default_rng(0)
    x1, _ = state.sample_xp(50_000, rng)
    x2, _ = state.sample_xp(50_000, rng)
    d = 0.6
    estimate, diag = unfold_fold_samples(np.abs(x1), np.abs(x2 + d), 0.2)
    f = fidelity(estimate, state)
    assert f == pytest.approx(0.9995680077063201, abs=1e-6)
    assert f >= 0.98


# -- two-displacement end to end ------------------------------------------------------

def test_double_requires_matching_chains():
    a = run_batch(preset("mix"), ChainParams(displacement=33.0), 200, 0)
    b = run_batch(preset("mix"), ChainParams(displacement=66.0, gain=3.0), 200, 1)
    with pytest.raises(InconsistentBinning):
        double_displacement_reconstruct(a, b, 0.05)
    # The same chain on another source state is refused too, naming both.
    b = run_batch(preset("sq"), ChainParams(displacement=66.0), 200, 1)
    with pytest.raises(InconsistentBinning, match="'mix' and 'sq'"):
        double_displacement_reconstruct(a, b, 0.05)


def test_double_requires_distinct_displacements():
    a = run_batch(preset("mix"), ChainParams(displacement=33.0), 200, 0)
    b = run_batch(preset("mix"), ChainParams(displacement=33.0), 200, 1)
    with pytest.raises(ValueError):
        double_displacement_reconstruct(a, b, 0.05)


def test_double_rejects_homodyne_batches():
    params = ChainParams(displacement=33.0, detector=HomodyneDetector())
    a = run_batch(preset("mix"), params, 200, 0)
    b = run_batch(preset("mix"), ChainParams(displacement=66.0), 200, 1)
    with pytest.raises(ValueError):
        double_displacement_reconstruct(a, b, 0.05)


def test_double_is_order_insensitive():
    a = run_batch(preset("mix"), ChainParams(displacement=33.0), 20_000, 0)
    b = run_batch(preset("mix"), ChainParams(displacement=66.0), 20_000, 1)
    e1, d1 = double_displacement_reconstruct(a, b, 0.2)
    e2, d2 = double_displacement_reconstruct(b, a, 0.2)
    assert np.array_equal(e1.masses, e2.masses)
    assert np.array_equal(e1.centers, e2.centers)
    assert d1 == d2


@pytest.mark.parametrize("name", ["mix", "mix_disp"])
def test_double_end_to_end(name):
    # Chain displacements of 33/66 sit roughly 0.6/1.2 input-quadrature
    # units from the fold point at the default gain.
    state = preset(name)
    a = run_batch(state, ChainParams(displacement=33.0), 50_000, 0)
    b = run_batch(state, ChainParams(displacement=66.0), 50_000, 1)
    estimate, diag = double_displacement_reconstruct(a, b, 0.2)
    assert diag["nnls_converged"]
    assert fidelity(estimate, state) > 0.97
