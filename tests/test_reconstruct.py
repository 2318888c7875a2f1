import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opatomo import reconstruct
from opatomo.chain import ChainParams, ConfigError, HomodyneDetector, IntensityDetector, run_batch
from opatomo.hist import bin_values, fidelity
from opatomo.nnls import solve_nnls
from opatomo.reconstruct import (
    METHODS,
    POSITIVITY_THRESHOLD,
    DegenerateSupport,
    InconsistentBinning,
    PositivityViolation,
    build_fold_matrices,
    check_method,
    check_positivity,
    displaced_reconstruct,
    double_displacement_reconstruct,
    fold_displacement,
    homodyne_reconstruct,
    invert_homodyne,
    invert_intensity,
    near_zero_cut,
    near_zero_fraction,
    standard_reconstruct,
    unfold_fold_samples,
)
from opatomo.states import SourceState, preset
from fold_helpers import fold_histograms, split_fold_system
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


def test_homodyne_reconstruct_requires_homodyne_batch():
    batch = run_batch(preset("sq"), ChainParams(), 100, 0)
    with pytest.raises(ConfigError, match="^method: homodyne cannot read the intensity detector"):
        homodyne_reconstruct(batch, 0.05)


# -- noise scale / positivity gating ------------------------------------------------

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
        check_positivity(batch, near_zero_fraction(batch))
    exc = info.value
    assert exc.fraction > POSITIVITY_THRESHOLD
    assert exc.fraction == near_zero_fraction(batch)
    assert exc.cut == pytest.approx(0.40329709503271144, rel=1e-12)
    assert exc.threshold == POSITIVITY_THRESHOLD
    # The estimator itself has no positivity gate: it returns the (bad)
    # histogram, as the sweeps want.
    hist = displaced_reconstruct(batch, 0.05)
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


# Each method's estimator, through METHODS; the two-displacement one gets a
# second batch at d = 66.
_ESTIMATORS = {
    **{method: getattr(reconstruct, name)
       for method, (_, batches, name) in METHODS.items() if batches == 1},
    "double": lambda batch, w: double_displacement_reconstruct(
        batch, run_batch(preset("mix"), replace(batch.params, displacement=66.0), 2_000, 1), w),
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
    estimate, diag = unfold_fold_samples(*fold_histograms(np.abs(x), np.abs(x + d), w))
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


@st.composite
def _signed_bin_counts(draw):
    """Integer counts on the 2*n1 signed bin centres, at least two in each
    outermost bin, so the |x| fold fixes n1 and the |x + delta*w| fold n1 + delta."""
    n1 = draw(st.integers(1, 30))
    counts = np.array(draw(st.lists(st.integers(0, 50), min_size=2 * n1, max_size=2 * n1)))
    counts[[0, -1]] = np.maximum(counts[[0, -1]], 2)
    return counts, draw(st.integers(0, 30))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_signed_bin_counts())
def test_unfold_recovers_noiseless_folds_of_every_shape(case):
    # delta >= 1 fixes every signed mass; at delta = 0 both folds are |x|, whose
    # columns come in equal pairs, so only the mirror-pair sums are fixed.
    counts, delta = case
    w = 0.1
    n1 = counts.size // 2
    x = _spikes((np.arange(2 * n1) - n1 + 0.5) * w, counts)
    estimate, diag = unfold_fold_samples(*fold_histograms(np.abs(x), np.abs(x + delta * w), w))
    assert (diag["n1"], diag["n2"], diag["flipped"]) == (n1, n1 + delta, False)
    assert diag["residual"] <= 1e-12
    truth = counts / counts.sum()
    if delta:
        np.testing.assert_allclose(estimate.masses, truth, rtol=0, atol=1e-12)
    else:
        np.testing.assert_allclose(estimate.masses + estimate.masses[::-1], truth + truth[::-1],
                                   rtol=0, atol=1e-12)


def _column_components(n_cols: int, links: list[tuple[int, int]]) -> list[list[int]]:
    """The connected components of the graph on ``n_cols`` columns whose
    edges are ``links``."""
    parent = list(range(n_cols))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in links:
        parent[root(i)] = root(j)
    groups = {}
    for i in range(n_cols):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def test_fold_system_is_an_incidence_matrix_of_paths():
    # Each column holds the |x| bin and the |x + delta*w| bin of one signed bin,
    # and each row at most two columns, so linking the two columns of each
    # full row gives a graph of paths: min(delta, n1) of them for delta >= 1,
    # and n1 pairs of equal columns at delta = 0.
    for n1 in range(1, 31):
        for delta in range(31):
            m = np.vstack(build_fold_matrices(n1, n1 + delta))
            assert np.isin(m, (0.0, 1.0)).all()
            assert (m.sum(axis=0) == 2).all() and (m.sum(axis=1) <= 2).all()
            links = [tuple(np.flatnonzero(row)) for row in m if row.sum() == 2]
            components = _column_components(2 * n1, links)
            if delta == 0:
                assert len(components) == n1
                assert all(len(c) == 2 and np.array_equal(m[:, c[0]], m[:, c[1]])
                           for c in components)
                continue
            assert len(components) == min(delta, n1), (n1, delta)
            # Connected, one link fewer than columns and no column on three
            # links: each component is a path.
            assert np.bincount(np.ravel(links), minlength=2 * n1).max() <= 2
            for c in components:
                assert sum(i in c for i, _ in links) == len(c) - 1, (n1, delta)


@st.composite
def _fold_systems(draw):
    """A fold-system shape (n1, delta) and a non-negative right-hand side."""
    n1, delta = draw(st.integers(1, 30)), draw(st.integers(0, 30))
    rows = 2 * n1 + delta
    rhs = draw(st.lists(st.floats(0.0, 100.0), min_size=rows, max_size=rows))
    return n1, delta, np.array(rhs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_fold_systems())
def test_fold_system_solves_component_by_component(case):
    # No row spans two components, so the NNLS solve splits into one solve
    # per component; a row with no entries adds its b^2 to the residual.  A
    # consistent system's residual is rounding noise, so the gap is also
    # allowed 1e-12 of |b|.
    n1, delta, b = case
    matrix, parts = split_fold_system(n1, delta)
    assert np.array_equal(np.sort(np.concatenate([c for _, c in parts])), np.arange(2 * n1))
    held = np.bincount(np.concatenate([r for r, _ in parts]), minlength=matrix.shape[0])
    assert held.max() <= 1, (n1, delta)
    assert np.array_equal(held.astype(bool), matrix.any(axis=1))
    squares = [solve_nnls(matrix[np.ix_(r, c)], b[r]).residual ** 2 for r, c in parts]
    split = math.sqrt(sum(squares) + float(b[held == 0] @ b[held == 0]))
    assert math.isclose(split, solve_nnls(matrix, b).residual, rel_tol=1e-12,
                        abs_tol=1e-12 * math.sqrt(b @ b)), (n1, delta)


def test_unfold_flips_when_support_is_negative():
    w = 0.1
    values = np.array([-1.15, -0.95, -0.55, -0.25])
    counts = np.array([40, 60, 70, 30])
    x = _spikes(values, counts)
    d = 0.6
    estimate, diag = unfold_fold_samples(*fold_histograms(np.abs(x), np.abs(x + d), w))
    assert diag["flipped"]
    assert diag["model_displacement"] == pytest.approx(d, rel=1e-12)
    for v, c in zip(values, counts):
        i = int(np.argmin(np.abs(estimate.centers - v)))
        assert estimate.centers[i] == pytest.approx(v, abs=1e-9)
        assert estimate.masses[i] == pytest.approx(c / counts.sum(), abs=1e-9)


def test_unfold_shift_moves_centers_only():
    x = _spikes([-0.15, 0.05, 0.25, 0.35], [30, 80, 50, 40])
    hists = fold_histograms(np.abs(x), np.abs(x + 0.6), 0.1)
    a, _ = unfold_fold_samples(*hists)
    b, _ = unfold_fold_samples(*hists, shift=0.45)
    assert np.allclose(a.centers - 0.45, b.centers, atol=1e-12)
    assert np.array_equal(a.masses, b.masses)


def test_unfold_degenerate_support():
    with pytest.raises(DegenerateSupport):
        unfold_fold_samples(*fold_histograms([], [0.1], 0.1))
    # a lone count per bin is below the support threshold
    with pytest.raises(DegenerateSupport):
        unfold_fold_samples(*fold_histograms([0.05], [0.65], 0.1))


def test_unfold_input_validation():
    # Samples off the fold grid, below it or beyond it, are overflow: each
    # fold's masses scale by n / (n + k) and the system keeps its size.
    w = 0.1
    x = _spikes([-0.15, 0.05, 0.25, 0.35], [30, 80, 50, 40])
    hist_y, hist_z = fold_histograms(np.abs(x), np.abs(x + 6 * w), w)
    estimate, diag = unfold_fold_samples(hist_y, hist_z)
    off_grid = bin_values([-0.1, 1e9, 1e9], w, 0.0, hist_y.n_bins * w)
    off_estimate, off_diag = unfold_fold_samples(hist_y + off_grid, hist_z + off_grid)
    assert off_grid.overflow == 3
    assert (off_diag["n1"], off_diag["n2"]) == (diag["n1"], diag["n2"]) == (4, 10)
    assert np.array_equal(off_estimate.centers, estimate.centers)
    np.testing.assert_allclose(off_estimate.masses, estimate.masses * x.size / (x.size + 3),
                               rtol=0.0, atol=1e-12)
    # The two folds must share one grid.
    with pytest.raises(ValueError):
        unfold_fold_samples(bin_values([0.1, 0.1], 0.1, 0.0, 0.2),
                            bin_values([0.1, 0.1], 0.05, 0.0, 0.2))


def test_unfold_benchmark_asymmetric_mixture():
    state = SourceState.gaussian(
        [gaussian_1d(0.4, -1.0, 0.5), gaussian_1d(0.6, 1.0, 0.5)], label="bench"
    )
    rng = np.random.default_rng(0)
    x1, _ = state.sample_xp(50_000, rng)
    x2, _ = state.sample_xp(50_000, rng)
    d = 0.6
    estimate, diag = unfold_fold_samples(*fold_histograms(np.abs(x1), np.abs(x2 + d), 0.2))
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


def test_double_refuses_a_non_positive_bin_width():
    a = run_batch(preset("mix"), ChainParams(displacement=33.0), 200, 0)
    b = run_batch(preset("mix"), ChainParams(displacement=66.0), 200, 1)
    for width in (0.0, -0.05):
        with pytest.raises(ValueError, match="bin_width must be positive"):
            double_displacement_reconstruct(a, b, width)


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


@pytest.mark.parametrize("stray", [1e6, 1e9])
def test_double_counts_stray_outcomes_as_overflow(stray):
    # The fold grid is fixed by the chain, so two huge outcomes land off it
    # and neither size the system nor move the model displacement.
    state = preset("mix")
    a = run_batch(state, ChainParams(displacement=33.0), 20_000, 0)
    b = run_batch(state, ChainParams(displacement=66.0), 20_000, 1)
    clean, clean_diag = double_displacement_reconstruct(a, b, 0.2)
    outcomes = np.concatenate([a.outcomes, [stray, stray]])
    estimate, diag = double_displacement_reconstruct(
        replace(a, outcomes=outcomes), b, 0.2)
    assert (clean_diag["n1"], clean_diag["n2"]) == (7, 10)
    assert clean_diag["model_displacement"] == pytest.approx(0.6, rel=1e-12)
    for key in ("n1", "n2", "model_displacement"):
        assert diag[key] == clean_diag[key]
    assert fidelity(estimate, state) == pytest.approx(fidelity(clean, state), abs=1e-3)


def test_double_at_negative_displacements(monkeypatch):
    binned = []

    def spy(*args):
        binned.append(bin_values(*args))
        return binned[-1]

    monkeypatch.setattr(reconstruct, "bin_values", spy)
    a = run_batch(preset("mix"), ChainParams(displacement=-33.0), 20_000, 0)
    b = run_batch(preset("mix"), ChainParams(displacement=-66.0), 20_000, 1)
    _, diag = double_displacement_reconstruct(a, b, 0.2)
    assert binned and all(hist.overflow == 0 for hist in binned)
    assert (diag["n1"], diag["n2"]) == (7, 10)
    assert diag["residual"] == pytest.approx(0.0230702821106866, abs=1e-12)


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
