import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opatomo.hist import (
    DensityEstimate,
    QuadratureHistogram,
    analytic_bins,
    analytic_point_density,
    bin_values,
    fidelity,
    fidelity_from_masses,
)
from opatomo.states import SourceState, preset
from opatomo.streams import stream
from state_helpers import gaussian_1d


# -- binning -------------------------------------------------------------------

def test_direct_binning():
    hist = bin_values([0.01, 0.06], 0.05, 0.0, 0.1)
    assert list(hist.counts) == [1, 1]
    assert hist.overflow == 0
    assert hist.n_total == 2


def test_boundary_goes_right():
    # Left-closed, right-open bins: an edge value belongs to the bin it opens.
    hist = bin_values([0.05], 0.05, 0.0, 0.15)
    assert list(hist.counts) == [0, 1, 0]


def test_overflow_counted_not_dropped():
    hist = bin_values([-1.0, 0.02, 7.0], 0.05, 0.0, 0.1)
    assert hist.overflow == 2
    assert hist.n_total == 3
    # Overflow mass deflates the in-range relative frequencies.
    assert float(hist.masses.sum()) == pytest.approx(1.0 / 3.0)


def test_value_exactly_at_hi_overflows():
    hist = bin_values([0.1], 0.05, 0.0, 0.1)
    assert hist.overflow == 1
    assert int(hist.counts.sum()) == 0


def test_values_far_off_the_grid_overflow_without_a_cast_error():
    with np.errstate(all="raise"):
        h = bin_values([1e300, -1e300, 0.1], 0.5, -1.0, 1.0)
    assert h.overflow == 2 and h.counts.tolist() == [0, 0, 1, 0]


def test_empty_input_is_valid():
    hist = bin_values([], 0.05, 0.0, 0.2)
    assert int(hist.counts.sum()) == 0
    assert hist.n_total == 0


def test_grid_must_be_integer_bins():
    with pytest.raises(ValueError):
        bin_values([0.0], 0.05, 0.0, 0.12)
    with pytest.raises(ValueError):
        bin_values([0.0], 0.05, 1.0, 0.5)


def test_bin_values_rejects_non_positive_width():
    for width in (0.0, -0.05):
        with pytest.raises(ValueError, match="bin_width"):
            bin_values([0.0], width, 0.0, 0.1)


def test_bin_values_rejects_non_finite_width():
    # An infinite width made an empty grid that counted every value as
    # overflow.
    for width in (math.inf, math.nan):
        with pytest.raises(ValueError, match="bin_width must be positive and finite"):
            bin_values([0.0], width, 0.0, 0.1)


def test_histogram_invariants_enforced():
    with pytest.raises(ValueError):
        QuadratureHistogram(bin_width=0.05, origin=0.0, counts=[1, 1], n_total=3)
    with pytest.raises(ValueError):
        QuadratureHistogram(bin_width=0.05, origin=0.0, counts=[-1, 3], n_total=2)
    with pytest.raises(ValueError):
        QuadratureHistogram(bin_width=0.0, origin=0.0, counts=[1], n_total=1)


def test_histograms_add_to_the_histogram_of_both_samples():
    a, b = np.array([-7.0, -0.5, 0.1, 0.3]), np.array([0.2, 2.0, 9.0])
    total = bin_values(a, 0.25, -1.0, 1.0) + bin_values(b, 0.25, -1.0, 1.0)
    joint = bin_values(np.concatenate((a, b)), 0.25, -1.0, 1.0)
    assert np.array_equal(total.counts, joint.counts)
    assert (total.n_total, total.overflow) == (joint.n_total, joint.overflow) == (7, 3)
    with pytest.raises(ValueError, match="grids"):
        bin_values(a, 0.25, -1.0, 1.0) + bin_values(b, 0.5, -1.0, 1.0)


def test_bin_centers():
    hist = bin_values([0.01], 0.1, -0.2, 0.2)
    assert np.allclose(hist.centers, [-0.15, -0.05, 0.05, 0.15])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), max_size=200),
    st.integers(min_value=1, max_value=40),
)
def test_binning_conserves_counts(values, n_bins):
    w = 0.25
    hist = bin_values(values, w, -2.0, -2.0 + n_bins * w)
    assert int(hist.counts.sum()) + hist.overflow == len(values)
    # Spot-check membership for each in-range value.
    for v in values:
        idx = int(np.floor((v - (-2.0)) / w))
        if 0 <= idx < n_bins and v < -2.0 + n_bins * w:
            assert hist.counts[idx] >= 1


# -- fidelity ------------------------------------------------------------------

def _two_spike_state(c0: float, c1: float, w0: float) -> SourceState:
    # Nearly-discrete mixture: almost all of each component's mass sits in
    # the single bin containing its mean.
    return SourceState.gaussian(
        [gaussian_1d(1e-7, c0, w0), gaussian_1d(1e-7, c1, 1.0 - w0)]
    )


def test_fidelity_hand_oracle():
    # nu = (0.5, 0.5) against p = (0.9, 0.1): F = (sqrt(.45)+sqrt(.05))^2 = 0.8.
    w = 0.05
    centers = np.array([0.025, 0.075])
    state = _two_spike_state(0.025, 0.075, 0.9)
    f = fidelity_from_masses(centers, np.array([0.5, 0.5]), w, state)
    assert f == pytest.approx(0.8, abs=1e-9)


def test_fidelity_perfect_match():
    state = preset("sq")
    reference = analytic_bins(state, 0.05, -6.0, 6.0)
    assert fidelity(reference, state) == pytest.approx(1.0, abs=1e-8)


def test_fidelity_disjoint_supports():
    state = _two_spike_state(-3.0, 3.0, 0.5)
    centers = np.array([0.025, 0.075])
    f = fidelity_from_masses(centers, np.array([0.5, 0.5]), 0.05, state)
    assert f < 1e-12


def test_fidelity_range():
    state = preset("mix")
    rng = stream(31, 0)
    x, _ = state.sample_xp(20_000, rng)
    hist = bin_values(x, 0.05, -6.0, 6.0)
    f = fidelity(hist, state)
    assert 0.0 <= f <= 1.0


def test_fidelity_invariant_under_zero_padding():
    # Extending the grid with empty bins adds sqrt(0 * p) = 0 terms only.
    state = preset("sq")
    x, _ = state.sample_xp(50_000, stream(32, 0))
    narrow = bin_values(x, 0.05, -3.0, 3.0)
    wide = bin_values(x, 0.05, -6.0, 6.0)
    assert narrow.overflow == 0  # support fits either way
    assert fidelity(narrow, state) == pytest.approx(fidelity(wide, state), abs=1e-12)


def test_vacuum_histogram_fidelity():
    state = preset("vac")
    x, _ = state.sample_xp(100_000, stream(33, 0))
    hist = bin_values(x, 0.05, -6.0, 6.0)
    assert fidelity(hist, state) >= 0.999


def test_infidelity_improves_with_sample_size():
    state = preset("sq")
    rng = stream(34, 0)
    x_small, _ = state.sample_xp(1_000, rng)
    x_large, _ = state.sample_xp(100_000, rng)
    f_small = fidelity(bin_values(x_small, 0.05, -6.0, 6.0), state)
    f_large = fidelity(bin_values(x_large, 0.05, -6.0, 6.0), state)
    assert 1.0 - f_large < 1.0 - f_small


# -- analytic references ---------------------------------------------------------

def test_analytic_bins_are_bin_probabilities():
    state = preset("mix")
    ref = analytic_bins(state, 0.1, -5.0, 5.0)
    assert float(ref.masses.sum()) == pytest.approx(1.0, abs=1e-8)
    edges = np.arange(-5.0, 5.0 + 0.05, 0.1)
    assert np.allclose(ref.masses, state.bin_probabilities(edges), atol=1e-14)


def test_analytic_bins_range_check():
    with pytest.raises(ValueError):
        analytic_bins(preset("vac"), 0.3, -1.0, 1.0 + 0.05)


def test_point_density_centered_on_mean():
    state = preset("sq_disp")
    ref = analytic_point_density(state, 0.05)
    assert ref.centers.size == 241
    mid = ref.centers[120]
    assert mid == pytest.approx(state.marginal_mean(), abs=1e-12)
    assert np.allclose(ref.masses, state.marginal_pdf(ref.centers) * 0.05)


def test_density_estimate_validation():
    with pytest.raises(ValueError):
        DensityEstimate(centers=np.zeros(3), masses=np.zeros(2), bin_width=0.1)
    with pytest.raises(ValueError):
        DensityEstimate(centers=np.zeros(3), masses=np.zeros(3), bin_width=0.0)


def test_histogram_csv(tmp_path):
    hist = bin_values([0.01, 0.06, 0.06], 0.05, 0.0, 0.1)
    path = tmp_path / "h.csv"
    hist.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_center,relative_frequency"
    assert len(lines) == 3
