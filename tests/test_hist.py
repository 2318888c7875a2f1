import functools
import inspect
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opatomo.chain import ChainParams, ShotBatch
from opatomo.hist import (
    MAX_BINS,
    DensityEstimate,
    QuadratureHistogram,
    analytic_point_density,
    bin_values,
    fidelity,
    grid_bins,
)
from opatomo.reconstruct import standard_reconstruct
from opatomo.states import SourceState, preset
from opatomo.streams import stream
from state_helpers import analytic_bins, gaussian_1d


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
    # A range that is not a whole number of bins is rounded up to one, so a
    # value past hi but below the rounded-up top is counted.
    assert grid_bins(0.05, 0.0, 0.12) == (3, 3 * 0.05)
    hist = bin_values([0.0, 0.13], 0.05, 0.0, 0.12)
    assert (hist.n_bins, hist.origin) == (3, 0.0)
    assert hist.counts.tolist() == [1, 0, 1] and hist.overflow == 0
    for lo, hi in ((1.0, 0.5), (0.5, 0.5), (0.0, math.nan)):
        with pytest.raises(ValueError, match="hi must exceed lo"):
            bin_values([0.0], 0.05, lo, hi)


def test_a_grid_of_exactly_max_bins_is_accepted():
    assert grid_bins(1.0, 0.0, float(MAX_BINS)) == (MAX_BINS, float(MAX_BINS))
    hist = bin_values([0.0], 12.0 / MAX_BINS, -6.0, 6.0)
    assert hist.n_bins == MAX_BINS and hist.counts[MAX_BINS // 2] == 1


def test_the_cap_names_the_bin_count_it_would_build():
    # 12 / 1.1999999e-05 is 1000000.08 bins, rounded up to 1000001.
    with pytest.raises(ValueError, match=r"^a grid of 1000001 bins of width 1\.1999999e-05 "
                                         r"exceeds the cap of 1000000 bins"):
        bin_values([0.0], 1.1999999e-05, -6.0, 6.0)
    with pytest.raises(ValueError, match="^a grid of inf bins of width 5e-324 exceeds"):
        grid_bins(5e-324, 0.0, 7.0)


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
        QuadratureHistogram(bin_width=0.05, origin=0.0, counts=[-1, 3])
    with pytest.raises(ValueError):
        QuadratureHistogram(bin_width=0.0, origin=0.0, counts=[1])


def test_a_histogram_total_is_derived_not_given():
    # The total is the counts plus the overflow; there is no second copy to
    # keep consistent, so a histogram cannot be handed one.
    assert isinstance(inspect.getattr_static(QuadratureHistogram, "n_total", None), property)
    with pytest.raises(TypeError):
        QuadratureHistogram(bin_width=0.05, origin=0.0, counts=[1, 1], n_total=2)
    binned = bin_values([-1.0, 0.02, 0.02, 0.07, 7.0], 0.05, 0.0, 0.1)
    summed = binned + bin_values([0.06, math.nan], 0.05, 0.0, 0.1)
    batch = ShotBatch(np.array([0.0, 1.0, 1e9]), ChainParams(), 0, "vac")
    mirrored = standard_reconstruct(batch, 0.05)
    for hist, total in ((binned, 5), (summed, 7), (mirrored, 6)):
        assert hist.n_total == int(hist.counts.sum()) + hist.overflow == total


@pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf])
def test_histograms_refuse_a_non_finite_bin_width(width):
    # Such a width would give NaN or infinite bin centers.
    with pytest.raises(ValueError, match="bin_width must be positive and finite"):
        QuadratureHistogram(bin_width=width, origin=0.0, counts=[1])
    with pytest.raises(ValueError, match="bin_width must be positive and finite"):
        DensityEstimate(centers=np.zeros(1), masses=np.ones(1), bin_width=width)


def test_histogram_refuses_negative_overflow():
    # counts [1, 2] with overflow -1 would balance n_total = 2 and give
    # masses summing to 1.5.
    with pytest.raises(ValueError, match="overflow must be non-negative"):
        QuadratureHistogram(bin_width=0.05, origin=0.0, counts=[1, 2], overflow=-1)


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


def _reference_bin_values(values, bin_width, lo, hi):
    """Reference binner: select the in-range positions by boolean index,
    cast and count them, and call the rest overflow."""
    values = np.asarray(values, dtype=float)
    n_bins = int(round((hi - lo) / bin_width))
    pos = (values - lo) / bin_width
    in_range = (pos >= 0) & (pos < n_bins) & (values < hi)
    counts = np.bincount(pos[in_range].astype(np.int64), minlength=n_bins)
    return counts, values.size - int(in_range.sum()), values.size


# Grids (bin_width, lo, hi) with an integer number of bins.
_GRIDS = [(0.05, -6.0, 6.0), (0.05, 0.0, 6.0), (0.1, 0.0, 0.3), (0.25, -2.0, 3.0),
          (0.2, -1.4, 1.4)]


def _edge_values(bin_width, lo, hi):
    """The values where a binner can go wrong on the grid (bin_width, lo, hi)."""
    below_hi = np.nextafter(hi, -math.inf)
    return [hi, below_hi, np.nextafter(below_hi, -math.inf), lo, np.nextafter(lo, -math.inf),
            np.nextafter(lo, math.inf), -0.0, 0.0, math.inf, -math.inf, math.nan,
            1e300, -1e300, lo + bin_width, hi - bin_width]


def _exact_grid_histogram(values, bin_width, lo, hi):
    """(origin, n_bins, counts, overflow) on exactly [lo, hi), which must be
    a whole number of bins: the only grids accepted before ranges were
    rounded up to whole bins."""
    n_bins = round((hi - lo) / bin_width)
    assert abs(lo + n_bins * bin_width - hi) <= 1e-9 * bin_width
    counts, overflow, _ = _reference_bin_values(values, bin_width, lo, hi)
    return lo, n_bins, counts.tolist(), overflow


# k where ceil(12 / w) != 2k for w = 6 / k, and where k * w != 6.0.
_CEIL_OFF = (47, 173, 241)
_PRODUCT_OFF = (47, 94, 147)


def test_whole_bin_grids_keep_their_bytes():
    assert all(math.ceil(12 / (6 / k)) != 2 * k for k in _CEIL_OFF)
    assert all(k * (6 / k) != 6.0 for k in _PRODUCT_OFF)
    for k in range(1, 300):
        w = 6 / k
        for lo, hi in ((-6.0, 6.0), (0.0, 6.0)):
            values = _edge_values(w, lo, hi)
            hist = bin_values(values, w, lo, hi)
            assert (hist.origin, hist.n_bins, hist.counts.tolist(), hist.overflow) == (
                _exact_grid_histogram(values, w, lo, hi)), (k, lo)
        batch = ShotBatch(np.array([0.0, 1.0, 1e9]), ChainParams(), 0, "vac")
        mirrored = standard_reconstruct(batch, w)
        assert (mirrored.origin, mirrored.n_bins) == (-6.0, 2 * k)
    # The grid alone, over a finer range of the same widths.
    for k in range(1, 20_001):
        w = 6 / k
        assert grid_bins(w, -6.0, 6.0) == (2 * k, 6.0) and grid_bins(w, 0.0, 6.0) == (k, 6.0)


def test_edge_values_include_a_position_that_rounds_up_to_n_bins():
    # On [-6, 6) with width 0.05 the largest value below hi sits at position
    # (v - lo) / w == n_bins after rounding: it overflows, as in the reference.
    v = np.nextafter(6.0, -math.inf)
    assert v < 6.0 and (v + 6.0) / 0.05 == 240
    assert bin_values([v], 0.05, -6.0, 6.0).overflow == 1


_finite_or_not = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0]),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_GRIDS), st.lists(_finite_or_not, max_size=60), st.booleans())
def test_binner_matches_the_boolean_index_reference(grid, values, with_edges):
    bin_width, lo, hi = grid
    if with_edges:
        values = values + _edge_values(bin_width, lo, hi)
    arr = np.array(values, dtype=float)
    before = arr.tobytes()
    hist = bin_values(arr, bin_width, lo, hi)
    counts, overflow, n_total = _reference_bin_values(arr, bin_width, lo, hi)
    assert np.array_equal(hist.counts, counts)
    assert (hist.overflow, hist.n_total) == (overflow, n_total)
    assert arr.tobytes() == before


@pytest.mark.parametrize("grid", _GRIDS)
def test_binner_matches_the_reference_on_every_edge_and_on_empty_input(grid):
    for values in (_edge_values(*grid), []):
        hist = bin_values(values, *grid)
        counts, overflow, n_total = _reference_bin_values(values, *grid)
        assert np.array_equal(hist.counts, counts)
        assert (hist.overflow, hist.n_total) == (overflow, n_total)


# -- adding histograms ---------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_GRIDS), st.lists(_finite_or_not, max_size=60),
       st.lists(st.integers(0, 60), max_size=4))
def test_histograms_of_any_split_add_up_to_the_whole(grid, values, cuts):
    arr = np.array(values, dtype=float)
    bounds = [0, *sorted(min(cut, arr.size) for cut in cuts), arr.size]
    parts = [bin_values(arr[a:b], *grid) for a, b in zip(bounds, bounds[1:])]
    total = functools.reduce(operator.add, parts)
    whole = bin_values(arr, *grid)
    assert np.array_equal(total.counts, whole.counts)
    assert (total.bin_width, total.origin, total.n_total, total.overflow) == (
        whole.bin_width, whole.origin, whole.n_total, whole.overflow)


@pytest.mark.parametrize("other", [(0.1, 0.0, 2.0), (0.05, 0.05, 1.05), (0.05, 0.0, 1.05)],
                         ids=["bin width", "origin", "bin count"])
def test_histograms_on_different_grids_do_not_add(other):
    with pytest.raises(ValueError, match="different grids"):
        bin_values([0.1], 0.05, 0.0, 1.0) + bin_values([0.1], *other)


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
    f = fidelity(DensityEstimate(centers, np.array([0.5, 0.5]), w), state)
    assert f == pytest.approx(0.8, abs=1e-9)


def test_fidelity_perfect_match():
    state = preset("sq")
    reference = analytic_bins(state, 0.05, -6.0, 6.0)
    assert fidelity(reference, state) == pytest.approx(1.0, abs=1e-8)


def test_fidelity_disjoint_supports():
    state = _two_spike_state(-3.0, 3.0, 0.5)
    centers = np.array([0.025, 0.075])
    f = fidelity(DensityEstimate(centers, np.array([0.5, 0.5]), 0.05), state)
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
    # 2.05 / 0.3 is 6.83 bins, rounded up to 7.
    ref = analytic_bins(preset("vac"), 0.3, -1.0, 1.0 + 0.05)
    assert ref.masses.size == 7
    assert ref.centers[0] == pytest.approx(-0.85) and ref.centers[-1] == pytest.approx(0.95)
    with pytest.raises(ValueError, match="hi must exceed lo"):
        analytic_bins(preset("vac"), 0.3, 1.0, -1.0)


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
