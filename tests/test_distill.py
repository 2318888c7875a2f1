import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opatomo.chain import ChainParams, run_batch
from opatomo.distill import (
    DistillError,
    NonPositiveApex,
    NotConcave,
    OutOfRange,
    PEAK_WINDOW,
    ParabolaFit,
    distillable_variance,
    fit_parabola,
    loss_corrected_variance,
    select_peak,
)
from opatomo.hist import DensityEstimate, analytic_point_density
from opatomo.reconstruct import displaced_reconstruct
from opatomo.states import preset


def _density_estimate(masses, bin_width=0.1, first_center=0.0):
    masses = np.asarray(masses, dtype=float)
    centers = first_center + bin_width * np.arange(masses.size)
    return DensityEstimate(centers=centers, masses=masses, bin_width=bin_width)


def _parabola_estimate(a, b, c, bin_width=0.05, lo=-1.0, hi=1.0):
    centers = np.arange(lo, hi + bin_width / 2, bin_width)
    density = c - 0.5 * a * (centers - b) ** 2
    return DensityEstimate(centers=centers, masses=density * bin_width, bin_width=bin_width)


# -- parabola fitting ----------------------------------------------------------------

@pytest.mark.parametrize("m", [3, 5, 9])
def test_fit_recovers_exact_parabola(m):
    a, b, c = 3.7, 0.3, 1.9
    est = _parabola_estimate(a, b, c)
    center_bin = int(np.argmin(np.abs(est.centers - b)))
    fit = fit_parabola(est, center_bin, m)
    assert fit.a == pytest.approx(a, abs=1e-12)
    assert fit.b == pytest.approx(b, abs=1e-12)
    assert fit.c == pytest.approx(c, abs=1e-12)


def test_fit_window_off_apex_recovers_same_parabola():
    a, b, c = 3.7, 0.3, 1.9
    est = _parabola_estimate(a, b, c)
    center_bin = int(np.argmin(np.abs(est.centers - b))) - 2
    fit = fit_parabola(est, center_bin, 5)
    assert fit.a == pytest.approx(a, abs=1e-11)
    assert fit.b == pytest.approx(b, abs=1e-11)
    assert fit.c == pytest.approx(c, abs=1e-11)


def test_fit_rejects_convex_data():
    est = _density_estimate([3.0, 1.0, 3.0])
    with pytest.raises(NotConcave):
        fit_parabola(est, 1, 3)


def test_fit_window_must_stay_inside():
    est = _density_estimate([1.0, 2.0, 1.0, 0.5, 0.2])
    with pytest.raises(OutOfRange):
        fit_parabola(est, 0, 3)
    with pytest.raises(OutOfRange):
        fit_parabola(est, 4, 3)
    with pytest.raises(OutOfRange):
        fit_parabola(est, 2, 7)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_fit_m_must_be_odd_and_at_least_three(m):
    est = _density_estimate([1.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        fit_parabola(est, 1, m)


def test_distillable_variance_arithmetic():
    assert distillable_variance(ParabolaFit(a=1.0, b=0.0, c=2.0)) == 1.0
    with pytest.raises(NonPositiveApex):
        distillable_variance(ParabolaFit(a=1.0, b=0.0, c=0.0))
    with pytest.raises(NonPositiveApex):
        distillable_variance(ParabolaFit(a=1.0, b=0.0, c=-0.2))


def test_parabola_fit_holds_only_the_parabola():
    # The window size and centre bin are the caller's own arguments.
    assert [f.name for f in fields(ParabolaFit)] == ["a", "b", "c"]
    with pytest.raises(TypeError):
        ParabolaFit(a=1.0, b=0.0, c=2.0, m=3, center_bin=0)


# -- peak finding ----------------------------------------------------------------

def _reference_maxima(hist):
    """Every local maximum by the two-step search select_peak replaced, with
    its window of 3 bins, sorted by mass, descending (ties by index)."""
    window = 3
    masses = np.asarray(hist.masses, dtype=float)
    n = masses.size
    maxima = []
    for i in range(n):
        if masses[i] <= 0.0:
            continue
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        if np.any(masses[lo:hi] > masses[i]):
            continue
        if np.any(masses[lo:i] == masses[i]):
            continue
        maxima.append(i)
    maxima.sort(key=lambda i: (-masses[i], i))
    return maxima


def _reference_peak(hist):
    """The second step: re-rank the maxima toward the origin."""
    maxima = _reference_maxima(hist)
    if not maxima:
        raise DistillError("histogram has no local maximum")
    masses = np.asarray(hist.masses, dtype=float)
    centers = np.asarray(hist.centers, dtype=float)
    return min(maxima, key=lambda i: (-masses[i], abs(centers[i]), i))


# Few distinct levels, so zeros, plateaus, equal-mass maxima and non-positive
# histograms are common.
_LEVELS = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 3.0, 0.5, 1e-300, -1.0])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(masses=st.lists(_LEVELS, min_size=1, max_size=24),
       mirrored=st.booleans(), shift=st.integers(-12, 12))
def test_select_peak_matches_the_two_step_search(masses, mirrored, shift):
    # Mirrored centers (-x_i on a grid symmetric about 0) make equal masses
    # tie on |center| too, so the index decides.
    n = len(masses)
    first = -(n - 1) / 2 * 0.1 if mirrored else shift * 0.1
    est = _density_estimate(masses, first_center=first)
    try:
        expected = _reference_peak(est)
    except DistillError:
        with pytest.raises(DistillError):
            select_peak(est)
    else:
        assert select_peak(est) == expected


def test_select_peak_simple_peak():
    assert select_peak(_density_estimate([1.0, 3.0, 1.0])) == 1


def test_select_peak_plateau_reports_leftmost():
    assert select_peak(_density_estimate([1.0, 3.0, 3.0, 1.0])) == 1
    # a plateau to the left of the origin still counts once, at its left end
    assert select_peak(_density_estimate([1.0, 3.0, 3.0, 1.0], first_center=-0.3)) == 1


def test_select_peak_window_spans_three_bins():
    # Equal masses within PEAK_WINDOW steps are one maximum, at the left;
    # one step further apart they are two, and the one at the origin wins.
    assert PEAK_WINDOW == 3
    assert select_peak(_density_estimate([4.0, 0.0, 0.0, 4.0], first_center=-0.3)) == 0
    assert select_peak(_density_estimate([4.0, 0.0, 0.0, 0.0, 4.0], first_center=-0.4)) == 4
    # a lower bin, however close to the origin, never wins
    assert select_peak(_density_estimate([5.0, 0.0, 0.0, 0.0, 4.0], first_center=-0.4)) == 0


def test_select_peak_prefers_origin_then_lower_index():
    est = DensityEstimate(
        centers=np.array([-0.3, -0.2, 0.0, 0.1, 0.2]),
        masses=np.array([4.0, 0.0, 0.0, 0.0, 4.0]),
        bin_width=0.1,
    )
    assert select_peak(est) == 4  # |0.2| < |-0.3|
    sym = DensityEstimate(
        centers=np.array([-0.1, 0.0, 0.1]),
        masses=np.array([4.0, 0.0, 4.0]),
        bin_width=0.1,
    )
    # equidistant from the origin: the lower bin index wins
    assert select_peak(sym) == 0


def test_select_peak_highest_mass_wins():
    est = _density_estimate([0.0, 3.0, 0.0, 4.0, 0.0], first_center=-0.2)
    assert select_peak(est) == 3


def test_select_peak_requires_a_maximum():
    with pytest.raises(DistillError):
        select_peak(_density_estimate([0.0, 0.0]))


def test_select_peak_all_zero_histogram_has_no_maximum():
    with pytest.raises(DistillError):
        select_peak(_density_estimate([0.0, 0.0, 0.0]))


def test_select_peak_requires_positive_mass():
    # a zero bin is never a peak, even when nothing exceeds it
    assert select_peak(_density_estimate([0.0, 0.0, 2.0, 0.0])) == 2
    with pytest.raises(DistillError):
        select_peak(_density_estimate([0.0, -1.0, 0.0]))


# -- analytic references -------------------------------------------------------------

SQ_HALF_VARIANCE = math.exp(-2.0) / 8.0  # squeezed variance in distilled units


def test_squeezed_reference_within_two_percent():
    ref = analytic_point_density(preset("sq"), 0.05)
    fit = fit_parabola(ref, select_peak(ref), 3)
    v_d = distillable_variance(fit)
    assert v_d == pytest.approx(0.01723133459416234, rel=1e-12)
    assert abs(v_d - SQ_HALF_VARIANCE) / SQ_HALF_VARIANCE < 0.02


def test_squeezed_reference_grows_with_fit_size():
    ref = analytic_point_density(preset("sq"), 0.05)
    peak = select_peak(ref)
    frozen = {
        3: 0.01723133459416234,
        5: 0.018320427877341918,
        7: 0.019983578903313124,
        9: 0.02225482873741189,
    }
    values = []
    for m, expected in frozen.items():
        v = distillable_variance(fit_parabola(ref, peak, m))
        assert v == pytest.approx(expected, rel=1e-12)
        values.append(v)
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
    # wider windows overestimate: the curvature flattens away from the apex
    assert values[0] == min(values)


def test_squeezed_reference_error_shrinks_with_bin_width():
    errors = []
    for w in (0.1, 0.05, 0.025):
        ref = analytic_point_density(preset("sq"), w)
        v = distillable_variance(fit_parabola(ref, select_peak(ref), 3))
        errors.append(abs(v - SQ_HALF_VARIANCE) / SQ_HALF_VARIANCE)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.006


def test_variance_is_bitwise_invariant_under_displacement():
    ref = analytic_point_density(preset("sq"), 0.05)
    moved = DensityEstimate(
        centers=ref.centers + 0.731, masses=ref.masses, bin_width=ref.bin_width
    )
    peak = select_peak(ref)
    fit_a = fit_parabola(ref, peak, 5)
    fit_b = fit_parabola(moved, peak, 5)
    assert fit_b.a == fit_a.a
    assert fit_b.c == fit_a.c
    assert fit_b.b == pytest.approx(fit_a.b + 0.731, abs=1e-12)
    assert distillable_variance(fit_b) == distillable_variance(fit_a)


def test_variance_scales_out_power_of_two_mass_factor():
    ref = analytic_point_density(preset("sq"), 0.05)
    scaled = DensityEstimate(
        centers=ref.centers, masses=ref.masses * 2.0**-3, bin_width=ref.bin_width
    )
    peak = select_peak(ref)
    v_ref = distillable_variance(fit_parabola(ref, peak, 3))
    v_scaled = distillable_variance(fit_parabola(scaled, peak, 3))
    assert v_scaled == v_ref


def test_fock_and_mixture_reference_regressions():
    frozen = {
        "fock1": 0.06214576459939015,
        "fock2": 0.04884822007526942,
        "fock4": 0.03909456015498578,
        "mix": 0.0033892821561512993,
    }
    for name, expected in frozen.items():
        ref = analytic_point_density(preset(name), 0.05)
        peak = select_peak(ref)
        v = distillable_variance(fit_parabola(ref, peak, 3))
        assert v == pytest.approx(expected, rel=1e-12), name
    # the mixture's sharpest feature comes from its more strongly squeezed
    # component, not the average of the two
    v_mix = frozen["mix"]
    assert abs(v_mix - math.exp(-4.0) / 8.0) < abs(v_mix - math.exp(-2.0) / 8.0)


def test_fock_peaks_sit_on_the_outer_lobes():
    ref = analytic_point_density(preset("fock2"), 0.05)
    peak = select_peak(ref)
    # the two outer lobes tie in mass; the tie-break picks the negative one
    assert ref.centers[peak] == pytest.approx(-1.1, abs=1e-9)


def test_loss_corrected_variance():
    assert loss_corrected_variance(0.02, 0.95) == pytest.approx(0.01375, abs=1e-15)
    assert loss_corrected_variance(0.02, 1.0) == 0.02


# -- distillation on simulated data ---------------------------------------------------

def test_simulated_peak_sits_near_origin():
    params = ChainParams(displacement=100.0)
    batch = run_batch(preset("sq"), params, 100_000, 13)
    hist = displaced_reconstruct(batch, 0.05)
    peak = select_peak(hist)
    assert abs(hist.centers[peak]) < 2 * hist.bin_width
    masses = hist.masses
    maxima = _reference_maxima(hist)
    dominant = [i for i in maxima if masses[i] > 0.1 * masses[maxima[0]]]
    assert dominant == [peak]


def test_simulated_variance_independent_of_displacement():
    def v_at(d, seed):
        batch = run_batch(preset("sq"), ChainParams(displacement=d), 100_000, seed)
        hist = displaced_reconstruct(batch, 0.05)
        fit = fit_parabola(hist, select_peak(hist), 5)
        return distillable_variance(fit)

    seeds = [101, 102, 103, 104]
    near = np.array([v_at(100.0, s) for s in seeds])
    far = np.array([v_at(1000.0, s) for s in seeds])
    spread = max(near.std(ddof=1), far.std(ddof=1))
    assert abs(near.mean() - far.mean()) < 3.0 * spread + 1e-6
