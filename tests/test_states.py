import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from opatomo.hist import bin_values, fidelity
from opatomo.states import (
    MAX_FOCK,
    VACUUM_VARIANCE,
    GaussianComponent,
    PRESETS,
    SourceState,
    hermite_functions,
    preset,
)
from opatomo.streams import stream
from state_helpers import gaussian_1d, marginal_variance

CATALOG = tuple(PRESETS)


# -- frozen point oracles ----------------------------------------------------

def test_vacuum_pdf_at_origin():
    # Normalizing exp(-2 x^2) under the Var=1/4 convention gives sqrt(2/pi).
    vac = preset("vac")
    assert math.isclose(float(vac.marginal_pdf(0.0)), 0.7978845608028654, rel_tol=1e-12)


def test_fock1_pdf_vanishes_at_origin():
    assert float(preset("fock1").marginal_pdf(0.0)) == pytest.approx(0.0, abs=1e-300)


def test_fock2_variance_formula_and_integral():
    st2 = preset("fock2")
    assert marginal_variance(st2) == pytest.approx(1.25, rel=1e-12)
    # Independent oracle: numeric second moment of the pdf.
    second, _ = quad(lambda x: x * x * float(st2.marginal_pdf(x)), -9, 9, limit=200)
    assert second == pytest.approx(1.25, abs=1e-7)


def test_squeezed_cdf_one_sigma_point():
    sq = preset("sq")
    # std = e^(-1)/2, so x = e^(-1)/2 is one sigma: Phi(1).
    x = math.exp(-1.0) / 2.0
    assert float(sq.marginal_cdf(x)) == pytest.approx(0.8413447460685429, abs=1e-9)


def test_symmetric_states_cdf_half_at_origin():
    for name in ("vac", "sq", "mix", "fock1", "fock2", "fock4"):
        assert float(preset(name).marginal_cdf(0.0)) == pytest.approx(0.5, abs=1e-7), name


def test_fock_cdf_limits():
    f1 = preset("fock1")
    assert float(f1.marginal_cdf(50.0)) == pytest.approx(1.0, abs=1e-12)
    assert float(f1.marginal_cdf(-50.0)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, MAX_FOCK])
def test_fock_cdf_matches_quadrature_of_pdf(n):
    # Each point integrates its shorter tail, where quad meets 1e-15.
    state = SourceState.fock(n)
    for x in np.linspace(-7.0, 7.0, 57):
        cdf = float(state.marginal_cdf(x))
        if x <= 0.0:
            tail, _ = quad(lambda t: float(state.marginal_pdf(t)), -np.inf, x, epsabs=1e-15)
            assert abs(cdf - tail) <= 1e-13, x
        else:
            tail, _ = quad(lambda t: float(state.marginal_pdf(t)), x, np.inf, epsabs=1e-15)
            assert abs(1.0 - cdf - tail) <= 1e-13, x


# -- normalization and cdf/pdf consistency -----------------------------------

@pytest.mark.parametrize("name", CATALOG)
def test_pdf_normalized(name):
    state = preset(name)
    total, _ = quad(lambda x: float(state.marginal_pdf(x)), -12, 12, limit=300)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ["sq", "mix_disp", "fock2"])
def test_cdf_is_antiderivative_of_pdf(name):
    state = preset(name)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-4.0, 4.0, size=100)
    for x in xs:
        integral, _ = quad(lambda t: float(state.marginal_pdf(t)), -12.0, float(x), limit=300)
        assert float(state.marginal_cdf(x)) == pytest.approx(integral, abs=1e-7)


def test_cdf_monotone():
    xs = np.linspace(-8, 8, 400)
    for name in CATALOG:
        cdf = preset(name).marginal_cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12), name


def test_bin_probabilities_match_cdf_difference():
    sq = preset("sq")
    edges = np.linspace(-2, 2, 41)
    p = sq.bin_probabilities(edges)
    direct = np.diff(sq.marginal_cdf(edges))
    assert np.allclose(p, direct, atol=1e-15)
    assert np.all(p >= 0)


def test_fock_marginal_theta_invariant():
    xs = np.linspace(-4, 4, 50)
    base = SourceState.fock(2, theta=0.0).marginal_pdf(xs)
    for theta in (0.7, math.pi / 2):
        rotated = SourceState.fock(2, theta=theta).marginal_pdf(xs)
        assert np.allclose(base, rotated, atol=1e-14)


# -- sampling ----------------------------------------------------------------

def test_vacuum_sampling_variance():
    x, p = preset("vac").sample_xp(1_000_000, stream(11, 0))
    assert float(np.var(x)) == pytest.approx(0.25, abs=2e-3)
    assert float(np.var(p)) == pytest.approx(0.25, abs=2e-3)


def test_fock1_sampling_moments():
    x, _ = preset("fock1").sample_xp(1_000_000, stream(12, 0))
    assert abs(float(np.mean(x))) < 3e-3
    assert float(np.var(x)) == pytest.approx(0.75, abs=5e-3)


def test_squeezed_sampling_ellipse():
    state = preset("sq")
    x, p = state.sample_xp(1_000_000, stream(13, 0))
    assert float(np.var(x)) == pytest.approx(math.exp(-2) / 4, rel=0.02)
    assert float(np.var(p)) == pytest.approx(math.exp(2) / 4, rel=0.02)


def test_rotated_measurement_angle():
    # Measuring the squeezed state at theta = pi/2 swaps the variances.
    comp = GaussianComponent(1.0, squeezing=1.0)
    state = SourceState.gaussian([comp], theta=math.pi / 2)
    x, p = state.sample_xp(500_000, stream(14, 0))
    assert float(np.var(x)) == pytest.approx(math.exp(2) / 4, rel=0.03)
    assert float(np.var(p)) == pytest.approx(math.exp(-2) / 4, rel=0.03)


@pytest.mark.parametrize("name", CATALOG)
def test_sampling_matches_marginal_by_fidelity(name):
    state = preset(name)
    x, _ = state.sample_xp(1_000_000, stream(15, 0))
    hist = bin_values(x, 0.05, -6.0, 6.0)
    assert fidelity(hist, state) >= 0.999


def test_mixture_component_selection():
    state = preset("mix_disp")
    x, _ = state.sample_xp(400_000, stream(16, 0))
    # Mixture mean is zero by symmetry of the +-0.2 displacements.
    assert abs(float(np.mean(x))) < 5e-3
    assert float(np.var(x)) == pytest.approx(marginal_variance(state), rel=0.02)


# -- hermite machinery -------------------------------------------------------

def test_hermite_functions_orthonormal():
    u = np.linspace(-14, 14, 20_001)
    psi = hermite_functions(8, u)
    du = u[1] - u[0]
    gram = psi @ psi.T * du
    assert np.allclose(gram, np.eye(9), atol=1e-7)


def test_hermite_stable_at_max_fock():
    u = np.linspace(-12, 12, 4001)
    psi = hermite_functions(MAX_FOCK, u)
    assert np.all(np.isfinite(psi))
    norm = float(np.trapezoid(psi[MAX_FOCK] ** 2, u))
    assert norm == pytest.approx(1.0, abs=1e-6)


# -- validation and constructors ---------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        SourceState.gaussian([GaussianComponent(0.5), GaussianComponent(0.4)])


def test_component_weight_range():
    with pytest.raises(ValueError):
        GaussianComponent(0.0)
    with pytest.raises(ValueError):
        GaussianComponent(1.5)


def test_negative_squeezing_rejected():
    with pytest.raises(ValueError):
        GaussianComponent(1.0, squeezing=-0.1)


def test_fock_bounds():
    with pytest.raises(ValueError):
        SourceState.fock(MAX_FOCK + 1)
    with pytest.raises(ValueError):
        SourceState.fock(-1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        SourceState(kind="wigner")


def test_unknown_preset():
    with pytest.raises(KeyError):
        preset("nope")


def test_gaussian_1d_builds_requested_variance():
    for std in (0.1, 0.5, 1.3):
        comp = gaussian_1d(std, mean_x=0.4)
        assert comp.variance_along(0.0) == pytest.approx(std * std, rel=1e-12)
        assert comp.mean_along(0.0) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        gaussian_1d(0.0)


def test_variance_along_extremes():
    comp = GaussianComponent(1.0, squeezing=1.0, squeeze_angle=0.3)
    assert comp.variance_along(0.3) == pytest.approx(math.exp(-2) * VACUUM_VARIANCE)
    assert comp.variance_along(0.3 + math.pi / 2) == pytest.approx(math.exp(2) * VACUUM_VARIANCE)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.05, max_value=2.0),
            st.floats(min_value=-2.0, max_value=2.0),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_mixture_moments_close_under_weighting(parts):
    n = len(parts)
    comps = [gaussian_1d(std, mean_x=m, weight=1.0 / n) for std, m in parts]
    state = SourceState.gaussian(comps)
    mean = sum((m for _, m in parts)) / n
    second = sum((std * std + m * m) for std, m in parts) / n
    assert state.marginal_mean() == pytest.approx(mean, abs=1e-12)
    assert marginal_variance(state) == pytest.approx(second - mean * mean, abs=1e-12)
