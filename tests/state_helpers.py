"""State constructors, moments and references that only the tests use."""

import math

import numpy as np

from opatomo.hist import DensityEstimate, grid_bins
from opatomo.states import VACUUM_VARIANCE, GaussianComponent, SourceState


def gaussian_1d(std: float, mean_x: float = 0.0, weight: float = 1.0) -> GaussianComponent:
    """Component whose x-marginal is N(mean_x, std^2), for free-form mixtures.

    std below the vacuum level puts the squeezed axis along x, above it along p.
    """
    if std <= 0.0:
        raise ValueError("std must be positive")
    var = std * std
    if var <= VACUUM_VARIANCE:
        g = 0.5 * math.log(VACUUM_VARIANCE / var)
        return GaussianComponent(weight, mean_x=mean_x, squeezing=g, squeeze_angle=0.0)
    g = 0.5 * math.log(var / VACUUM_VARIANCE)
    return GaussianComponent(weight, mean_x=mean_x, squeezing=g, squeeze_angle=0.5 * math.pi)


def marginal_variance(state: SourceState) -> float:
    """Variance of the state's marginal along its measured quadrature."""
    if state.kind == "fock":
        return (2.0 * state.fock_n + 1.0) * VACUUM_VARIANCE
    mu = state.marginal_mean()
    second = sum(
        c.weight * (c.variance_along(state.theta) + c.mean_along(state.theta) ** 2)
        for c in state.components
    )
    return second - mu * mu


def analytic_bins(state: SourceState, bin_width: float, lo: float, hi: float) -> DensityEstimate:
    """The state's exact marginal, binned; the noiseless reference estimate."""
    n_bins, _ = grid_bins(bin_width, lo, hi)
    edges = lo + bin_width * np.arange(n_bins + 1)
    p = state.bin_probabilities(edges)
    return DensityEstimate(centers=0.5 * (edges[:-1] + edges[1:]), masses=p, bin_width=bin_width)
