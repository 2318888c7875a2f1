"""State constructors and moments that only the tests use."""

import math

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
