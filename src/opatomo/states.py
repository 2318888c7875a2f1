"""Input states as seen by a single rotated quadrature.

Everything downstream of the source only ever touches the marginal
distribution of the measured quadrature x_theta and of its conjugate, so a
state is represented by what generates those marginals: a Gaussian mixture
(weights, means, squeezed/anti-squeezed variances, squeeze axis) or a photon
number state. Vacuum quadrature variance is 1/4 throughout, i.e. a squeezed
axis of strength g carries variance e^(-2g)/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy.special import ndtr

__all__ = [
    "VACUUM_VARIANCE",
    "MAX_FOCK",
    "GaussianComponent",
    "SourceState",
    "hermite_functions",
    "preset",
    "PRESETS",
]

VACUUM_VARIANCE = 0.25
MAX_FOCK = 20

# Inverse-CDF sampling uses linear interpolation on this many grid nodes.
_SAMPLE_GRID = 1 << 14


@dataclass(frozen=True)
class GaussianComponent:
    """One Gaussian mixture component in the x-p plane.

    `squeezing` is the strength g >= 0: the variance along the squeezed axis
    is e^(-2g)/4 and e^(+2g)/4 along the orthogonal axis. `squeeze_angle` is
    the direction of the minimum-variance axis.
    """

    weight: float
    mean_x: float = 0.0
    mean_p: float = 0.0
    squeezing: float = 0.0
    squeeze_angle: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"component weight must be in (0, 1], got {self.weight}")
        if self.squeezing < 0.0:
            raise ValueError("squeezing strength must be >= 0; steer the axis with squeeze_angle")
        for name in ("mean_x", "mean_p", "squeeze_angle"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def min_variance(self) -> float:
        return math.exp(-2.0 * self.squeezing) * VACUUM_VARIANCE

    @property
    def max_variance(self) -> float:
        return math.exp(2.0 * self.squeezing) * VACUUM_VARIANCE

    def mean_along(self, theta: float) -> float:
        return self.mean_x * math.cos(theta) + self.mean_p * math.sin(theta)

    def variance_along(self, theta: float) -> float:
        rel = theta - self.squeeze_angle
        c, s = math.cos(rel), math.sin(rel)
        return self.min_variance * c * c + self.max_variance * s * s


def hermite_functions(n_max: int, u: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_0..psi_n_max evaluated at u.

    Three-term recurrence on the normalized functions; stable for the photon
    numbers supported here (far beyond, in fact).
    """
    u = np.asarray(u, dtype=float)
    psi = np.empty((n_max + 1,) + u.shape)
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    if n_max >= 1:
        psi[1] = math.sqrt(2.0) * u * psi[0]
    for k in range(1, n_max):
        psi[k + 1] = math.sqrt(2.0 / (k + 1)) * u * psi[k] - math.sqrt(k / (k + 1)) * psi[k - 1]
    return psi


def _fock_pdf(n: int, x: np.ndarray) -> np.ndarray:
    # Our x is the standard oscillator coordinate shrunk by sqrt(2) (vacuum
    # variance 1/4), hence the argument scaling and the Jacobian.
    u = math.sqrt(2.0) * np.asarray(x, dtype=float)
    psi = hermite_functions(n, u)[n]
    return math.sqrt(2.0) * psi * psi


def _fock_half_width(n: int) -> float:
    return math.sqrt(2.0 * n + 1.0) + 6.0


def _cumulative_quadratic(y: np.ndarray, dx: float) -> np.ndarray:
    """Antiderivative samples of y on a uniform grid, local quadratic rule."""
    inc = np.empty(y.size - 1)
    inc[0] = dx * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    inc[1:] = dx * (-y[:-2] + 8.0 * y[1:-1] + 5.0 * y[2:]) / 12.0
    out = np.empty(y.size)
    out[0] = 0.0
    np.cumsum(np.maximum(inc, 0.0), out=out[1:])
    return out


def _fock_cdf(n: int, x: np.ndarray) -> np.ndarray:
    # Exact.  With u = sqrt(2) x, d/du (psi_{k-1} psi_k) = sqrt(2k) (psi_{k-1}^2 - psi_k^2),
    # and psi_0^2 integrates to Phi(2x), so
    # F_n(x) = Phi(2x) - sum_{k=1..n} psi_{k-1}(u) psi_k(u) / sqrt(2k).
    psi = hermite_functions(n, math.sqrt(2.0) * x)
    weights = 1.0 / np.sqrt(2.0 * np.arange(1, n + 1))
    return ndtr(2.0 * x) - np.tensordot(weights, psi[:-1] * psi[1:], axes=1)


@lru_cache(maxsize=None)
def _fock_sampling_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    half = _fock_half_width(n)
    grid = np.linspace(-half, half, _SAMPLE_GRID)
    cum = _cumulative_quadratic(_fock_pdf(n, grid), grid[1] - grid[0])
    cum /= cum[-1]
    keep = np.concatenate(([True], np.diff(cum) > 0))
    return cum[keep], grid[keep]


@dataclass(frozen=True)
class SourceState:
    """A source preparation plus the measured quadrature angle theta.

    kind is "gaussian" (mixture of GaussianComponent) or "fock" (photon
    number state, whose marginal is theta-invariant).
    """

    kind: str
    components: tuple[GaussianComponent, ...] = ()
    fock_n: int = 0
    theta: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.kind == "gaussian":
            if not self.components:
                raise ValueError("gaussian state needs at least one component")
            total = sum(c.weight for c in self.components)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"component weights must sum to 1, got {total}")
        elif self.kind == "fock":
            if not 0 <= self.fock_n <= MAX_FOCK:
                raise ValueError(f"fock_n must be in [0, {MAX_FOCK}], got {self.fock_n}")
        else:
            raise ValueError(f"unknown state kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def gaussian(components, theta: float = 0.0, label: str = "") -> "SourceState":
        return SourceState(kind="gaussian", components=tuple(components), theta=theta, label=label)

    @staticmethod
    def fock(n: int, theta: float = 0.0, label: str = "") -> "SourceState":
        return SourceState(kind="fock", fock_n=n, theta=theta, label=label)

    # -- marginals ---------------------------------------------------------

    def marginal_pdf(self, x) -> np.ndarray:
        """Density of the measured quadrature at angle theta."""
        x = np.asarray(x, dtype=float)
        if self.kind == "fock":
            return _fock_pdf(self.fock_n, x)
        out = np.zeros_like(x)
        for c in self.components:
            m = c.mean_along(self.theta)
            v = c.variance_along(self.theta)
            out += c.weight * np.exp(-0.5 * (x - m) ** 2 / v) / math.sqrt(2.0 * math.pi * v)
        return out

    def marginal_cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "fock":
            return np.clip(_fock_cdf(self.fock_n, x), 0.0, 1.0)
        out = np.zeros_like(x)
        for c in self.components:
            m = c.mean_along(self.theta)
            sd = math.sqrt(c.variance_along(self.theta))
            out += c.weight * ndtr((x - m) / sd)
        return out

    def bin_probabilities(self, edges: np.ndarray) -> np.ndarray:
        """Exact mass of each [edges[i], edges[i+1]) bin under the marginal."""
        cdf = self.marginal_cdf(np.asarray(edges, dtype=float))
        return np.maximum(np.diff(cdf), 0.0)

    def marginal_mean(self) -> float:
        if self.kind == "fock":
            return 0.0
        return sum(c.weight * c.mean_along(self.theta) for c in self.components)

    # -- sampling ----------------------------------------------------------

    def sample_xp(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw n (x, p) pairs in the measured frame.

        x follows the marginal at theta, p the marginal at theta + pi/2. For
        Gaussian mixtures the pair is drawn jointly (correct covariance); for
        Fock states x and p are drawn independently from the same marginal,
        a product approximation that is exact for each marginal separately.
        """
        if self.kind == "fock":
            cum, grid = _fock_sampling_table(self.fock_n)
            u = rng.random((2, n))
            return np.interp(u[0], cum, grid), np.interp(u[1], cum, grid)

        comps = self.components
        if len(comps) == 1:
            idx = np.zeros(n, dtype=np.intp)
        else:
            idx = rng.choice(len(comps), size=n, p=[c.weight for c in comps])
        z = rng.standard_normal((2, n))

        smin = np.array([math.sqrt(c.min_variance) for c in comps])[idx]
        smax = np.array([math.sqrt(c.max_variance) for c in comps])[idx]
        rel = np.array([c.squeeze_angle - self.theta for c in comps])[idx]
        mx = np.array([c.mean_along(self.theta) for c in comps])[idx]
        mp = np.array([c.mean_along(self.theta + 0.5 * math.pi) for c in comps])[idx]

        a = smin * z[0]
        b = smax * z[1]
        c_, s_ = np.cos(rel), np.sin(rel)
        return a * c_ - b * s_ + mx, a * s_ + b * c_ + mp


# -- preset catalogue ------------------------------------------------------

def _sq() -> SourceState:
    return SourceState.gaussian([GaussianComponent(1.0, squeezing=1.0)], label="sq")


def _sq_disp() -> SourceState:
    return SourceState.gaussian(
        [GaussianComponent(1.0, mean_x=0.2, squeezing=1.0)], label="sq_disp"
    )


def _mix() -> SourceState:
    return SourceState.gaussian(
        [
            GaussianComponent(0.5, squeezing=2.0),
            GaussianComponent(0.5, squeezing=1.0),
        ],
        label="mix",
    )


def _mix_disp() -> SourceState:
    return SourceState.gaussian(
        [
            GaussianComponent(0.5, mean_x=0.2, squeezing=2.0),
            GaussianComponent(0.5, mean_x=-0.2, squeezing=1.0),
        ],
        label="mix_disp",
    )


PRESETS: dict[str, tuple[str, object]] = {
    "vac": ("vacuum reference", lambda: SourceState.gaussian([GaussianComponent(1.0)], label="vac")),
    "sq": ("squeezed state, g=1", _sq),
    "sq_disp": ("displaced squeezed state, g=1, mean_x=0.2", _sq_disp),
    "mix": ("50/50 mixture of g=2 and g=1 squeezed states", _mix),
    "mix_disp": ("the same mixture displaced by +0.2 / -0.2", _mix_disp),
    "fock1": ("single-photon state", lambda: SourceState.fock(1, label="fock1")),
    "fock2": ("two-photon state", lambda: SourceState.fock(2, label="fock2")),
    "fock4": ("four-photon state", lambda: SourceState.fock(4, label="fock4")),
}


def preset(name: str) -> SourceState:
    try:
        return PRESETS[name][1]()
    except KeyError:
        raise KeyError(f"unknown state preset {name!r}; known: {', '.join(PRESETS)}") from None

