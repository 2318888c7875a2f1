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

__all__ = [
    "ConfigError",
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


class ConfigError(ValueError):
    """A parameter failed validation; `field` names the offender."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


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


# -- the normal CDF ----------------------------------------------------------
# A port of Cephes ndtr/erf/erfc: the same rational tables, branch points and
# Horner order, with exp(-x^2) from libm (math.exp, not numpy's vectorised exp,
# which differs in the last bit), so every value equals the compiled Cephes one
# bit for bit (pinned in tests/test_states.py).

_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440


def _horner(x, coef, monic=False):
    """coef[0] x^n + ... + coef[n], with a leading x^(n+1) when monic."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """erf on |x| <= 1."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc on 1 <= x, x^2 <= MAXLOG."""
    e = np.array([math.exp(v) for v in (-x * x).tolist()])
    out = np.empty_like(x)
    for part, p, q in ((x < 8.0, _ERFC_P, _ERFC_Q), (x >= 8.0, _ERFC_R, _ERFC_S)):
        out[part] = e[part] * _horner(x[part], p) / _horner(x[part], q, monic=True)
    return out


def ndtr(a) -> np.ndarray:
    """Standard normal CDF, Phi(a), elementwise."""
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    y = np.where(np.isnan(x), np.nan, 0.0)
    small = z < _SQRT1_2
    y[small] = 0.5 + 0.5 * _erf(x[small])
    mid = (z >= _SQRT1_2) & (z < 1.0)
    y[mid] = 0.5 * (1.0 - _erf(z[mid]))
    # Beyond z^2 > MAXLOG erfc underflows to 0; the clamp keeps z^2 finite.
    tail = (z >= 1.0) & (np.square(np.minimum(z, 64.0)) <= _MAXLOG)
    y[tail] = 0.5 * _erfc(z[tail])
    flip = (x > 0) & ~small
    y[flip] = 1.0 - y[flip]
    return y.reshape(a.shape)


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
    cum = _fock_cdf(n, grid)
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
        # A single component's constants broadcast; a mixture gathers them per shot.
        idx = 0 if len(comps) == 1 else rng.choice(len(comps), size=n,
                                                    p=[c.weight for c in comps])
        z = rng.standard_normal((2, n))

        smin = np.array([math.sqrt(c.min_variance) for c in comps])[idx]
        smax = np.array([math.sqrt(c.max_variance) for c in comps])[idx]
        rel = np.array([c.squeeze_angle - self.theta for c in comps])
        mx = np.array([c.mean_along(self.theta) for c in comps])[idx]
        mp = np.array([c.mean_along(self.theta + 0.5 * math.pi) for c in comps])[idx]

        a = smin * z[0]
        b = smax * z[1]
        # cos and sin of each component's angle, then gathered: one call per
        # component, not per shot.
        c_, s_ = np.cos(rel)[idx], np.sin(rel)[idx]
        return a * c_ - b * s_ + mx, a * s_ + b * c_ + mp


# -- preset catalogue ------------------------------------------------------

# Name -> (description, state).  The states are frozen, so every caller of
# ``preset`` shares one value.
PRESETS: dict[str, tuple[str, SourceState]] = {
    "vac": ("vacuum reference", SourceState.gaussian([GaussianComponent(1.0)], label="vac")),
    "sq": ("squeezed state, g=1",
           SourceState.gaussian([GaussianComponent(1.0, squeezing=1.0)], label="sq")),
    "sq_disp": ("displaced squeezed state, g=1, mean_x=0.2",
                SourceState.gaussian([GaussianComponent(1.0, mean_x=0.2, squeezing=1.0)],
                                     label="sq_disp")),
    "mix": ("50/50 mixture of g=2 and g=1 squeezed states",
            SourceState.gaussian([GaussianComponent(0.5, squeezing=2.0),
                                  GaussianComponent(0.5, squeezing=1.0)], label="mix")),
    "mix_disp": ("the same mixture displaced by +0.2 / -0.2",
                 SourceState.gaussian([GaussianComponent(0.5, mean_x=0.2, squeezing=2.0),
                                       GaussianComponent(0.5, mean_x=-0.2, squeezing=1.0)],
                                      label="mix_disp")),
    "fock1": ("single-photon state", SourceState.fock(1, label="fock1")),
    "fock2": ("two-photon state", SourceState.fock(2, label="fock2")),
    "fock4": ("four-photon state", SourceState.fock(4, label="fock4")),
}


def preset(name: str) -> SourceState:
    try:
        return PRESETS[name][1]
    except KeyError:
        raise ConfigError("state",
                          f"unknown preset {name!r}; known: {', '.join(PRESETS)}") from None
