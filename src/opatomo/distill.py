"""Distillable-squeezing diagnostics on reconstructed histograms.

A local maximum of the quadrature density is fitted with a concave
parabola over an odd number of consecutive bins; the apex density and the
curvature magnitude combine into the distillable variance

    V_d = c / (2 a),        a = |second derivative at the apex|,

which for a Gaussian density of variance sigma^2 tends to sigma^2 / 2 as
the grid refines.  Working in bin-local coordinates makes the fit exactly
invariant under histogram displacement: shifting every bin center moves
the apex location but leaves a, c, and hence V_d bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import VACUUM_VARIANCE

__all__ = [
    "DistillError",
    "NotConcave",
    "NonPositiveApex",
    "OutOfRange",
    "ParabolaFit",
    "select_peak",
    "fit_parabola",
    "distillable_variance",
    "loss_corrected_variance",
]

# A peak dominates every bin within this many steps on either side.
PEAK_WINDOW = 3


class DistillError(ValueError):
    """Base class for distillation failures."""


class NotConcave(DistillError):
    """The fitted quadratic opens upward; widen m or pick another maximum."""


class NonPositiveApex(DistillError):
    """The fitted apex density is not positive."""


class OutOfRange(DistillError):
    """The requested fit window leaves the histogram range."""


@dataclass(frozen=True)
class ParabolaFit:
    """Concave parabola p(x) = c - (a/2) (x - b)^2 fitted to density points.

    ``a`` is the curvature magnitude |p''(b)| > 0, ``b`` the apex location
    and ``c`` the apex density.
    """

    a: float
    b: float
    c: float


def select_peak(hist) -> int:
    """The distillation target: the local maximum of highest mass, ties
    resolved toward the bin center closest to the origin (sub-Planck
    structures near the origin are the quantity of interest), then toward
    the lower index.

    A local maximum is a bin of positive mass that no bin within PEAK_WINDOW
    steps exceeds and no earlier bin in that window equals, so a plateau
    counts once, at its left end.  Nothing exceeds a bin of the top mass, so
    the highest local maxima are the bins of the top mass that lie more than
    PEAK_WINDOW steps after the previous such bin, and only they compete.
    """
    masses = np.asarray(hist.masses, dtype=float)
    top = masses.max(initial=0.0)
    if not top > 0.0:
        raise DistillError("histogram has no local maximum")
    tops = np.flatnonzero(masses == top)
    tops = tops[np.diff(tops, prepend=-PEAK_WINDOW - 1) > PEAK_WINDOW]
    centers = np.asarray(hist.centers, dtype=float)
    return int(min(tops, key=lambda i: (abs(centers[i]), i)))


def fit_parabola(hist, center_bin: int, m: int) -> ParabolaFit:
    """Least-squares quadratic through ``m`` bins centered on ``center_bin``.

    The fit runs over density values (mass / bin width) against bin-center
    offsets from the central bin, selected symmetrically (m odd).  The
    symmetric window makes the odd/even moments decouple, so the normal
    equations reduce to two closed-form 1-D solves.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError("m must be an odd integer >= 3")
    masses = np.asarray(hist.masses, dtype=float)
    half = m // 2
    if center_bin - half < 0 or center_bin + half >= masses.size:
        raise OutOfRange(
            f"fit window [{center_bin - half}, {center_bin + half}] leaves "
            f"the histogram range [0, {masses.size - 1}]"
        )
    w = float(hist.bin_width)
    offsets = np.arange(-half, half + 1) * w
    density = masses[center_bin - half : center_bin + half + 1] / w

    s2 = float(np.sum(offsets**2))
    s4 = float(np.sum(offsets**4))
    sy = float(np.sum(density))
    s1y = float(np.sum(offsets * density))
    s2y = float(np.sum(offsets**2 * density))
    det = m * s4 - s2 * s2
    q2 = (m * s2y - s2 * sy) / det
    q0 = (s4 * sy - s2 * s2y) / det
    q1 = s1y / s2

    a = -2.0 * q2
    if a <= 0.0:
        raise NotConcave(f"fitted quadratic is not concave (a = {a:.3g})")
    apex_offset = q1 / a
    c = q0 + 0.5 * q1 * apex_offset
    centers = np.asarray(hist.centers, dtype=float)
    return ParabolaFit(a=a, b=float(centers[center_bin] + apex_offset), c=c)


def distillable_variance(fit: ParabolaFit) -> float:
    """V_d = c / (2a); requires a positive apex density."""
    if fit.c <= 0.0:
        raise NonPositiveApex(f"apex density is not positive (c = {fit.c:.3g})")
    return fit.c / (2.0 * fit.a)


def loss_corrected_variance(v_d: float, input_transmittance: float) -> float:
    """Compensate the incoupling loss by variance additivity.

    The admixed vacuum contributes (1 - alpha_in) of the vacuum variance,
    which appears halved in distilled units just as a Gaussian input's
    variance does.  Experimental: the principle is variance additivity,
    the distilled-unit scaling mirrors the V_d convention.
    """
    return v_d - (1.0 - input_transmittance) * (VACUUM_VARIANCE / 2.0)
