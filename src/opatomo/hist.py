"""Fixed-grid quadrature histograms and the histogram fidelity metric.

Bins are left-closed right-open with a common width; outcomes outside the
grid are not silently dropped but tallied in an overflow counter, and they
count toward the total when turning counts into relative frequencies (so
overflow mass simply lowers fidelity).

Fidelity between a binned estimate and a state follows the discrete
Bhattacharyya form: F = (sum_i sqrt(nu_i * p_i))^2, where nu_i is the
estimated bin mass and p_i the exact marginal mass in the same bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .chain import write_output
from .states import SourceState

__all__ = [
    "QuadratureHistogram",
    "DensityEstimate",
    "grid_bins",
    "bin_values",
    "fidelity",
    "analytic_point_density",
]


# Largest grid grid_bins sizes; a finer grid is refused, not allocated.
MAX_BINS = 1_000_000


def _check_bin_width(bin_width: float) -> None:
    if not 0.0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be positive and finite (got {bin_width!r})")


def grid_bins(bin_width: float, lo: float, hi: float) -> tuple[int, float]:
    """The bin count and top of the grid of ``bin_width`` bins from ``lo``:
    exactly [lo, hi) when that is a whole number of bins to within 1e-9 of a
    bin, else rounded up to ceil((hi - lo) / bin_width) bins.  A bad width,
    hi <= lo and a grid of more than MAX_BINS bins are refused."""
    _check_bin_width(bin_width)
    if not lo < hi:
        raise ValueError("hi must exceed lo")
    span = (hi - lo) / bin_width
    n_bins, top = (round(span), hi) if span < math.inf else (span, math.inf)
    if span < math.inf and abs(lo + n_bins * bin_width - hi) > 1e-9 * bin_width:
        n_bins = math.ceil(span)
        top = lo + n_bins * bin_width
    if n_bins > MAX_BINS:
        raise ValueError(f"a grid of {n_bins} bins of width {bin_width!r} exceeds the cap of "
                         f"{MAX_BINS} bins; use a wider bin width")
    return n_bins, top


@dataclass(frozen=True)
class QuadratureHistogram:
    """Integer counts on a uniform grid starting at `origin`, and the
    overflow: the values offered to the binning that fell off the grid.

    Their sum is n_total, the number of values offered, and relative
    frequencies are counts / n_total.
    """

    bin_width: float
    origin: float
    counts: np.ndarray
    overflow: int = 0

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        _check_bin_width(self.bin_width)
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        if self.overflow < 0:
            raise ValueError("overflow must be non-negative")

    def __add__(self, other: QuadratureHistogram) -> QuadratureHistogram:
        """The histogram of both value sets, which must be binned on one grid."""
        if not isinstance(other, QuadratureHistogram):
            return NotImplemented
        if (self.bin_width, self.origin, self.n_bins) != (other.bin_width, other.origin,
                                                          other.n_bins):
            raise ValueError("histograms on different grids cannot be added")
        return QuadratureHistogram(self.bin_width, self.origin, self.counts + other.counts,
                                   overflow=self.overflow + other.overflow)

    @property
    def n_total(self) -> int:
        return int(self.counts.sum()) + self.overflow

    @property
    def n_bins(self) -> int:
        return self.counts.size

    @property
    def centers(self) -> np.ndarray:
        return self.origin + self.bin_width * (np.arange(self.n_bins) + 0.5)

    @property
    def masses(self) -> np.ndarray:
        """Relative frequencies nu_i."""
        return self.counts / self.n_total

    def to_csv(self, path):
        rows = "".join(f"{c!r},{m!r}\n" for c, m in zip(self.centers, self.masses))
        write_output(path, [("bin_center,relative_frequency\n" + rows).encode()])


@dataclass(frozen=True)
class DensityEstimate:
    """A non-count binned estimate (reconstruction output, analytic bins)."""

    centers: np.ndarray
    masses: np.ndarray
    bin_width: float

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        if self.centers.shape != self.masses.shape:
            raise ValueError("centers and masses must align")
        _check_bin_width(self.bin_width)

    @property
    def densities(self) -> np.ndarray:
        return self.masses / self.bin_width

    def to_csv(self, path):
        rows = "".join(f"{c!r},{d!r}\n" for c, d in zip(self.centers, self.densities))
        write_output(path, [("bin_center,estimated_density\n" + rows).encode()])


def bin_values(values, bin_width: float, lo: float, hi: float) -> QuadratureHistogram:
    """Histogram `values` on the grid ``grid_bins(bin_width, lo, hi)`` sizes.

    A value lands in bin floor((v - lo) / bin_width); anything outside
    [lo, top) increments the overflow counter instead.
    """
    values = np.asarray(values, dtype=float)
    n_bins, top = grid_bins(bin_width, lo, hi)
    pos = values - lo
    pos /= bin_width
    in_range = pos >= 0
    in_range &= pos < n_bins
    in_range &= values < top
    # Every value off the grid (NaN included) moves to the extra slot n_bins
    # before the cast, so the cast only ever truncates a non-negative
    # in-range position to its floor, and that slot counts the overflow.
    np.copyto(pos, n_bins, where=~in_range)
    counts = np.bincount(pos.astype(np.int64), minlength=n_bins + 1)
    return QuadratureHistogram(
        bin_width=bin_width,
        origin=lo,
        counts=counts[:n_bins],
        overflow=int(counts[n_bins]),
    )


@lru_cache(maxsize=256)
def _bin_probabilities(state: SourceState, edges: bytes) -> np.ndarray:
    """state.bin_probabilities on float64 edge bytes; one call per state and grid."""
    p = state.bin_probabilities(np.frombuffer(edges))
    p.flags.writeable = False
    return p


def fidelity(estimate: QuadratureHistogram | DensityEstimate, state: SourceState) -> float:
    """F = (sum_i sqrt(nu_i p_i))^2 over the estimate's own grid: the
    Bhattacharyya-squared overlap of its masses with the state's marginal."""
    half = 0.5 * estimate.bin_width
    centers = estimate.centers
    edges = np.concatenate((centers - half, centers[-1:] + half))
    p = _bin_probabilities(state, edges.tobytes())
    bc = float(np.sqrt(np.maximum(estimate.masses, 0.0) * p).sum())
    return bc * bc


def analytic_point_density(state: SourceState, bin_width: float) -> DensityEstimate:
    """The state's exact marginal pdf evaluated at bin centers.

    The pdf is not integrated over the bins but sampled pointwise at 241
    bin centers, the middle one on the state's marginal mean.  Parabola fits of peak curvature prefer this reference
    because bin integration flattens the apex and inflates the fitted
    variance.
    """
    centers = state.marginal_mean() + np.arange(-120, 121) * bin_width
    masses = state.marginal_pdf(centers) * bin_width
    return DensityEstimate(centers=centers, masses=masses, bin_width=bin_width)
