"""Estimators mapping raw detector outcomes to quadrature histograms.

Four reconstruction routes are provided:

* ``standard_reconstruct`` — assumes the target distribution is symmetric
  about the origin, folds every outcome onto the positive axis and mirrors
  the histogram.
* ``displaced_reconstruct`` — inverts outcomes taken with a displacement
  large enough that the amplified quadrature stays positive, so no
  symmetry assumption is needed.
* ``double_displacement_reconstruct`` — removes the positivity requirement
  by combining two batches taken at different displacements and unfolding
  the sign ambiguity through a non-negative least-squares system.
* ``homodyne_reconstruct`` — affine inversion of homodyne currents.

All estimators invert with the *nominal* chain parameters: the per-shot
fluctuations are physical noise the estimator cannot observe.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .chain import BatchFile, ChainParams, ConfigError, ShotBatch
from .hist import DensityEstimate, QuadratureHistogram, bin_values, grid_bins
from .nnls import solve_nnls

__all__ = [
    "PositivityViolation",
    "DegenerateSupport",
    "InconsistentBinning",
    "fold_displacement",
    "invert_intensity",
    "invert_homodyne",
    "standard_reconstruct",
    "displaced_reconstruct",
    "near_zero_fraction",
    "near_zero_cut",
    "build_fold_matrices",
    "unfold_fold_samples",
    "double_displacement_reconstruct",
    "homodyne_reconstruct",
    "METHODS",
    "check_method",
    "check_positivity",
]

# Each method -> (the detector kind it reads, the number of batches it reads,
# the name of the estimator that reads them).  Callers look the estimator up
# in their own module's bindings, so a wrapper put there sees every call.
METHODS = {"standard": ("intensity", 1, "standard_reconstruct"),
           "displaced": ("intensity", 1, "displaced_reconstruct"),
           "double": ("intensity", 2, "double_displacement_reconstruct"),
           "homodyne": ("homodyne", 1, "homodyne_reconstruct")}

# The single-pass estimators histogram on [-GRID_HALF_WIDTH, GRID_HALF_WIDTH);
# the two-displacement folds |X + d| on [0, GRID_HALF_WIDTH + max|d|); each
# grid is rounded up to whole bins by ``grid_bins``.
GRID_HALF_WIDTH = 6.0

# Largest fraction of outcomes within the near-zero cut of the fold point
# that a single-displacement inversion accepts.
POSITIVITY_THRESHOLD = 0.005

# Multiplier applied to the noise-equivalent quadrature std when deriving
# the near-zero cut.
NEAR_ZERO_SIGMAS = 4.0

# Bins with fewer counts than this are treated as empty when locating the
# edge of the folded support, so a single outlier shot cannot inflate the
# system size.
SUPPORT_MIN_COUNT = 2


class PositivityViolation(RuntimeError):
    """Too much outcome mass near the fold point for a single-displacement
    inversion; a second displaced batch is required."""

    def __init__(self, fraction: float, cut: float, threshold: float):
        self.fraction = fraction
        self.cut = cut
        self.threshold = threshold
        super().__init__(
            f"{fraction:.4f} of outcomes fall within {cut:.4g} of the fold "
            f"point (threshold {threshold:.4g}); use the two-displacement "
            "estimator"
        )


class DegenerateSupport(ValueError):
    """The folded samples carry no usable support beyond the origin bin."""


class InconsistentBinning(ValueError):
    """The two batches of a two-displacement reconstruction cannot share a
    grid (mismatched nominal chain parameters or source states)."""


def check_method(method: str, params: ChainParams, key: str = "method") -> None:
    """Refuse, as ``ConfigError(key, ...)``, a method that cannot read a batch
    taken on ``params``: its detector is not the method's, the method is
    ``standard`` and the displacement is not zero, or the method is
    ``displaced`` and the displacement is negative (it inverts on the
    positive branch only; a zero one is left to ``check_positivity``)."""
    if METHODS[method][0] != params.detector.kind:
        raise ConfigError(key, f"{method} cannot read the {params.detector.kind} detector")
    if method == "standard" and params.displacement != 0.0:
        raise ConfigError(key, "standard needs a batch taken at zero displacement")
    if method == "displaced" and params.displacement < 0.0:
        raise ConfigError(key, "displaced needs a batch taken at a positive displacement "
                               f"(got {params.displacement!r})")


def check_positivity(batch: ShotBatch | BatchFile, fraction: float) -> None:
    """Refuse a batch the single-displacement estimator cannot read.

    ``check_method("displaced", ...)`` refuses first; then, when more than
    POSITIVITY_THRESHOLD of the outcomes fall within the near-zero cut of
    the fold point (``fraction``, the batch's ``near_zero_fraction``), the
    sign branch is ambiguous and a PositivityViolation directs the caller
    to the two-displacement estimator.
    """
    check_method("displaced", batch.params)
    if fraction > POSITIVITY_THRESHOLD:
        raise PositivityViolation(fraction, near_zero_cut(batch.params), POSITIVITY_THRESHOLD)


def _intensity_scale(params: ChainParams) -> float:
    """Nominal photon number per squared input quadrature."""
    return math.exp(2.0 * params.gain) * params.input_transmittance * params.output_transmittance


def near_zero_cut(params: ChainParams) -> float:
    """Fold-coordinate distance below which an outcome's sign is ambiguous.

    Near the fold point the photon number fluctuates by roughly the
    post-amplification noise std, so the inverted coordinate fluctuates by
    the noise-equivalent std sqrt(output_noise / scale); the cut is
    NEAR_ZERO_SIGMAS of it.
    """
    scale = _intensity_scale(params)
    std = math.sqrt(params.output_noise / scale) if params.output_noise > 0.0 else 0.0
    return NEAR_ZERO_SIGMAS * std


def fold_displacement(params: ChainParams) -> float:
    """The applied displacement expressed in input-quadrature units."""
    return params.displacement / (
        math.exp(params.gain) * math.sqrt(params.input_transmittance)
    )


def invert_intensity(outcomes, params: ChainParams) -> np.ndarray:
    """Map photon-number outcomes back to quadrature estimates.

    Negative outcomes (possible through detector noise) clamp the radicand
    to zero rather than being discarded: dropping them would bias exactly
    the near-zero density this estimator cares about.  Inversion uses the
    nominal gain and transmittances.
    """
    scale = _intensity_scale(params)
    # np.maximum allocates the result, so the in-place steps never touch
    # the caller's outcomes.
    estimates = np.maximum(np.asarray(outcomes, dtype=float), 0.0)
    estimates /= scale
    np.sqrt(estimates, out=estimates)
    estimates -= fold_displacement(params)
    return estimates


def invert_homodyne(outcomes, params: ChainParams) -> np.ndarray:
    """Affine inversion of homodyne currents (unbiased by construction)."""
    det = params.detector
    gain_amp = math.exp(params.gain)
    denom = gain_amp * det.lo_amplitude * math.sqrt(
        params.input_transmittance * det.efficiency
    )
    estimates = np.asarray(outcomes, dtype=float) / denom
    estimates -= fold_displacement(params)
    return estimates


def near_zero_fraction(batch: ShotBatch) -> float:
    """Fraction of a batch's fold coordinates below the near-zero cut.

    The fold coordinate sqrt(max(n, 0) / scale) lies below the cut
    NEAR_ZERO_SIGMAS * sqrt(output_noise / scale) exactly when the outcome
    n lies below NEAR_ZERO_SIGMAS**2 * output_noise, so the outcomes are
    compared in outcome units and never inverted.  A zero cut admits none.
    The fraction is the count over the size correctly rounded, so
    ``round(fraction * size)`` recovers the count.
    """
    limit = NEAR_ZERO_SIGMAS**2 * batch.params.output_noise
    if limit == 0.0 or batch.outcomes.size == 0:
        return 0.0
    return np.count_nonzero(batch.outcomes < limit) / batch.outcomes.size


def _bin_in_chunks(batch: ShotBatch | BatchFile, bin_width: float, lo: float, hi: float,
                   shift: float = 0.0) -> QuadratureHistogram:
    """The histogram on ``grid_bins(bin_width, lo, hi)`` of the batch's
    inverted outcomes plus ``shift``, inverted and binned one block at a time.

    ``batch`` is a ShotBatch or a BatchFile; either yields its outcomes in
    blocks of at most BATCH_CHUNK (``blocks()``), and the inversion is its
    detector's.  The blocks' histograms add up exactly to that of the whole
    array, so only one block's estimates are held at a time.
    """
    invert = invert_homodyne if batch.params.detector.kind == "homodyne" else invert_intensity
    total = None
    for block in batch.blocks():
        values = invert(block, batch.params)
        values += shift
        hist = bin_values(values, bin_width, lo, hi)
        total = hist if total is None else total + hist
    return total


def standard_reconstruct(batch: ShotBatch, bin_width: float) -> QuadratureHistogram:
    """Symmetric reconstruction: fold, histogram, mirror.

    Every outcome is mapped to a non-negative quadrature value, histogrammed
    on the half grid from 0 up to ``GRID_HALF_WIDTH`` in whole bins, [0, top),
    and each bin's mass is split equally onto the mirrored pair of bins, so
    the result lives on [-top, top) and is directly comparable with the other
    estimators under the fidelity metric.  Requires an undisplaced batch.
    """
    check_method("standard", batch.params)
    _, top = grid_bins(bin_width, 0.0, GRID_HALF_WIDTH)
    grid_bins(bin_width, -top, top)  # the mirrored grid obeys the bin cap too
    half = _bin_in_chunks(batch, bin_width, 0.0, GRID_HALF_WIDTH)
    counts = np.concatenate([half.counts[::-1], half.counts])
    return QuadratureHistogram(bin_width=bin_width, origin=-top, counts=counts,
                               overflow=2 * half.overflow)


def displaced_reconstruct(batch: ShotBatch, bin_width: float) -> QuadratureHistogram:
    """Single-displacement reconstruction.

    The displacement is already subtracted inside the inversion, so the
    returned histogram lives on the original quadrature axis.  The histogram
    is only trustworthy on a batch that passes ``check_positivity``.
    """
    check_method("displaced", batch.params)
    return _bin_in_chunks(batch, bin_width, -GRID_HALF_WIDTH, GRID_HALF_WIDTH)


def homodyne_reconstruct(batch: ShotBatch, bin_width: float) -> QuadratureHistogram:
    """Histogram of affinely inverted homodyne currents."""
    check_method("homodyne", batch.params)
    return _bin_in_chunks(batch, bin_width, -GRID_HALF_WIDTH, GRID_HALF_WIDTH)


def build_fold_matrices(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold matrices of the two-displacement linear system.

    With the unknown density mass vector f over the 2*n1 bins centered at
    (-n1+1/2)w ... (n1-1/2)w, row i of A accumulates the pair of bins that
    fold onto positive bin i under |x|, and row i of B the pair that folds
    onto bin i under |x + (n2-n1)*w|.  Indices falling outside the grid are
    dropped, so edge rows may hold a single unit entry.
    """
    if n1 < 1 or n2 < n1:
        raise ValueError("fold matrices require 1 <= n1 <= n2")
    return _fold_matrix(n1, 0), _fold_matrix(n1, n2 - n1)


def _fold_matrix(n1: int, delta: int) -> np.ndarray:
    """The (n1 + delta) x 2*n1 matrix folding signed bin k, centered at
    (k - n1 + 1/2)w, onto bin floor(|k - n1 + 1/2 + delta|) of |x + delta*w|."""
    k = np.arange(2 * n1)
    shifted = k - n1 + delta
    fold = np.zeros((n1 + delta, 2 * n1))
    fold[np.where(shifted >= 0, shifted, -shifted - 1), k] = 1.0
    return fold


def _last_supported_bin(counts: np.ndarray) -> int:
    """1-based index of the last bin with a dependable count, 0 if none."""
    supported = np.flatnonzero(counts >= SUPPORT_MIN_COUNT)
    return int(supported[-1]) + 1 if supported.size else 0


def unfold_fold_samples(
    hist_y: QuadratureHistogram, hist_z: QuadratureHistogram, shift: float = 0.0
) -> tuple[DensityEstimate, dict]:
    """Recover a signed-axis density from the histograms of two folded sample sets.

    ``hist_y`` counts magnitudes |X| and ``hist_z`` magnitudes |X + d| of the
    same underlying variable X, for some displacement d > 0, on one positive
    grid with centers (k-1/2)*w; the grid itself fixes the displacement to
    (n2-n1) whole bins.  Samples off the grid are overflow: they count toward
    each histogram's total, so they lower the masses but never size the
    system.  The stacked fold system is solved under non-negativity and the
    recovered masses are returned on centers shifted by ``-shift`` (used by
    callers that moved the coordinate origin before folding).
    """
    w = hist_y.bin_width
    if hist_z.bin_width != w or hist_y.origin != 0.0 or hist_z.origin != 0.0:
        raise ValueError("fold histograms must share one bin width and start at 0")
    if hist_y.n_total == 0 or hist_z.n_total == 0:
        raise DegenerateSupport("empty sample set")
    n_y = _last_supported_bin(hist_y.counts)
    n_z = _last_supported_bin(hist_z.counts)
    if n_y == 0 or n_z == 0:
        raise DegenerateSupport(
            "folded histograms carry no bin with a dependable count"
        )

    flipped = n_y > n_z
    if flipped:
        # Substituting U = -X - d swaps the roles of the two folds, so the
        # narrower sample always supplies the |.| side of the system.
        hist_y, hist_z = hist_z, hist_y
        n_y, n_z = n_z, n_y

    n1, n2 = n_y, n_z
    a, b = build_fold_matrices(n1, n2)
    rhs = np.concatenate([hist_y.masses[:n1], hist_z.masses[:n2]])
    result = solve_nnls(np.vstack([a, b]), rhs)

    centers = (np.arange(1, 2 * n1 + 1) - n1 - 0.5) * w
    masses = result.x
    if flipped:
        # Map back through X = -U - (n2-n1)*w on the grid's own displacement.
        centers = (-centers - (n2 - n1) * w)[::-1]
        masses = masses[::-1]
    estimate = DensityEstimate(
        centers=centers - shift, masses=masses, bin_width=w
    )
    diagnostics = {
        "n1": n1,
        "n2": n2,
        "flipped": flipped,
        "model_displacement": (n2 - n1) * w,
        "nnls_converged": result.converged,
        "nnls_iterations": result.n_iter,
        "residual": result.residual,
    }
    return estimate, diagnostics


def double_displacement_reconstruct(
    batch_a: ShotBatch | BatchFile, batch_b: ShotBatch | BatchFile, bin_width: float
) -> tuple[DensityEstimate, dict]:
    """Two-displacement reconstruction.

    The two batches, each a ShotBatch or a BatchFile, must hold one source
    state and share every nominal chain parameter except the displacement.
    Their fold coordinates realize |X + d1| and |X + d2| in input-quadrature
    units; the coordinate origin is moved by the smaller displacement, the
    fold system is solved for the shifted variable, and the recovered
    centers are displaced back.  Every check here is made before any outcome
    is read.  Then both batches are binned, first ``batch_a`` then
    ``batch_b``, one block at a time, on the grid from 0 up to
    GRID_HALF_WIDTH + max(|d1|, |d2|) in whole bins, which the chain fixes;
    fold coordinates beyond it count as overflow.
    """
    check_method("double", batch_a.params)
    check_method("double", batch_b.params)
    if replace(batch_a.params, displacement=0.0) != replace(batch_b.params, displacement=0.0):
        raise InconsistentBinning(
            "batches disagree on nominal chain parameters and cannot share a grid"
        )
    if batch_a.state_label != batch_b.state_label:
        raise InconsistentBinning(f"batches hold different states ({batch_a.state_label!r} "
                                  f"and {batch_b.state_label!r}) and cannot be unfolded together")
    d_a = fold_displacement(batch_a.params)
    d_b = fold_displacement(batch_b.params)
    if d_b == d_a:
        raise ValueError(
            "double_displacement_reconstruct needs two distinct displacements"
        )
    top = GRID_HALF_WIDTH + max(abs(d_a), abs(d_b))
    grid_bins(bin_width, 0.0, top)  # the bin cap, before any outcome is read
    hist_a = _bin_in_chunks(batch_a, bin_width, 0.0, top, d_a)
    hist_b = _bin_in_chunks(batch_b, bin_width, 0.0, top, d_b)
    if d_b < d_a:
        hist_a, hist_b, d_a = hist_b, hist_a, d_b
    return unfold_fold_samples(hist_a, hist_b, shift=d_a)
