"""Fold histograms of sample arrays, the input ``unfold_fold_samples`` reads."""

import math

import numpy as np

from opatomo.hist import bin_values


def fold_histograms(y_samples, z_samples, bin_width: float):
    """Both folded sample sets binned on one grid [0, extent), whose last bin
    holds the largest sample."""
    y = np.asarray(y_samples, dtype=float)
    z = np.asarray(z_samples, dtype=float)
    top = max(y.max(initial=0.0), z.max(initial=0.0))
    extent = bin_width * (math.floor(top / bin_width) + 1)
    return bin_values(y, bin_width, 0.0, extent), bin_values(z, bin_width, 0.0, extent)
