"""Fold histograms of sample arrays, the input ``unfold_fold_samples`` reads."""

import numpy as np

from opatomo.hist import bin_values


def fold_histograms(y_samples, z_samples, bin_width: float):
    """Both folded sample sets binned on one grid from 0 up to their largest
    sample in whole bins (``grid_bins``); a largest sample that falls on a
    whole number of bins is overflow, as on the estimators' grids."""
    y = np.asarray(y_samples, dtype=float)
    z = np.asarray(z_samples, dtype=float)
    top = max(y.max(initial=0.0), z.max(initial=0.0))
    return bin_values(y, bin_width, 0.0, top), bin_values(z, bin_width, 0.0, top)
