"""Fold histograms of sample arrays, the input ``unfold_fold_samples`` reads,
and the split of the fold system into the blocks it solves as."""

import numpy as np

from opatomo.hist import bin_values
from opatomo.reconstruct import build_fold_matrices


def fold_histograms(y_samples, z_samples, bin_width: float):
    """Both folded sample sets binned on one grid from 0 up to their largest
    sample in whole bins (``grid_bins``); a largest sample that falls on a
    whole number of bins is overflow, as on the estimators' grids."""
    y = np.asarray(y_samples, dtype=float)
    z = np.asarray(z_samples, dtype=float)
    top = max(y.max(initial=0.0), z.max(initial=0.0))
    return bin_values(y, bin_width, 0.0, top), bin_values(z, bin_width, 0.0, top)


def split_fold_system(n1: int, delta: int):
    """``np.vstack(build_fold_matrices(n1, n1 + delta))`` and its components,
    each as (rows holding an entry in its columns, its columns).

    For delta >= 1, column k belongs to component
    min(k mod 2*delta, (2*n1 - 1 - k) mod 2*delta); for delta = 0 the
    components are the mirror pairs {k, 2*n1 - 1 - k}, which is the same
    rule with period 2*n1.
    """
    matrix = np.vstack(build_fold_matrices(n1, n1 + delta))
    k = np.arange(2 * n1)
    period = 2 * delta or 2 * n1
    label = np.minimum(k % period, (2 * n1 - 1 - k) % period)
    columns = [np.flatnonzero(label == c) for c in np.unique(label)]
    return matrix, [(np.flatnonzero(matrix[:, c].any(axis=1)), c) for c in columns]
