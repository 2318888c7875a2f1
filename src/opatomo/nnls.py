"""Dense non-negative least-squares solver.

The unfolding step of the two-displacement estimator produces small, dense,
well-structured systems (a few hundred unknowns at most).  An exact
active-set method terminates in finitely many steps on such systems and
avoids the tolerance tuning an iterative projected-gradient scheme would
need, so that is what ``solve_nnls`` implements.

Matrices are plain ``numpy.ndarray`` objects in row-major layout.  The
least-squares subproblems are solved by ``_lstsq``, a Householder QR in plain
numpy that calls no LAPACK routine: numpy's first ``lstsq`` call maps about
1.1 MiB of LAPACK pages that stay resident for the rest of the process.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "NnlsResult",
    "solve_nnls",
]

# Relative KKT tolerance: a coordinate counts as optimal when its gradient
# component is within this factor of the largest entry of M^T b.
KKT_RTOL = 1e-8

# The iteration cap is this many active-set changes per column of M.
MAX_ITER_PER_COLUMN = 10


@dataclass(frozen=True)
class NnlsResult:
    """Outcome of a non-negative least-squares solve.

    ``x`` is the coefficient vector (all entries >= 0), ``residual`` the
    Euclidean norm of ``M x - b``, ``converged`` whether the KKT conditions
    were met before the iteration cap, and ``n_iter`` the number of
    active-set changes performed.
    """

    x: np.ndarray
    residual: float
    converged: bool
    n_iter: int


def _validate_system(matrix, rhs) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    if b.ndim != 1:
        raise ValueError(f"right-hand side must be 1-D, got shape {b.shape}")
    if m.shape[0] != b.shape[0]:
        raise ValueError(
            f"incompatible shapes: matrix {m.shape} vs rhs {b.shape}"
        )
    if not np.all(np.isfinite(m)) or not np.all(np.isfinite(b)):
        raise ValueError("matrix and rhs entries must be finite")
    return m, b


def _lstsq(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The x minimising ||M x - b|| for M of full column rank (rows >= columns).

    Householder QR without pivoting: column j's reflector zeroes its entries
    below the diagonal in the rest of M and is applied to b alongside, and
    back substitution solves R x = Q^T b.  Lawson-Hanson keeps its passive
    columns linearly independent, so ``solve_nnls`` only asks for such
    systems.
    """
    r = matrix.copy()
    qtb = rhs.copy()
    n_cols = r.shape[1]
    for j in range(n_cols):
        v = r[j:, j].copy()
        v[0] += math.copysign(math.sqrt(float(v @ v)), v[0])
        scale = 2.0 / float(v @ v)
        r[j:, j:] -= np.multiply.outer(v, scale * (v @ r[j:, j:]))
        qtb[j:] -= (scale * float(v @ qtb[j:])) * v
    x = np.zeros(n_cols)
    for i in range(n_cols - 1, -1, -1):
        x[i] = (qtb[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x


def solve_nnls(matrix, rhs) -> NnlsResult:
    """Non-negative least squares: minimize ||M x - b|| subject to x >= 0.

    Lawson-Hanson active-set iteration.  At the returned point the KKT
    conditions hold up to ``KKT_RTOL * max|M^T b|``: clamped coordinates
    have non-negative gradient components, free coordinates have (near)
    zero ones.  Ties for the entering index break toward the lowest index,
    which keeps the iteration deterministic across platforms.

    When the iteration cap, ``MAX_ITER_PER_COLUMN * n_columns``, is reached
    first, the last iterate is returned with ``converged=False``.

    Each passive-set least-squares solve is ``_lstsq``'s Householder QR.
    """
    m, b = _validate_system(matrix, rhs)
    n_cols = m.shape[1]
    max_iter = MAX_ITER_PER_COLUMN * n_cols

    x = np.zeros(n_cols)
    passive = np.zeros(n_cols, dtype=bool)
    tol = KKT_RTOL * float(np.max(np.abs(m.T @ b), initial=0.0))

    n_iter = 0
    while True:
        # Negative gradient at the current iterate: the only optimality test.
        w = m.T @ (b - m @ x)
        candidates = ~passive & (w > tol)
        if not candidates.any() or n_iter >= max_iter:
            break
        # argmax over candidates; numpy returns the first (lowest) index
        # among ties.
        scores = np.where(candidates, w, -np.inf)
        passive[int(np.argmax(scores))] = True

        while n_iter < max_iter:
            n_iter += 1
            cols = np.flatnonzero(passive)
            z = np.zeros(n_cols)
            z[cols] = _lstsq(m[:, cols], b)
            if np.all(z[cols] > 0.0):
                x = z
                break
            # Step toward z only as far as the first coordinate to hit zero,
            # then drop every coordinate that reached the boundary.
            blocking = cols[z[cols] <= 0.0]
            ratios = x[blocking] / (x[blocking] - z[blocking])
            alpha = float(np.min(ratios))
            x = x + alpha * (z - x)
            at_zero = passive & (x <= tol * max(1.0, float(np.max(np.abs(x)))))
            x[at_zero] = 0.0
            passive[at_zero] = False

    converged = not candidates.any()
    r = m @ x - b
    residual = math.sqrt(float(r @ r))
    return NnlsResult(x=x, residual=residual, converged=converged, n_iter=n_iter)
