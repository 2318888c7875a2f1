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

# The iteration cap is this many least-squares solves per column of M.
MAX_ITER_PER_COLUMN = 10


@dataclass(frozen=True)
class NnlsResult:
    """Outcome of a non-negative least-squares solve.

    ``x`` is the coefficient vector (all entries >= 0), ``residual`` the
    Euclidean norm of ``M x - b``, ``converged`` whether the KKT conditions
    hold at that ``x``, and ``n_iter`` the number of least-squares solves.
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

    Lawson-Hanson active-set iteration, one least-squares solve per pass.
    ``converged`` says the KKT conditions hold at the returned x up to
    ``KKT_RTOL * max|M^T b|``: every free coordinate's gradient component
    is within it of zero, and no clamped coordinate's negative gradient
    exceeds it.  Ties for the entering index break toward the lowest index,
    which keeps the iteration deterministic across platforms.

    At the iteration cap, ``MAX_ITER_PER_COLUMN * n_columns`` solves, the
    last iterate is returned and ``converged`` is decided at it alike.

    Each passive-set least-squares solve is ``_lstsq``'s Householder QR.
    """
    m, b = _validate_system(matrix, rhs)
    n_cols = m.shape[1]
    max_iter = MAX_ITER_PER_COLUMN * n_cols

    x = np.zeros(n_cols)
    passive = np.zeros(n_cols, dtype=bool)
    tol = KKT_RTOL * float(np.max(np.abs(m.T @ b), initial=0.0))

    n_iter = 0
    optimal = True  # x is the least-squares point of its passive set
    while n_iter < max_iter:
        if optimal:
            # Negative gradient at x; argmax over the candidates, where numpy
            # returns the first (lowest) index among ties.
            w = m.T @ (b - m @ x)
            candidates = ~passive & (w > tol)
            if not candidates.any():
                break
            passive[int(np.argmax(np.where(candidates, w, -np.inf)))] = True
        n_iter += 1
        cols = np.flatnonzero(passive)
        z = np.zeros(n_cols)
        z[cols] = _lstsq(m[:, cols], b)
        optimal = bool(np.all(z[cols] > 0.0))
        if optimal:
            x = z
            continue
        # Step toward z only as far as the first coordinate to hit zero, then
        # drop every coordinate that reached the boundary.
        blocking = cols[z[cols] <= 0.0]
        alpha = float(np.min(x[blocking] / (x[blocking] - z[blocking])))
        x = x + alpha * (z - x)
        at_zero = passive & (x <= tol * max(1.0, float(np.max(np.abs(x)))))
        x[at_zero] = 0.0
        passive[at_zero] = False

    # The one convergence test, at the returned x: the KKT conditions.
    r = m @ x - b
    w = m.T @ -r
    converged = not np.any(np.where(passive, np.abs(w), w) > tol)
    residual = math.sqrt(float(r @ r))
    return NnlsResult(x=x, residual=residual, converged=converged, n_iter=n_iter)
