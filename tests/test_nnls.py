import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opatomo import nnls
from opatomo.nnls import KKT_RTOL, NnlsResult, solve_nnls


def enumerate_nnls(m: np.ndarray, b: np.ndarray) -> float:
    """Brute-force oracle: best objective over all support patterns."""
    n = m.shape[1]
    best = float(np.linalg.norm(b))  # empty support
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            cols = list(support)
            sol, *_ = np.linalg.lstsq(m[:, cols], b, rcond=None)
            if np.all(sol >= -1e-12):
                x = np.zeros(n)
                x[cols] = np.clip(sol, 0.0, None)
                best = min(best, float(np.linalg.norm(m @ x - b)))
    return best


# -- input validation ------------------------------------------------------------

def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solve_nnls(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        solve_nnls(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        solve_nnls(np.ones((3, 2)), np.ones(2))


def test_validation_rejects_non_finite():
    m = np.ones((2, 2))
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        solve_nnls(m, np.ones(2))
    with pytest.raises(ValueError):
        solve_nnls(np.ones((2, 2)), np.array([1.0, np.inf]))


# -- solve_nnls ------------------------------------------------------------------

def test_nnls_identity_positive():
    result = solve_nnls(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(result.x, [1, 2, 3], atol=1e-10)
    assert result.converged


def test_nnls_clips_negative_component():
    result = solve_nnls(np.eye(2), np.array([1.0, -1.0]))
    assert np.allclose(result.x, [1.0, 0.0], atol=1e-12)
    assert result.residual == pytest.approx(1.0, rel=1e-12)


def test_nnls_degenerate_face():
    result = solve_nnls(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert result.residual == pytest.approx(0.0, abs=1e-10)
    assert np.all(result.x >= 0.0)
    assert result.converged


def test_nnls_zero_matrix_returns_zero():
    result = solve_nnls(np.zeros((3, 2)), np.ones(3))
    assert np.allclose(result.x, 0.0)
    assert result.converged


def test_nnls_matches_enumeration_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        m = rng.normal(size=(8, 5))
        b = rng.normal(size=8)
        result = solve_nnls(m, b)
        assert result.converged
        assert result.residual <= enumerate_nnls(m, b) + 1e-8


def test_nnls_kkt_conditions_hold():
    rng = np.random.default_rng(29)
    for _ in range(100):
        rows = int(rng.integers(3, 12))
        cols = int(rng.integers(1, 8))
        m = rng.normal(size=(rows, cols))
        b = rng.normal(size=rows)
        result = solve_nnls(m, b)
        tol = KKT_RTOL * float(np.max(np.abs(m.T @ b), initial=0.0)) + 1e-12
        w = m.T @ (b - m @ result.x)
        clamped = result.x == 0.0
        assert np.all(w[clamped] <= tol)
        assert np.all(np.abs(w[~clamped]) <= 100 * tol + 1e-8)


def test_nnls_never_beaten_by_clipped_ls():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = rng.normal(size=(7, 4))
        b = rng.normal(size=7)
        result = solve_nnls(m, b)
        x_ls = np.linalg.lstsq(m, b, rcond=None)[0]
        clipped = np.clip(x_ls, 0.0, None)
        assert result.residual <= float(np.linalg.norm(m @ clipped - b)) + 1e-12


def test_nnls_row_permutation_invariant():
    rng = np.random.default_rng(37)
    m = rng.normal(size=(9, 4))
    b = rng.normal(size=9)
    base = solve_nnls(m, b)
    perm = rng.permutation(9)
    permuted = solve_nnls(m[perm], b[perm])
    assert np.allclose(base.x, permuted.x, atol=1e-8)


def test_nnls_iteration_cap(monkeypatch):
    monkeypatch.setattr(nnls, "MAX_ITER_PER_COLUMN", 0)
    result = solve_nnls(np.eye(2), np.array([1.0, 1.0]))
    assert not result.converged
    assert np.allclose(result.x, 0.0)
    assert result.n_iter == 0


def test_nnls_result_is_frozen():
    result = solve_nnls(np.eye(1), np.array([1.0]))
    assert isinstance(result, NnlsResult)
    with pytest.raises(AttributeError):
        result.residual = 0.0


def test_nnls_nonnegative_rhs_fold_system_exact():
    # A small fold-style stacked system with an exactly representable
    # non-negative solution is recovered with zero residual.
    a = np.array([[0, 1, 1, 0], [1, 0, 0, 1]], dtype=float)
    f = np.array([0.1, 0.2, 0.3, 0.4])
    result = solve_nnls(a, a @ f)
    assert result.residual == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=7), st.integers())
def test_nnls_solution_nonnegative_and_converges(cols, rows, seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    m = rng.normal(size=(rows, cols))
    b = rng.normal(size=rows)
    result = solve_nnls(m, b)
    assert np.all(result.x >= 0.0)
    assert result.residual >= 0.0
    assert result.converged
