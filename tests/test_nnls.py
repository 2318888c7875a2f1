import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opatomo import nnls
from opatomo.nnls import KKT_RTOL, NnlsResult, solve_nnls
from opatomo.reconstruct import build_fold_matrices


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


def test_nnls_optimum_reached_at_the_cap_is_converged(monkeypatch):
    # Two entering steps meet a cap of two: the optimality test at the top of
    # the loop still runs once more, and finds no candidate.
    monkeypatch.setattr(nnls, "MAX_ITER_PER_COLUMN", 1)
    result = solve_nnls(np.eye(2), np.array([1.0, 1.0]))
    assert result.converged
    assert result.n_iter == 2
    assert result.x.tolist() == [1.0, 1.0]


def test_nnls_cap_before_the_optimum_returns_the_last_iterate(monkeypatch):
    # Column 0 enters first; adding column 1 drives it negative, so it drops
    # and the re-solve on column 1 alone (x1 = c1 . b = 1.22) is the third
    # change, which meets a cap of three while column 2 still has to enter.
    m = np.array([[2.0, 0.6, 0.0], [0.0, 0.8, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([0.7, 1.0, 0.5])
    full = solve_nnls(m, b)
    assert full.converged and full.n_iter == 4
    assert np.allclose(full.x, [0.0, 1.22, 0.5], rtol=0, atol=1e-15)
    monkeypatch.setattr(nnls, "MAX_ITER_PER_COLUMN", 1)
    capped = solve_nnls(m, b)
    assert not capped.converged
    assert capped.n_iter == 3
    assert np.allclose(capped.x, [0.0, 1.22, 0.0], rtol=0, atol=1e-15)
    assert capped.residual == pytest.approx(float(np.linalg.norm(m @ capped.x - b)), rel=1e-12)


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


def kkt_holds(m: np.ndarray, b: np.ndarray, x: np.ndarray) -> bool:
    """Whether every free coordinate's gradient is within the KKT tolerance
    of zero and no clamped coordinate's negative gradient exceeds it."""
    tol = KKT_RTOL * float(np.max(np.abs(m.T @ b), initial=0.0))
    w = m.T @ (b - m @ x)
    free = x > 0.0
    return bool(np.all(np.abs(w[free]) <= tol) and np.all(w[~free] <= tol))


def seeded_system(kind: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A dense Gaussian, a small-integer or a stacked fold system, drawn from
    ``seed``; the fold system's right-hand side has entries of either sign."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        rows, cols = rng.integers(1, 13), rng.integers(1, 9)
        return rng.normal(size=(rows, cols)), rng.normal(size=rows)
    if kind == "integer":
        rows, cols = rng.integers(1, 9), rng.integers(1, 7)
        return (rng.integers(-3, 4, size=(rows, cols)).astype(float),
                rng.integers(-3, 4, size=rows).astype(float))
    m = np.vstack(build_fold_matrices(n1 := int(rng.integers(1, 31)),
                                      n1 + int(rng.integers(0, 31))))
    return m, rng.random(m.shape[0]) - 0.2 * rng.random()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(["dense", "integer", "fold"]), st.sampled_from([1, 2, 10]),
       st.integers(min_value=0, max_value=2**32 - 1))
# Capped solves whose last step leaves a free coordinate's gradient above
# the tolerance.
@example(kind="dense", per_column=1, seed=236)
@example(kind="integer", per_column=1, seed=494)
@example(kind="fold", per_column=1, seed=15812)
def test_nnls_converged_exactly_when_kkt_holds_at_the_returned_x(kind, per_column, seed):
    m, b = seeded_system(kind, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nnls, "MAX_ITER_PER_COLUMN", per_column)
        result = solve_nnls(m, b)
    assert np.all(result.x >= 0.0)
    assert result.converged == kkt_holds(m, b, result.x)


def test_nnls_capped_iterate_off_its_optimum_is_not_converged(monkeypatch):
    # Adding column 1 drives column 0 negative, so the second solve steps to
    # x = (0, 1.1667) and drops column 0; that meets a cap of two before the
    # re-solve on column 1 alone, so x is not optimal (x1 = 1.25 is).
    monkeypatch.setattr(nnls, "MAX_ITER_PER_COLUMN", 1)
    m = np.array([[2.0, 0.6], [0.0, 0.8]])
    b = np.array([0.7, 1.0])
    result = solve_nnls(m, b)
    assert result.n_iter == 2
    assert np.allclose(result.x, [0.0, 7 / 6], rtol=0, atol=1e-15)
    assert result.residual == pytest.approx(1 / 15, rel=1e-12)
    assert not result.converged
    assert not kkt_holds(m, b, result.x)


# -- the QR least-squares helper against LAPACK ----------------------------------

def lapack_lstsq(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(m, b, rcond=None)[0]


def fold_system(n1: int, n2: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked fold matrix of (n1, n2) and a random non-negative mass vector."""
    a, b = build_fold_matrices(n1, n2)
    m = np.vstack([a, b])
    return m, np.random.default_rng(seed).random(m.shape[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_lstsq_matches_lapack_on_tall_full_rank_systems(cols, extra_rows, seed):
    # At least twice as many rows as columns keeps a Gaussian matrix well
    # conditioned, and coefficients of magnitude 1-2 keep x away from zero.
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2 * cols + extra_rows, cols))
    b = m @ (rng.uniform(1.0, 2.0, size=cols) * rng.choice([-1.0, 1.0], size=cols))
    b += rng.normal(size=b.size)
    expected = lapack_lstsq(m, b)
    assert np.linalg.norm(nnls._lstsq(m, b) - expected) <= 1e-12 * np.linalg.norm(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(n1=12, delta=0, seed=0)
def test_lstsq_matches_lapack_on_fold_systems(n1, delta, seed):
    m, b = fold_system(n1, n1 + delta, seed)
    cols = np.arange(2 * n1)
    if delta == 0:
        # With n1 = n2 signed bins k and 2*n1-1-k fold alike, so their columns
        # are equal; keep one of each pair.
        keep_low = np.random.default_rng(seed + 1).integers(0, 2, size=n1).astype(bool)
        cols = np.where(keep_low, np.arange(n1), 2 * n1 - 1 - np.arange(n1))
    expected = lapack_lstsq(m[:, cols], b)
    got = nnls._lstsq(m[:, cols], b)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(n1=12, delta=0, seed=0)
def test_solve_nnls_matches_a_lapack_reference_on_fold_systems(n1, delta, seed):
    m, b = fold_system(n1, n1 + delta, seed)
    result = solve_nnls(m, b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nnls, "_lstsq", lapack_lstsq)
        reference = solve_nnls(m, b)
    assert result.converged and reference.converged
    assert result.n_iter == reference.n_iter
    assert np.array_equal(result.x > 0.0, reference.x > 0.0)
    assert result.residual == pytest.approx(reference.residual, rel=1e-12, abs=1e-15)
