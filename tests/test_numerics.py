import numpy as np
import pytest
import scipy.linalg

from pdint.numerics import (
    SingularMatrixError,
    fit_slope,
    identity_minus,
    lu_solve,
    vector,
    wrms_norm,
)


def test_constructors_reject_nonfinite():
    with pytest.raises(ValueError):
        vector([1.0, np.nan])


def test_lu_solve_identity():
    x = lu_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(x, [1.0, 2.0, 3.0])


def test_lu_solve_2x2_hand_elimination():
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    x = lu_solve(a, np.array([1.0, 0.0]))
    assert np.allclose(x, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)


def test_lu_solve_singular():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.zeros((2, 2)), np.ones(2))


def test_lu_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        lu_solve(np.eye(3), np.ones(2))


def test_lu_solve_residual_bound_random_well_conditioned():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        d = int(rng.integers(1, 21))
        a = rng.standard_normal((d, d))
        if np.linalg.cond(a) > 1e6:
            continue
        b = rng.standard_normal(d)
        x = lu_solve(a, b)
        resid = np.max(np.abs(a @ x - b))
        bound = 1e-10 * (
            np.max(np.abs(a).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b))
        )
        assert resid <= bound
        checked += 1


def test_lu_solve_matches_two_step_factor_and_solve():
    rng = np.random.default_rng(3)
    for d in (3, 6, 40):
        a = np.eye(d) * 4.0 + rng.random((d, d))
        b = rng.random(d)
        lu_piv = scipy.linalg.lu_factor(a)
        assert np.array_equal(lu_solve(a, b), scipy.linalg.lu_solve(lu_piv, b))


@pytest.mark.parametrize("order", ["C", "F"])
def test_identity_minus_equals_the_explicit_form(order):
    rng = np.random.default_rng(5)
    m = np.asarray(rng.standard_normal((7, 7)), order=order)
    a = identity_minus(0.3, m)
    assert np.array_equal(a, np.eye(7) - 0.3 * m)
    b = rng.standard_normal(7)
    expected = lu_solve(a, b)
    assert np.array_equal(lu_solve(a, b, overwrite_a=True), expected)


def test_wrms_zero_error():
    assert wrms_norm(np.zeros(2), np.array([5.0, -3.0]), 1e-6, 0.1) == 0.0


def test_wrms_direct_formula():
    assert wrms_norm(np.array([1e-6, 1e-6]), np.zeros(2), 1e-6, 0.0) == pytest.approx(1.0)
    assert wrms_norm(np.array([2e-6, 0.0]), np.zeros(2), 1e-6, 0.0) == pytest.approx(
        np.sqrt(2.0)
    )


def test_wrms_homogeneous_in_delta():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        delta = rng.standard_normal(d)
        y = rng.standard_normal(d)
        c = float(rng.uniform(-10, 10))
        lhs = wrms_norm(c * delta, y, 1e-8, 0.0)
        rhs = abs(c) * wrms_norm(delta, y, 1e-8, 0.0)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_wrms_validation():
    with pytest.raises(ValueError):
        wrms_norm(np.zeros(2), np.zeros(3), 1e-6, 0.0)
    with pytest.raises(ValueError):
        wrms_norm(np.zeros(2), np.zeros(2), 0.0, 0.0)
    with pytest.raises(ValueError):
        wrms_norm(np.zeros(2), np.zeros(2), np.array([1e-6, 0.0]), 0.0)


def test_wrms_per_component_atol():
    delta = np.array([1e-10, 1e-2])
    atol = np.array([1e-10, 1e-2])
    assert wrms_norm(delta, np.zeros(2), atol, 0.0) == pytest.approx(1.0)
    assert wrms_norm(delta, np.zeros(2), 1e-2, 0.0) == pytest.approx(np.sqrt(0.5))


def test_fit_slope_exact_quadratic():
    assert fit_slope([0.1, 0.05, 0.025], [1e-2, 2.5e-3, 6.25e-4]) == pytest.approx(
        2.0, abs=1e-12
    )


def test_fit_slope_constant_data():
    assert fit_slope([1.0, 2.0], [3.0, 3.0]) == pytest.approx(0.0, abs=1e-14)


def test_fit_slope_log_ratio():
    assert fit_slope([0.1, 0.05], [1e-3, 1.25e-4]) == pytest.approx(3.0, abs=1e-12)


def test_fit_slope_recovers_power_laws():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = float(rng.uniform(-4, 4))
        c = float(rng.uniform(0.1, 10))
        xs = np.sort(rng.uniform(0.01, 1.0, size=6))
        ys = c * xs**p
        assert fit_slope(xs, ys) == pytest.approx(p, abs=1e-12)


def test_fit_slope_degenerate():
    with pytest.raises(ValueError):
        fit_slope([0.5, 0.5, 0.5], [1.0, 2.0, 3.0])
