import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse

import pdint
from pdint.numerics import (
    SingularMatrixError,
    fit_slope,
    identity_minus,
    lu_back_solve,
    lu_factor,
    lu_solve,
    vector,
    weighted_rms,
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


@pytest.mark.parametrize("a", [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 1e-301])])
def test_lu_factor_singular(a):
    with pytest.raises(SingularMatrixError):
        lu_solve(a, np.ones(2))
    with pytest.raises(SingularMatrixError):
        lu_factor(a)


@pytest.mark.parametrize(
    "a, pivot_test",
    [
        (np.zeros((2, 2)), False),
        (np.array([[1.0, 2.0], [2.0, 4.0]]), False),
        (np.diag([1.0, 1e-310]), True),
    ],
)
def test_sparse_lu_factor_singular(a, pivot_test):
    # an exactly singular CSC matrix fails inside SuperLU; a tiny pivot
    # passes SuperLU and fails the pivot test
    a = sparse.csc_array(a)
    for solve in (lambda: lu_solve(a, np.ones(2)), lambda: lu_factor(a)):
        with pytest.raises(SingularMatrixError, match="pivot below" if pivot_test else "exactly singular"):
            solve()


def test_superlu_errors_other_than_singularity_pass_through(monkeypatch):
    def failing_splu(a):
        raise RuntimeError("SUPERLU_MALLOC fails for buf in intMalloc()")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", failing_splu)
    a = sparse.csc_array(np.eye(2))
    for solve in (lambda: lu_solve(a, np.ones(2)), lambda: lu_factor(a)):
        with pytest.raises(RuntimeError, match="MALLOC") as info:
            solve()
        assert not isinstance(info.value, SingularMatrixError)


def test_dense_runs_do_not_import_scipy_sparse():
    # only KdV builds sparse matrices; a kinetics run must not pay for the import
    code = (
        "import sys\n"
        "from pdint import SolverConfig, get_model, integrate\n"
        "model = get_model('robertson')\n"
        "integrate(model, SolverConfig(method='sdirk21', correction='final'), 0.0, 1.0, model.y0)\n"
        "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pdint.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_sparse_lu_factor_and_solve_agree_with_the_dense_solve():
    rng = np.random.default_rng(8)
    d = 40
    a = np.eye(d) * 4.0 + rng.random((d, d)) * (rng.random((d, d)) < 0.1)
    b = rng.standard_normal(d)
    factors = lu_factor(sparse.csc_array(a))
    x = lu_solve(sparse.csc_array(a), b)
    assert np.array_equal(lu_back_solve(factors, b), x)
    assert np.max(np.abs(x - lu_solve(a, b))) <= 1e-12 * np.max(np.abs(x))
    with pytest.raises(ValueError):
        lu_factor(sparse.csc_array(np.ones((2, 3))))


def test_sparse_lu_leaves_a_matrix_with_unsorted_rows_unchanged():
    # column 0 stores rows 1, 0: SuperLU sorts its argument in place
    a = sparse.csc_array(
        (np.array([2.0, 1.0, 3.0, 4.0]), np.array([1, 0, 0, 1]), np.array([0, 2, 4])), shape=(2, 2)
    )
    b = np.array([1.0, 2.0])
    x = np.linalg.solve(a.toarray(), b)
    assert np.allclose(lu_solve(a, b), x, rtol=1e-15, atol=0.0)
    assert np.allclose(lu_back_solve(lu_factor(a), b), x, rtol=1e-15, atol=0.0)
    assert a.indices.tolist() == [1, 0, 0, 1] and a.data.tolist() == [2.0, 1.0, 3.0, 4.0]


def test_lu_factor_rejects_non_square():
    with pytest.raises(ValueError):
        lu_factor(np.ones((2, 3)))


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


@pytest.mark.parametrize("d", [3, 6, 64])
def test_lu_factor_and_back_solve_equal_lu_solve_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        a = rng.standard_normal((d, d))
        factors = lu_factor(np.asfortranarray(a))
        for _ in range(3):  # one factorization serves every right-hand side
            b = rng.standard_normal(d)
            assert np.array_equal(lu_back_solve(factors, b), lu_solve(a, b))


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


@pytest.mark.parametrize(
    "atol,rtol",
    [(np.nan, 0.0), (np.array([1e-6, np.nan]), 0.0), (np.array([np.nan, 1e-6]), 0.0), (1e-6, np.nan)],
    ids=["atol", "atol-entry-1", "atol-entry-0", "rtol"],
)
def test_wrms_rejects_nan_tolerances(atol, rtol):
    with pytest.raises(ValueError):
        wrms_norm(np.ones(2), np.ones(2), atol, rtol)


def test_wrms_per_component_atol():
    delta = np.array([1e-10, 1e-2])
    atol = np.array([1e-10, 1e-2])
    assert wrms_norm(delta, np.zeros(2), atol, 0.0) == pytest.approx(1.0)
    assert wrms_norm(delta, np.zeros(2), 1e-2, 0.0) == pytest.approx(np.sqrt(0.5))


def test_weighted_rms_equals_wrms_norm_bit_for_bit():
    rng = np.random.default_rng(10)
    for k in range(10_000):
        d = int(rng.integers(1, 1101))
        delta, y_ref = rng.standard_normal(d), rng.standard_normal(d) * 10.0 ** rng.uniform(-8, 8)
        atol = rng.uniform(1e-9, 1e-3, d) if k % 2 else float(rng.uniform(1e-9, 1e-3))
        rtol = float(rng.uniform(0.0, 1e-3))
        v = delta / (atol + rtol * np.abs(y_ref))
        v *= v
        expected = math.sqrt(v.sum() / v.size)  # the formula as ndarray.sum writes it
        assert weighted_rms(delta, y_ref, atol, rtol) == wrms_norm(delta, y_ref, atol, rtol) == expected


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


@pytest.mark.filterwarnings("error")  # filling a missing diagonal entry must not warn
def test_sparse_identity_minus_equals_the_dense_one(as_sparse):
    rng = np.random.default_rng(6)
    m = rng.standard_normal((7, 7)) * (rng.random((7, 7)) < 0.4)
    m[2, 2] = 0.0  # the identity fills a diagonal entry the pattern lacks
    a = identity_minus(0.3, as_sparse(m))
    assert sparse.issparse(a) and a.format == "csc" and np.count_nonzero(a.data == 0.0) == 0
    assert np.array_equal(a.toarray(), identity_minus(0.3, m))


def _canonical_with_zeros(rng, d, density=0.4):
    """A CSC matrix on a random pattern that stores every diagonal slot, some holding zeros."""
    pattern = (rng.random((d, d)) < density) | np.eye(d, dtype=bool)
    m = sparse.csc_array(pattern.astype(float))  # canonical: sorted rows, no duplicates
    m.data[:] = rng.standard_normal(m.nnz)
    m.data[rng.random(m.nnz) < 0.3] = 0.0  # explicit zeros, on and off the diagonal
    return m


@pytest.mark.parametrize("seed", range(4))
def test_sparse_identity_minus_on_a_stored_diagonal_equals_scipys_difference(seed):
    rng = np.random.default_rng(seed)
    d, c = 9, 0.5
    m = _canonical_with_zeros(rng, d)
    on_diag = np.flatnonzero(m.indices == np.repeat(np.arange(d), np.diff(m.indptr)))
    m.data[on_diag[seed]] = 1.0 / c  # a diagonal entry of I - c*m that comes out zero
    before = (m.indptr.copy(), m.indices.copy(), m.data.copy())
    a = identity_minus(c, m)
    ref = (sparse.eye_array(d, format="csc") - c * m).tocsc()
    assert a.format == "csc" and np.count_nonzero(a.data == 0.0) == 0
    assert np.array_equal(a.indptr, ref.indptr) and np.array_equal(a.indices, ref.indices)
    assert a.data.tobytes() == ref.data.tobytes()
    assert all(np.array_equal(x, y) for x, y in zip(before, (m.indptr, m.indices, m.data)))
