import numpy as np
import pytest
from scipy import sparse

from pdint.pds import (
    GraphLaplacianModel,
    LinearInvariant,
    assemble_g_from_rates,
    assemble_h_from_destruction,
    invariant_error,
    validate_left_kernel,
    validate_model,
    validate_sign_structure,
)


def test_sign_structure_canonical_pattern():
    report = validate_sign_structure(np.array([[-1.0, 2.0], [3.0, -4.0]]), 0.0)
    assert report.ok


def test_sign_structure_positive_diagonal():
    report = validate_sign_structure(np.array([[1.0, 0.0], [0.0, -1.0]]), 0.0)
    assert report.sign_violations == [(0, 0, 1.0)]


def test_sign_structure_negative_offdiagonal():
    report = validate_sign_structure(np.array([[-1.0, -0.5], [0.5, 0.0]]), 0.1)
    assert report.sign_violations == [(0, 1, -0.5)]


@pytest.mark.parametrize("tol", [-1.0, np.nan])
def test_sign_structure_rejects_a_tolerance_that_is_not_nonnegative(tol):
    with pytest.raises(ValueError):
        validate_sign_structure(np.eye(2), tol)


@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_sign_structure_reports_a_nan_entry(where):
    m = np.array([[-1.0, 2.0], [3.0, -4.0]])
    m[where] = np.nan
    report = validate_sign_structure(m, 0.0)
    assert [v[:2] for v in report.sign_violations] == [where]


def _exchange_model(eval_G):
    mass = LinearInvariant(np.ones(2), exact=True, label="mass")
    return GraphLaplacianModel(dim=2, eval_G=eval_G, invariants=(mass,))


def test_validate_model_fails_a_nan_matrix():
    report = validate_model(_exchange_model(lambda t, y: np.full((2, 2), np.nan)), n_samples=3)
    assert not report.ok
    assert len(report.sign_violations) == 3 * 4
    assert len(report.kernel_residuals) == 3


def test_validate_model_rejects_a_nan_sign_tolerance():
    model = _exchange_model(lambda t, y: assemble_g_from_rates(np.array([[0.0, 1.0], [2.0, 0.0]])))
    assert validate_model(model, n_samples=3).ok
    with pytest.raises(ValueError):
        validate_model(model, n_samples=3, sign_tol=np.nan)


def test_left_kernel_zero_column_sums():
    rng = np.random.default_rng(2)
    g = assemble_g_from_rates(rng.uniform(0.0, 1.0, size=(5, 5)))
    resid = validate_left_kernel(g, np.ones(5))
    assert resid <= 1e-14 * np.max(np.abs(g))


def test_left_kernel_dimension_check():
    with pytest.raises(ValueError):
        validate_left_kernel(np.eye(3), np.ones(2))


def test_assemble_g_single_decay():
    g = assemble_g_from_rates(np.array([[0.0, 0.5], [0.0, 0.0]]))
    assert np.array_equal(g, [[-0.5, 0.0], [0.5, 0.0]])


def test_assemble_g_zero_rates():
    assert np.array_equal(assemble_g_from_rates(np.zeros((3, 3))), np.zeros((3, 3)))


def test_assemble_g_symmetric_exchange():
    g = assemble_g_from_rates(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(g, [[-1.0, 1.0], [1.0, -1.0]])


def test_assemble_g_rejects_negative_rates():
    with pytest.raises(ValueError):
        assemble_g_from_rates(np.array([[0.0, -1.0], [0.0, 0.0]]))


def test_assembled_g_structure_property():
    rng = np.random.default_rng(17)
    for _ in range(300):
        d = int(rng.integers(1, 9))
        rates = rng.uniform(0.0, 5.0, size=(d, d))
        g = assemble_g_from_rates(rates)
        assert validate_sign_structure(g, 0.0).ok
        assert validate_left_kernel(g, np.ones(d)) <= 1e-14 * max(
            np.max(np.abs(rates)), 1e-300
        )


def test_assemble_h_examples():
    assert np.array_equal(assemble_h_from_destruction(np.zeros((2, 2))), np.zeros((2, 2)))
    h = assemble_h_from_destruction(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert np.array_equal(h, [[-2.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        assemble_h_from_destruction(np.array([[0.0, 1.0], [-0.1, 0.0]]))


def test_sparse_destruction_matrix_gives_the_dense_h_and_validates():
    # a cyclic two-neighbour pattern, as KdV's: with two entries per row
    # the row sums cannot depend on the order of summation
    rng = np.random.default_rng(9)
    idx = np.arange(6)
    dest = np.zeros((6, 6))
    dest[idx, (idx + 1) % 6] = rng.uniform(0.0, 3.0, 6)
    dest[idx, (idx - 1) % 6] = rng.uniform(0.0, 3.0, 6) * (rng.random(6) < 0.5)
    h = assemble_h_from_destruction(sparse.csc_array(dest))
    assert sparse.issparse(h) and h.format == "csc"
    assert np.array_equal(h.toarray(), assemble_h_from_destruction(dest))
    assert validate_sign_structure(h, 0.0).ok
    assert validate_left_kernel(h, np.ones(6)) <= 1e-14 * np.max(dest)
    with pytest.raises(ValueError):
        assemble_h_from_destruction(sparse.csc_array(np.array([[0.0, 1.0], [-0.1, 0.0]])))


def test_assemble_h_zero_column_sums():
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        h = assemble_h_from_destruction(rng.uniform(0.0, 3.0, size=(d, d)))
        assert np.max(np.abs(h.sum(axis=0))) <= 1e-14 * max(np.max(np.abs(h)), 1e-300)


def test_invariant_error_constant_trajectory():
    states = np.tile(np.array([0.2, 0.8]), (5, 1))
    assert invariant_error(states, np.ones(2)) == 0.0


def test_invariant_error_direct_case():
    # w @ y values 1.0, 1.1, 0.95
    states = np.array([[1.0], [1.1], [0.95]])
    assert invariant_error(states, np.ones(1)) == pytest.approx(0.1)


def test_invariant_error_zero_initial():
    states = np.array([[1.0, -1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        invariant_error(states, np.ones(2))


def test_scaled_combination_closure():
    # nonnegative combinations of column-scaled Laplacians sharing a left
    # kernel stay Laplacian with the same kernel
    from pdint.correction import averaged_g_final

    rng = np.random.default_rng(31)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        w = rng.uniform(0.5, 2.0, size=d)
        s = int(rng.integers(1, 4))
        gs = []
        for _ in range(s):
            g = assemble_g_from_rates(rng.uniform(0.0, 1.0, size=(d, d)))
            gs.append(g / w[:, np.newaxis])  # row scaling moves kernel 1 -> w
        b = rng.uniform(0.0, 2.0, size=s)
        sigmas = [rng.uniform(0.0, 2.0, size=d) for _ in range(s)]
        combo = averaged_g_final(b, gs, sigmas)
        assert validate_sign_structure(combo, 0.0).ok
        assert validate_left_kernel(combo, w) <= 1e-12 * max(
            np.max(np.abs(combo)), 1e-300
        )


def test_m_matrix_inverse_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        g = assemble_g_from_rates(rng.uniform(0.0, 1.0, size=(d, d)))
        h = float(rng.uniform(0.0, 50.0))
        inv = np.linalg.inv(np.eye(d) - h * g)
        assert inv.min() >= -1e-12
