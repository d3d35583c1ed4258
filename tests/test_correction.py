import numpy as np
import pytest

from pdint.correction import (
    CorrectionDiagnostics,
    averaged_g_final,
    clip,
    corrector_solve,
    h_form_corrector,
    ratio_scaling,
    stage_corrected_g,
)
from pdint.numerics import identity_minus
from pdint.pds import assemble_g_from_rates


def random_laplacian(rng, d):
    return assemble_g_from_rates(rng.uniform(0.0, 2.0, size=(d, d)))


def test_clip_examples():
    assert np.array_equal(clip(np.array([1.0, -0.5, 0.0])), [1.0, 0.0, 0.0])
    v = np.array([0.3, 0.0, 2.0])
    assert np.array_equal(clip(v), v)
    assert np.array_equal(clip(np.array([-1e-20])), [0.0])


def test_clip_idempotent_and_error_nonincrease():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((1000, 5))
    u = np.abs(rng.standard_normal((1000, 5)))
    cv = clip(v)
    assert np.array_equal(clip(cv), cv)
    assert np.all(np.abs(cv - u) <= np.abs(v - u))


def test_ratio_scaling_examples():
    s = ratio_scaling(np.array([2.0, 3.0]), np.array([4.0, 6.0]), 1e-8)
    assert np.allclose(s, [0.5, 0.5], rtol=0, atol=0)
    s = ratio_scaling(np.array([1.0, -1.0]), np.array([2.0, 5.0]), 1e-8)
    assert np.allclose(s, [0.5, 0.0], rtol=0, atol=0)
    s = ratio_scaling(np.array([5e-10]), np.array([-0.1]), 1e-8)
    assert s[0] == pytest.approx(0.05)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan])
def test_ratio_scaling_rejects_a_floor_that_is_not_positive(eps):
    with pytest.raises(ValueError):
        ratio_scaling(np.ones(2), np.ones(2), eps)


def test_ratio_scaling_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = ratio_scaling(rng.standard_normal(4), rng.standard_normal(4), 1e-10)
        assert np.all(s >= 0.0)


def test_averaged_g_final_single_term_identity():
    g = np.array([[-1.0, 2.0], [1.0, -2.0]])
    out = averaged_g_final([1.0], [g], [np.ones(2)])
    assert np.array_equal(out, g)


def test_averaged_g_final_zero_weights():
    g = np.array([[-1.0, 2.0], [1.0, -2.0]])
    assert np.array_equal(averaged_g_final([0.0, 0.0], [g, g], [np.ones(2)] * 2), np.zeros((2, 2)))


def test_averaged_g_final_column_scaling():
    g = np.array([[-1.0, 1.0], [1.0, -1.0]])
    sig = np.array([2.0, 0.0])
    out = averaged_g_final([0.5, 0.5], [g, g], [sig, sig])
    assert np.array_equal(out, [[-2.0, 0.0], [2.0, 0.0]])


def test_averaged_g_final_of_sparse_matrices_has_the_dense_entries(as_sparse):
    from scipy import sparse

    from pdint.problems import KdvConfig, kdv

    rng = np.random.default_rng(4)
    gs = [random_laplacian(rng, 5) * (rng.random((5, 5)) < 0.5) for _ in range(3)]
    sigmas = [rng.uniform(0.0, 2.0, 5) for _ in range(3)]
    weights = [0.2, 0.5, 0.3]
    out = averaged_g_final(weights, [as_sparse(g) for g in gs], sigmas)
    assert sparse.issparse(out) and out.format == "csc"
    assert np.array_equal(out.toarray(), averaged_g_final(weights, gs, sigmas))
    # a term on KdV's template, whose index arrays are read-only and shared by every H
    d = 8
    gs = [random_laplacian(rng, d) * (rng.random((d, d)) < 0.5) for _ in range(3)]
    sigmas = [rng.uniform(0.0, 2.0, d) for _ in range(3)]
    model = kdv(KdvConfig(n_cells=d))
    h = model.eval_H(model.y0)
    mixed = [as_sparse(gs[0]), h, as_sparse(gs[2])]
    out = averaged_g_final(weights, mixed, sigmas)
    assert np.array_equal(out.toarray(), averaged_g_final(weights, [gs[0], h.toarray(), gs[2]], sigmas))
    alone = averaged_g_final([0.5], [h], sigmas[:1])
    alone.eliminate_zeros()  # a copy: the template's arrays stay read-only and unchanged
    assert not h.indices.flags.writeable and h.nnz == 3 * d


def test_corrector_solve_zero_matrix():
    y = np.array([0.4, 0.6])
    out = corrector_solve(y, 3.7, np.zeros((2, 2)))
    assert np.allclose(out, y, rtol=0, atol=1e-16)


def test_corrector_solve_2x2_hand_case():
    g = np.array([[-1.0, 1.0], [1.0, -1.0]])
    out = corrector_solve(np.array([1.0, 0.0]), 1.0, g)
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)


def test_corrector_solve_robertson_first_step():
    # G of the three-species stiff network at y = [1, 0, 0]
    y = np.array([1.0, 0.0, 0.0])
    g = np.array([[-0.04, 0.0, 0.0], [0.04, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = corrector_solve(y, 0.01, g)
    expected = np.linalg.solve(np.eye(3) - 0.01 * g, y)
    assert np.allclose(out, expected, rtol=0, atol=1e-16)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(out >= 0.0)


def test_corrector_solve_conserves_shared_kernels():
    rng = np.random.default_rng(23)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        s = int(rng.integers(1, 4))
        gs = [random_laplacian(rng, d) for _ in range(s)]
        sigmas = [rng.uniform(0.0, 3.0, size=d) for _ in range(s)]
        b = rng.uniform(0.0, 1.0, size=s)
        gbar = averaged_g_final(b, gs, sigmas)
        y = rng.uniform(0.0, 1.0, size=d)
        h = float(rng.uniform(0.0, 10.0))
        out = corrector_solve(y, h, gbar)
        assert out.sum() == pytest.approx(y.sum(), rel=1e-12)
        assert np.all(out >= -1e-12 * max(np.max(np.abs(y)), 1e-300))


def test_stage_corrected_g_first_stage():
    g = np.array([[-2.0, 1.0], [2.0, -1.0]])
    gamma = 0.3
    out = stage_corrected_g([gamma], [], [], g)
    assert np.allclose(out, gamma * g, rtol=0, atol=0)
    assert np.array_equal(out, averaged_g_final([gamma], [g], [np.ones(2)]))


def test_stage_corrected_g_two_stage_form():
    rng = np.random.default_rng(1)
    g1 = random_laplacian(rng, 3)
    g2 = random_laplacian(rng, 3)
    sig = rng.uniform(0.0, 2.0, size=3)
    gamma = 1.0 - np.sqrt(2.0) / 2.0
    out = stage_corrected_g([1.0 - gamma, gamma], [g1], [sig], g2)
    expected = (1.0 - gamma) * (g1 * sig[np.newaxis, :]) + gamma * g2
    assert np.allclose(out, expected, rtol=0, atol=0)
    # the diagonal term comes first, with sigma = 1
    assert np.array_equal(out, averaged_g_final([gamma, 1.0 - gamma], [g2, g1], [np.ones(3), sig]))


def test_stage_corrected_g_collapsed_stages():
    g = np.array([[-1.0, 0.5], [1.0, -0.5]])
    a_row = [0.25, 0.35, 0.2]
    out = stage_corrected_g(a_row, [g, g], [np.ones(2)] * 2, g)
    assert np.allclose(out, sum(a_row) * g, rtol=1e-15, atol=0)
    assert np.array_equal(out, averaged_g_final([0.2, 0.25, 0.35], [g] * 3, [np.ones(2)] * 3))


def test_h_form_corrector_zero_rates():
    y = np.array([0.7, 0.3])
    out = h_form_corrector(y, 0.5, [0.6, 0.4], [np.zeros((2, 2))] * 2, y, 1e-10)
    assert np.allclose(out, y, rtol=0, atol=1e-16)


def test_h_form_corrector_single_stage_hand_case():
    h_mat = np.array([[-2.0, 0.0], [2.0, 0.0]])
    y_n = np.array([1.0, 0.0])
    out = h_form_corrector(y_n, 0.25, [1.0], [h_mat], np.array([1.0, 1.0]), 1e-10)
    # with sigma = I this is (I - 0.25 H)^{-1} y_n
    expected = np.linalg.solve(np.eye(2) - 0.25 * h_mat, y_n)
    assert np.allclose(out, expected, rtol=0, atol=1e-16)
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)


def test_h_form_corrector_mass_conservation():
    from pdint.pds import assemble_h_from_destruction

    rng = np.random.default_rng(9)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        hs = [
            assemble_h_from_destruction(rng.uniform(0.0, 1.0, size=(d, d)))
            for _ in range(2)
        ]
        y = rng.uniform(0.0, 1.0, size=d)
        y_pred = rng.uniform(-0.1, 1.0, size=d)
        out = h_form_corrector(y, 0.3, [0.5, 0.5], hs, y_pred, 1e-10)
        assert out.sum() == pytest.approx(y.sum(), rel=1e-12)


def test_diagnostics_negative_tracking():
    diag = CorrectionDiagnostics()
    diag.absorb_negatives(np.array([1.0, -0.25, -0.5]))
    assert diag.clip_count == 2
    assert diag.max_negative_clipped == pytest.approx(0.5)
    clean = CorrectionDiagnostics()
    clean.absorb_negatives(np.array([1.0, 2.0]))
    assert clean.clip_count == 0
    assert clean.max_negative_clipped == 0.0


def test_averaged_g_final_on_one_sparse_pattern_equals_the_general_sparse_sum():
    from scipy import sparse

    rng = np.random.default_rng(7)
    d = 8
    pattern = sparse.csc_array(((rng.random((d, d)) < 0.4) | np.eye(d, dtype=bool)).astype(float))
    gs = []
    for _ in range(3):
        g = pattern.copy()
        g.data[:] = rng.standard_normal(g.nnz)
        g.data[rng.random(g.nnz) < 0.3] = 0.0  # explicit zeros
        gs.append(g)
    gs[2].data[:4] = -gs[1].data[:4]  # entries whose sum comes out exactly zero
    weights = [0.25, 0.5, 0.5]
    sigmas = [rng.uniform(0.5, 2.0, d) for _ in range(2)]
    sigmas.insert(1, sigmas[1].copy())
    out = averaged_g_final(weights, gs, sigmas)
    assert out.format == "csc"
    # the general sum drops zero results and leaves rows unsorted; splu sorts
    # them (sum_duplicates), so compare in that form
    ref = sparse.csc_array((d, d))
    for w, g, sig in zip(weights, gs, sigmas):
        ref = ref + (g @ sparse.diags_array(sig)) * w
    for fast, general in [
        (out.copy(), ref.copy()),
        (identity_minus(0.1, out), sparse.eye_array(d, format="csc") - 0.1 * ref),
    ]:
        fast.eliminate_zeros()
        general = general.tocsc()
        general.sum_duplicates()
        assert np.array_equal(fast.indptr, general.indptr)
        assert np.array_equal(fast.indices, general.indices)
        assert fast.data.tobytes() == general.data.tobytes()


def zeros_started_sum(weights, g_list, sigma_list):
    """The dense sum as a zero matrix accumulating each scaled term: the reference."""
    d = g_list[0].shape[0]
    out = np.zeros((d, d))
    term = np.empty((d, d))
    for w, g, sig in zip(weights, g_list, sigma_list):
        np.multiply(g, sig[np.newaxis, :], out=term)
        term *= w
        out += term
    return out


@pytest.mark.parametrize("terms", [1, 2, 3, 4, 5])
def test_dense_averaged_g_final_equals_the_zeros_started_sum_byte_for_byte(terms):
    rng = np.random.default_rng(terms)
    for _ in range(400):
        d = int(rng.integers(1, 7))
        g_list = [rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.6) for _ in range(terms)]
        for g in g_list:
            g[rng.random((d, d)) < 0.3] = -0.0
        sigma_list = [np.where(rng.random(d) < 0.3, rng.choice([0.0, -0.0]), rng.random(d))
                      for _ in range(terms)]
        weights = rng.choice([-0.5, -0.0, 0.0, 0.25, 1.0], terms) * rng.random(terms)
        for ws in (weights, weights.tolist()):
            out = averaged_g_final(ws, g_list, sigma_list)
            assert out.tobytes() == zeros_started_sum(ws, g_list, sigma_list).tobytes()
    ints = [np.arange(4).reshape(2, 2) - 2] * terms, [np.array([1, 3])] * terms  # integer arrays
    out = averaged_g_final([0.5] * terms, *ints)
    assert out.tobytes() == zeros_started_sum([0.5] * terms, *ints).tobytes()
