import math

import numpy as np
import pytest
import scipy.linalg

from pdint.correction import CorrectionMode
from pdint.pds import GraphLaplacianModel, LinearInvariant, eval_rhs
from pdint.problems import robertson, stratospheric
from pdint.sdirk import (
    ButcherTableau,
    ConfigurationError,
    SolverConfig,
    TrajectoryStatus,
    corrected_step,
    integrate,
    predictor_step,
    solve_stage,
    tableau,
)


def linear_exchange():
    """Smooth, strictly positive two-species exchange with constant rates."""
    g = np.array([[-1.0, 0.5], [1.0, -0.5]])
    return GraphLaplacianModel(
        dim=2,
        eval_G=lambda t, y: g,
        invariants=(LinearInvariant(np.ones(2), exact=True, label="mass"),),
        label="exchange",
        y0=np.array([1.0, 1.0]),
    ), g


def test_tableau_coefficients():
    t21 = tableau("sdirk21")
    assert t21.gamma == pytest.approx(1.0 - 1.0 / math.sqrt(2.0))
    assert np.allclose(t21.b, [1.0 / math.sqrt(2.0), 1.0 - 1.0 / math.sqrt(2.0)])
    assert np.allclose(t21.b_hat, [2.0 / 3.0, 1.0 / 3.0])
    t32 = tableau("sdirk32")
    assert t32.gamma == pytest.approx(9.0 / 40.0)
    assert t32.A[1, 0] == pytest.approx(163.0 / 520.0)
    assert np.allclose(
        t32.b, [4032.0 / 9943.0, 6929.0 / 15485.0, -723.0 / 9272.0, 9.0 / 40.0]
    )
    t43 = tableau("sdirk43")
    assert t43.gamma == 0.25
    assert np.allclose(
        t43.b,
        [944.0 / 1365.0, -400.0 / 819.0, 99.0 / 35.0, -575.0 / 252.0, 0.25],
    )
    assert np.allclose(t43.c, [0.25, 0.9, 2.0 / 3.0, 0.6, 1.0])
    with pytest.raises(ConfigurationError):
        tableau("sdirk99")


@pytest.mark.parametrize("name,p,p_hat,s", [("sdirk21", 2, 1, 2), ("sdirk32", 3, 2, 4), ("sdirk43", 4, 3, 5)])
def test_tableau_structure(name, p, p_hat, s):
    tab = tableau(name)
    assert (tab.p, tab.p_hat, tab.s) == (p, p_hat, s)
    assert tab.stiffly_accurate
    assert np.all(np.triu(tab.A, 1) == 0.0)
    assert np.allclose(np.diagonal(tab.A), tab.gamma, rtol=0, atol=0)
    assert abs(tab.b.sum() - 1.0) < 1e-14
    assert abs(tab.b_hat.sum() - 1.0) < 1e-14
    assert abs(tab.b @ tab.c - 0.5) < 1e-14  # order two quadrature
    # row-sum convention ties stage times to the coefficients
    assert np.allclose(tab.A.sum(axis=1), tab.c, rtol=0, atol=1e-14)


def test_tableau_validation_rejects_bad_weights():
    with pytest.raises(ValueError):
        ButcherTableau(
            name="bad",
            A=np.array([[0.5]]),
            b=np.array([0.9]),
            b_hat=np.array([1.0]),
            c=np.array([0.5]),
            p=1,
            p_hat=1,
            gamma=0.5,
        )


def test_solve_stage_constant_matrix_single_solve():
    model, g = linear_exchange()
    y_n = np.array([0.8, 0.4])
    h, a_ii = 0.3, 0.25
    y = solve_stage(model, 0.0, y_n, h, a_ii, np.zeros(2))
    expected = np.linalg.solve(np.eye(2) - h * a_ii * g, y_n)
    assert np.allclose(y, expected, rtol=0, atol=1e-14)


def test_solve_stage_explicit_when_diagonal_zero():
    model, _ = linear_exchange()
    rhs_accum = np.array([0.1, -0.05])
    y = solve_stage(model, 0.0, np.array([1.0, 2.0]), 0.5, 0.0, rhs_accum)
    assert np.array_equal(y, [1.1, 1.95])


def newton_stage_oracle(model, t, y_n, h, a_ii, rhs_accum):
    """Independent dense-Newton solve of the stage equation."""
    y = y_n + rhs_accum
    d = y.size
    for _ in range(100):
        f = eval_rhs(model, t, y)
        resid = y - y_n - rhs_accum - h * a_ii * f
        eps = math.sqrt(np.finfo(float).eps)
        jac = np.empty((d, d))
        for j in range(d):
            dy = eps * max(abs(y[j]), 1e-8)
            yp = y.copy()
            yp[j] += dy
            jac[:, j] = (eval_rhs(model, t, yp) - f) / dy
        delta = scipy.linalg.solve(np.eye(d) - h * a_ii * jac, -resid)
        y = y + delta
        if np.max(np.abs(delta)) <= 1e-14 * (1.0 + np.max(np.abs(y))):
            return y
    raise RuntimeError("oracle Newton did not converge")


def test_solve_stage_matches_newton_oracle_on_robertson():
    model = robertson()
    rng = np.random.default_rng(19)
    gamma = tableau("sdirk21").gamma
    for _ in range(10):
        y_n = np.array([rng.uniform(0.1, 1.0), rng.uniform(0.0, 1e-4), rng.uniform(0.0, 0.5)])
        h = 10.0 ** rng.uniform(-5, -2)
        y = solve_stage(model, 0.0, y_n, h, gamma, np.zeros(3))
        y_oracle = newton_stage_oracle(model, 0.0, y_n, h, gamma, np.zeros(3))
        assert np.max(np.abs(y - y_oracle)) <= 1e-10 * (1.0 + np.max(np.abs(y_oracle)))


@pytest.mark.parametrize("h", [1.0, 100.0])
def test_solve_stage_converges_every_component_of_a_badly_scaled_system(h):
    # O1D (~1e2) sits fourteen decades below O2 (~1.7e16); a convergence
    # test scaled by the largest component would stop with O1D unconverged
    model = stratospheric()
    gamma = tableau("sdirk21").gamma
    t = model.t0 + gamma * h
    y = solve_stage(model, t, model.y0, h, gamma, np.zeros(6))
    resid = y - model.y0 - h * gamma * eval_rhs(model, t, y)
    assert np.all(np.abs(resid) <= 1e-8 * np.abs(y))


def test_predictor_zero_field_is_identity():
    model = GraphLaplacianModel(dim=2, eval_G=lambda t, y: np.zeros((2, 2)), label="null")
    y_n = np.array([0.3, 0.7])
    stages, y_pred, y_hat, _ = predictor_step(model, 0.0, y_n, 0.5, tableau("sdirk21"))
    assert all(np.array_equal(s, y_n) for s in stages)
    assert np.array_equal(y_pred, y_n)
    assert np.array_equal(y_hat, y_n)


def stability_function(tab, z):
    """R(z) = 1 + z b^T (I - z A)^{-1} 1, evaluated directly."""
    s = tab.s
    k = np.linalg.solve(np.eye(s) - z * tab.A, np.ones(s))
    return 1.0 + z * (tab.b @ k)


@pytest.mark.parametrize("name", ["sdirk21", "sdirk32", "sdirk43"])
def test_predictor_matches_stability_function_scalar_decay(name):
    # y' = -y as a one-species destruction model
    model = GraphLaplacianModel(dim=1, eval_G=lambda t, y: np.array([[-1.0]]), label="decay")
    tab = tableau(name)
    h = 0.1
    _, y_pred, _, _ = predictor_step(model, 0.0, np.array([1.0]), h, tab)
    assert y_pred[0] == pytest.approx(stability_function(tab, -h), rel=1e-12)


@pytest.mark.parametrize("name", ["sdirk21", "sdirk32", "sdirk43"])
def test_predictor_equals_last_stage_for_stiffly_accurate(name):
    model = robertson()
    stages, y_pred, _, _ = predictor_step(
        model, 0.0, np.array([0.7, 1e-5, 0.3]), 1e-3, tableau(name)
    )
    assert y_pred is stages[-1]


def test_corrected_step_inactive_on_positive_trajectory():
    model, _ = linear_exchange()
    y_n = np.array([0.75, 0.25])
    for name in ("sdirk21", "sdirk32", "sdirk43"):
        tab = tableau(name)
        for mode in ("none", "final", "all"):
            cfg = SolverConfig(method=name, correction=mode)
            out = corrected_step(model, 0.0, y_n, 0.2, tab, cfg)
            assert np.max(np.abs(out.y_corrected - out.y_pred)) <= 1e-12 * np.max(
                np.abs(out.y_pred)
            )


def test_corrected_step_restores_positivity_and_mass():
    # frozen sunset state of the photochemistry model whose predictor
    # drives atomic oxygen slightly negative
    from pdint.problems import stratospheric

    model = stratospheric()
    t_n = 70206.12450645771
    h = 2.205506169108543
    y_n = np.array(
        [
            5.1072981229793005e-06,
            2.6976319523012135e-06,
            1.7780219185944734e09,
            1.6970796662147938e16,
            1.0684618727971621e09,
            2.8038127202820368e07,
        ]
    )
    tab = tableau("sdirk21")
    cfg = SolverConfig(method="sdirk21", correction="final")
    out = corrected_step(model, t_n, y_n, h, tab, cfg)
    assert out.y_pred.min() < 0.0, "expected an undershooting predictor"
    assert out.y_corrected.min() >= 0.0
    assert out.diagnostics.clip_count > 0
    assert out.diagnostics.scaling_active
    w_nitrogen = model.invariants[1].w
    assert w_nitrogen @ out.y_corrected == pytest.approx(w_nitrogen @ y_n, rel=1e-12)


def test_all_stages_on_flux_form_model_conserves_and_stays_nonnegative():
    from pdint.problems import KdvConfig, kdv

    model = kdv(KdvConfig(n_cells=32))
    cfg = SolverConfig(method="sdirk21", mode="fixed", h_fixed=0.35 / 64, correction="all")
    traj = integrate(model, cfg, 0.0, 0.35 / 8, model.y0)
    assert traj.status == TrajectoryStatus.COMPLETED
    assert traj.min_component >= 0.0
    mass = traj.invariant_values["mass"]
    assert np.max(np.abs(mass - mass[0])) <= 1e-12 * abs(mass[0])


def implicit_euler():
    """One-stage, stiffly accurate tableau: final and all-stages correction coincide."""
    one = np.array([1.0])
    return ButcherTableau(
        name="implicit-euler", A=np.array([[1.0]]), b=one, b_hat=one, c=one,
        p=1, p_hat=1, gamma=1.0,
    )


@pytest.mark.parametrize("h", [0.1, 0.2])
def test_final_and_all_stage_correction_share_the_corrector_on_flux_form(h):
    # on an H-form model both modes scale every column by 1/max(y_pred, eps)
    from pdint.problems import KdvConfig, kdv

    model = kdv(KdvConfig(n_cells=32))
    tab = implicit_euler()
    final, every = (
        corrected_step(model, 0.0, model.y0, h, tab, SolverConfig(correction=mode))
        for mode in ("final", "all")
    )
    assert final.y_pred.min() < 0.0, "expected a negative predictor"
    assert final.diagnostics.clip_count > 0
    assert np.array_equal(final.y_pred, every.y_pred)
    assert np.array_equal(final.y_corrected, every.y_corrected)


def test_final_and_all_stage_correction_share_the_corrector_on_graph_laplacian():
    # with no component below eps, the final-mode scaling of the only stage
    # is exactly one, which is what all-stages mode uses on its diagonal term
    model, _ = linear_exchange()
    y_n = np.array([0.75, 0.25])
    tab = implicit_euler()
    final, every = (
        corrected_step(model, 0.0, y_n, 0.5, tab, SolverConfig(correction=mode))
        for mode in ("final", "all")
    )
    assert final.y_pred.min() > SolverConfig().scaling.epsilon_fixed
    assert np.array_equal(final.y_corrected, every.y_corrected)


def test_strong_sign_model_skips_stage_clipping():
    # constant-matrix models satisfy the sign pattern for any argument,
    # so clipped and unclipped stage evaluations must agree exactly
    g = np.array([[-1.0, 0.5], [1.0, -0.5]])
    base = GraphLaplacianModel(
        dim=2, eval_G=lambda t, y: g,
        invariants=(LinearInvariant(np.ones(2), True, "mass"),),
    )
    strong = GraphLaplacianModel(
        dim=2, eval_G=lambda t, y: g, strong_sign=True,
        invariants=(LinearInvariant(np.ones(2), True, "mass"),),
    )
    y_n = np.array([1.0, 0.0])
    cfg = SolverConfig(method="sdirk21", correction="final")
    tab = tableau("sdirk21")
    a = corrected_step(base, 0.0, y_n, 0.4, tab, cfg)
    b = corrected_step(strong, 0.0, y_n, 0.4, tab, cfg)
    assert np.array_equal(a.y_corrected, b.y_corrected)
    assert b.y_corrected.min() >= 0.0


def test_all_stages_requires_stiffly_accurate():
    model, _ = linear_exchange()
    tab = ButcherTableau(
        name="midpoint-ish",
        A=np.array([[0.5]]),
        b=np.array([1.0]),
        b_hat=np.array([1.0]),
        c=np.array([0.5]),
        p=2,
        p_hat=1,
        gamma=0.5,
    )
    cfg = SolverConfig(correction="all")
    with pytest.raises(ConfigurationError):
        corrected_step(model, 0.0, np.array([1.0, 1.0]), 0.1, tab, cfg)


def test_integrate_zero_field_fixed_step_count():
    model = GraphLaplacianModel(dim=2, eval_G=lambda t, y: np.zeros((2, 2)), label="null")
    cfg = SolverConfig(mode="fixed", h_fixed=0.3)
    traj = integrate(model, cfg, 0.0, 1.0, np.array([1.0, 2.0]))
    assert traj.status == TrajectoryStatus.COMPLETED
    assert traj.steps_accepted == math.ceil(1.0 / 0.3)
    assert np.all(traj.states == [1.0, 2.0])
    assert traj.times[-1] == 1.0


def test_integrate_validates_span_and_initial_state():
    model, _ = linear_exchange()
    cfg = SolverConfig()
    with pytest.raises(ConfigurationError):
        integrate(model, cfg, 1.0, 1.0, np.array([1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        integrate(
            model,
            SolverConfig(correction="final"),
            0.0,
            1.0,
            np.array([-0.5, 1.0]),
        )


def test_integrate_deterministic():
    model = robertson()
    cfg = SolverConfig(method="sdirk21", atol=1e-6, rtol=1e-6, correction="final")
    a = integrate(model, cfg, 0.0, 100.0, model.y0)
    b = integrate(model, cfg, 0.0, 100.0, model.y0)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)


@pytest.mark.parametrize("name,order", [("sdirk21", 2), ("sdirk32", 3), ("sdirk43", 4)])
@pytest.mark.parametrize("mode", ["none", "final"])
def test_fixed_step_order_on_smooth_positive_problem(name, order, mode):
    from pdint.numerics import fit_slope

    model, g = linear_exchange()
    y0 = np.array([1.0, 1.0])
    tf = 2.0
    y_exact = scipy.linalg.expm(tf * g) @ y0
    hs, errs = [], []
    for n in (40, 80, 160, 320):
        cfg = SolverConfig(method=name, mode="fixed", h_fixed=tf / n, correction=mode)
        traj = integrate(model, cfg, 0.0, tf, y0)
        errs.append(np.linalg.norm(traj.states[-1] - y_exact) / np.linalg.norm(y_exact))
        hs.append(tf / n)
    assert fit_slope(hs, errs) == pytest.approx(order, abs=0.25)


def test_adaptive_accepts_only_small_errors():
    model = robertson()
    cfg = SolverConfig(method="sdirk21", atol=1e-6, rtol=1e-6)
    traj = integrate(model, cfg, 0.0, 10.0, model.y0)
    assert traj.status == TrajectoryStatus.COMPLETED
    assert traj.steps_accepted == len(traj.times) - 1
    assert np.all(np.diff(traj.times) > 0.0)
