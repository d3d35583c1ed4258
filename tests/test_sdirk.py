import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from pdint import sdirk
from pdint.correction import CorrectionMode, averaged_g_final, clip, corrector_solve, ratio_scaling
from pdint.pds import GraphLaplacianModel, LinearInvariant, assemble_g_from_rates, eval_rhs
from pdint.problems import robertson, stratospheric
from pdint.sdirk import (
    ButcherTableau,
    ConfigurationError,
    SolverConfig,
    StageConvergenceError,
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
    assert (tab.p_hat, tab.s) == (p_hat, s)
    assert tab.stiffly_accurate
    assert np.all(np.triu(tab.A, 1) == 0.0)
    assert np.allclose(np.diagonal(tab.A), tab.gamma, rtol=0, atol=0)
    assert abs(tab.b.sum() - 1.0) < 1e-14
    assert abs(tab.b_hat.sum() - 1.0) < 1e-14
    # the weights integrate polynomials exactly up to degree p - 1, not p
    for k in range(1, p + 1):
        assert abs(tab.b @ tab.c ** (k - 1) - 1.0 / k) < 1e-14
    assert abs(tab.b @ tab.c**p - 1.0 / (p + 1)) > 1e-3
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
            p_hat=1,
        )


def two_stage_fields():
    return dict(
        name="two-stage", A=np.array([[0.5, 0.0], [0.5, 0.5]]), b=np.array([0.5, 0.5]),
        b_hat=np.array([1.0, 0.0]), c=np.array([0.5, 1.0]), p_hat=1,
    )


@pytest.mark.parametrize(
    "field,value",
    [
        ("b", [1.0]),
        ("b_hat", [0.5, 0.25, 0.25]),
        ("c", [1.0]),
        ("b", [math.nan, 1.0]),
        ("b_hat", [math.inf, -math.inf]),
        ("c", [0.5, math.inf]),
        ("c", [0.5, 0.9]),
    ],
    ids=lambda v: str(v),
)
def test_tableau_rejects_vectors_of_wrong_length_or_non_finite(field, value):
    ButcherTableau(**two_stage_fields())
    with pytest.raises(ValueError):
        ButcherTableau(**{**two_stage_fields(), field: np.array(value)})


def test_solve_stage_constant_matrix_single_solve():
    model, g = linear_exchange()
    y_n = np.array([0.8, 0.4])
    h, a_ii = 0.3, 0.25
    y, _ = solve_stage(model, 0.0, y_n, h, a_ii, np.zeros(2))
    expected = np.linalg.solve(np.eye(2) - h * a_ii * g, y_n)
    assert np.allclose(y, expected, rtol=0, atol=1e-14)


def test_solve_stage_explicit_when_diagonal_zero():
    model, _ = linear_exchange()
    rhs_accum = np.array([0.1, -0.05])
    y, _ = solve_stage(model, 0.0, np.array([1.0, 2.0]), 0.5, 0.0, rhs_accum)
    assert np.array_equal(y, [1.1, 1.95])


def test_solve_stage_matches_newton_oracle_on_robertson(newton_stage_oracle):
    model = robertson()
    rng = np.random.default_rng(19)
    gamma = tableau("sdirk21").gamma
    for _ in range(10):
        y_n = np.array([rng.uniform(0.1, 1.0), rng.uniform(0.0, 1e-4), rng.uniform(0.0, 0.5)])
        h = 10.0 ** rng.uniform(-5, -2)
        y, _ = solve_stage(model, 0.0, y_n, h, gamma, np.zeros(3))
        y_oracle = newton_stage_oracle(model, 0.0, y_n, h, gamma, np.zeros(3))
        assert np.max(np.abs(y - y_oracle)) <= 1e-10 * (1.0 + np.max(np.abs(y_oracle)))


@pytest.mark.parametrize("h", [1.0, 100.0])
def test_solve_stage_converges_every_component_of_a_badly_scaled_system(h):
    # O1D (~1e2) sits fourteen decades below O2 (~1.7e16); a convergence
    # test scaled by the largest component would stop with O1D unconverged
    model = stratospheric()
    gamma = tableau("sdirk21").gamma
    t = model.t0 + gamma * h
    y, _ = solve_stage(model, t, model.y0, h, gamma, np.zeros(6))
    resid = y - model.y0 - h * gamma * eval_rhs(model, t, y)
    assert np.all(np.abs(resid) <= 1e-8 * np.abs(y))


def test_predictor_zero_field_is_identity():
    model = GraphLaplacianModel(dim=2, eval_G=lambda t, y: np.zeros((2, 2)), label="null")
    y_n = np.array([0.3, 0.7])
    stages, y_pred, y_hat, _ = predictor_step(model, 0.0, y_n, 0.5, SolverConfig())
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
    config = SolverConfig(method=name)
    h = 0.1
    _, y_pred, _, _ = predictor_step(model, 0.0, np.array([1.0]), h, config)
    assert y_pred[0] == pytest.approx(stability_function(config.tab, -h), rel=1e-12)


@pytest.mark.parametrize("name", ["sdirk21", "sdirk32", "sdirk43"])
def test_predictor_equals_last_stage_for_stiffly_accurate(name):
    model = robertson()
    stages, y_pred, _, _ = predictor_step(
        model, 0.0, np.array([0.7, 1e-5, 0.3]), 1e-3, SolverConfig(method=name)
    )
    assert y_pred is stages[-1]


def test_corrected_step_inactive_on_positive_trajectory():
    model, _ = linear_exchange()
    y_n = np.array([0.75, 0.25])
    for name in ("sdirk21", "sdirk32", "sdirk43"):
        for mode in ("none", "final", "all"):
            cfg = SolverConfig(method=name, correction=mode)
            out = corrected_step(model, 0.0, y_n, 0.2, cfg)
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
    cfg = SolverConfig(method="sdirk21", correction="final")
    out = corrected_step(model, t_n, y_n, h, cfg)
    assert out.y_pred.min() < 0.0, "expected an undershooting predictor"
    assert out.y_corrected.min() >= 0.0
    assert out.diagnostics.clip_count > 0
    assert out.diagnostics.scaling_active
    w_nitrogen = model.invariants[1].w
    assert w_nitrogen @ out.y_corrected == pytest.approx(w_nitrogen @ y_n, rel=1e-12)


@pytest.mark.parametrize("problem, t_n, y_n, h, method", [
    ("robertson", 0.0, np.array([0.9, 2e-5, 0.1]), 1.0, "sdirk32"),
    # the sunset step above, whose predictor undershoots
    ("stratospheric", 70206.12450645771,
     np.array([5.1072981229793005e-06, 2.6976319523012135e-06, 1.7780219185944734e09,
               1.6970796662147938e16, 1.0684618727971621e09, 2.8038127202820368e07]),
     2.205506169108543, "sdirk21"),
], ids=["clean", "clipped"])
def test_final_correction_builds_matrices_only_for_clipped_stages(monkeypatch, problem, t_n, y_n, h, method):
    model = robertson() if problem == "robertson" else stratospheric()
    cfg = SolverConfig(method=method, correction="final")
    calls = []

    def counted(t, y):
        calls.append(t)
        return model.eval_G(t, y)

    inside = []
    real = sdirk._final_stage_correction

    def spy(*args):
        before = len(calls)
        out = real(*args)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(sdirk, "_final_stage_correction", spy)
    out = corrected_step(dataclasses.replace(model, eval_G=counted), t_n, y_n, h, cfg)

    # the reference corrector evaluates every matrix at clip(Y_i)
    stages, y_pred, _, _ = predictor_step(model, t_n, y_n, h, cfg)
    tab = cfg.tab
    mats = [model.matrix(t_n + tab.c[i] * h, clip(y_i)) for i, y_i in enumerate(stages)]
    sigmas = [ratio_scaling(y_i, y_pred, cfg.eps) for y_i in stages]
    expected = clip(corrector_solve(y_n, h, averaged_g_final(tab.b, mats, sigmas)))
    assert np.array_equal(out.y_corrected, expected)
    negative = sum(bool(np.any(y_i < 0.0)) for y_i in stages)
    assert inside == [negative]
    assert (negative > 0) == (problem == "stratospheric")


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
        p_hat=1,
    )


def growth():
    """y' = 2y, whose implicit Euler stage matrix 1 - 2h is singular at h = 0.5."""
    return GraphLaplacianModel(dim=1, eval_G=lambda t, y: np.array([[2.0]]), y0=np.array([1.0]))


def test_singular_fixed_step_is_a_solver_failure():
    cfg = SolverConfig(method=implicit_euler(), mode="fixed", h_fixed=0.5)
    traj = integrate(growth(), cfg, 0.0, 1.0, np.array([1.0]))
    assert traj.status == TrajectoryStatus.SOLVER_FAILURE
    assert len(traj.attempts) == 1
    assert math.isnan(traj.attempts[0].min_predictor)


def test_singular_adaptive_step_is_halved():
    cfg = SolverConfig(method=implicit_euler(), h0=0.5)
    traj = integrate(growth(), cfg, 0.0, 1.0, np.array([1.0]))
    assert traj.status == TrajectoryStatus.COMPLETED
    assert math.isnan(traj.attempts[0].min_predictor)
    assert traj.attempts[1].h == 0.25
    assert (traj.steps_rejected, traj.steps_accepted) == (1, 2)
    _assert_counts(traj)


@pytest.mark.parametrize("h", [0.1, 0.2])
def test_final_and_all_stage_correction_share_the_corrector_on_flux_form(h):
    # on an H-form model both modes scale every column by 1/max(y_pred, eps)
    from pdint.problems import KdvConfig, kdv

    model = kdv(KdvConfig(n_cells=32))
    tab = implicit_euler()
    final, every = (
        corrected_step(model, 0.0, model.y0, h, SolverConfig(method=tab, correction=mode))
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
        corrected_step(model, 0.0, y_n, 0.5, SolverConfig(method=tab, correction=mode))
        for mode in ("final", "all")
    )
    assert final.y_pred.min() > SolverConfig().eps
    assert np.array_equal(final.y_corrected, every.y_corrected)


@pytest.mark.parametrize("mode", ["final", "all"])
def test_ratio_scaling_floor_reaches_the_corrector(mode):
    # Robertson's trace species fall below a floor of 1e-6, so raising it
    # from the default 1e-10 shrinks their scalings and moves the state
    model = robertson()
    default = SolverConfig(mode="fixed", h_fixed=2000.0, correction=mode)
    floored = SolverConfig(mode="fixed", h_fixed=2000.0, correction=mode, eps=1e-6)
    a, b = (integrate(model, cfg, 0.0, 1e4, model.y0) for cfg in (default, floored))
    assert a.status == b.status == TrajectoryStatus.COMPLETED
    assert np.array_equal(a.times, b.times)
    assert 1e-6 < np.max(np.abs(a.states[-1] - b.states[-1])) < 1e-5
    assert b.min_component >= 0.0


def test_all_stages_requires_stiffly_accurate():
    tab = ButcherTableau(
        name="midpoint-ish",
        A=np.array([[0.5]]),
        b=np.array([1.0]),
        b_hat=np.array([1.0]),
        c=np.array([0.5]),
        p_hat=1,
    )
    with pytest.raises(ConfigurationError):
        SolverConfig(method=tab, correction="all")


def test_solver_config_rejects_an_unknown_method_when_built():
    with pytest.raises(ConfigurationError, match="unknown method"):
        SolverConfig(method="no-such")


def test_solver_config_builds_its_tableau_once_per_run(monkeypatch):
    calls = []

    def counted():
        calls.append(None)
        return tableau("sdirk32")

    monkeypatch.setitem(sdirk._TABLEAUS, "sdirk32-counted", counted)
    cfg = SolverConfig(method="sdirk32-counted", correction="final")
    model = robertson()
    traj = integrate(model, cfg, 0.0, 10.0, model.y0)
    assert traj.status == TrajectoryStatus.COMPLETED
    assert len(traj.attempts) > 1
    assert len(calls) == 1
    assert cfg.tab is cfg.tab
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tab = tableau("sdirk21")


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
    # a span not above the step floor 1e4 * eps * max(|t0|, |tf|) = 0.022
    rob = robertson()
    for cfg in (SolverConfig(correction="final"), SolverConfig(mode="fixed", h_fixed=0.005)):
        with pytest.raises(ConfigurationError):
            integrate(rob, cfg, 1e10, 1e10 + 0.01, rob.y0)


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


# Every way integrate rejects a step, pinned on exact step sizes.


def _assert_counts(traj):
    assert traj.steps_accepted + traj.steps_rejected == len(traj.attempts)
    assert traj.steps_accepted == sum(a.accepted for a in traj.attempts)


def _failing_above(monkeypatch, h_fail):
    """Make every stage solve with a step above ``h_fail`` raise."""
    real = sdirk.solve_stage

    def stage(model, t, y_n, h, *args, **kwargs):
        if h > h_fail:
            raise StageConvergenceError("forced failure")
        return real(model, t, y_n, h, *args, **kwargs)

    monkeypatch.setattr(sdirk, "solve_stage", stage)


def test_adaptive_stage_failure_halves_the_step(monkeypatch):
    _failing_above(monkeypatch, 0.3)
    model, _ = linear_exchange()
    traj = integrate(model, SolverConfig(h0=0.4), 0.0, 4.0, model.y0)
    assert traj.status == TrajectoryStatus.COMPLETED
    failed = [k for k, a in enumerate(traj.attempts) if math.isnan(a.min_predictor)]
    assert failed and failed[0] == 0
    for k in failed:
        assert not traj.attempts[k].accepted
        assert traj.attempts[k + 1].t == traj.attempts[k].t
        assert traj.attempts[k + 1].h == traj.attempts[k].h / 2.0
    _assert_counts(traj)


def test_stage_solver_that_always_fails_ends_step_too_small(monkeypatch):
    _failing_above(monkeypatch, 0.0)
    model, _ = linear_exchange()
    traj = integrate(model, SolverConfig(), 0.0, 1.0, model.y0)
    assert traj.status == TrajectoryStatus.STEP_TOO_SMALL
    assert len(traj.times) == 1
    assert not any(a.accepted for a in traj.attempts)
    hs = [a.h for a in traj.attempts]
    assert all(b == a / 2.0 for a, b in zip(hs, hs[1:]))
    _assert_counts(traj)


def test_fixed_stage_failure_is_a_solver_failure(monkeypatch):
    _failing_above(monkeypatch, 0.0)
    model, _ = linear_exchange()
    traj = integrate(model, SolverConfig(mode="fixed", h_fixed=0.1), 0.0, 1.0, model.y0)
    assert traj.status == TrajectoryStatus.SOLVER_FAILURE
    assert len(traj.attempts) == 1
    assert math.isnan(traj.attempts[0].min_predictor)
    _assert_counts(traj)


def test_exhausted_attempt_budget_is_a_solver_failure(monkeypatch):
    monkeypatch.setattr(sdirk, "_MAX_ATTEMPTS", 5)
    model = robertson()
    traj = integrate(model, SolverConfig(), 0.0, 1e4, model.y0)
    assert traj.status == TrajectoryStatus.SOLVER_FAILURE
    assert len(traj.attempts) == 5
    _assert_counts(traj)


def test_guard_rejection_halves_the_step(monkeypatch):
    from pdint.problems import KdvConfig, kdv

    errors = {}
    real = sdirk.corrected_step

    def step(model, t, y, h, config, history=None):
        out = real(model, t, y, h, config, history)
        errors[t, h] = out.err
        return out

    monkeypatch.setattr(sdirk, "corrected_step", step)
    model = kdv(KdvConfig(n_cells=64))
    cfg = SolverConfig(correction="none", positivity_guard_rejection=True, h0=0.35e-2)
    traj = integrate(model, cfg, 0.0, 0.12, model.y0)
    guarded = [
        k for k, a in enumerate(traj.attempts[:-1])
        if a.min_predictor < 0.0 and errors[a.t, a.h] <= 1.0
    ]
    assert guarded
    for k in guarded:
        assert not traj.attempts[k].accepted
        assert traj.attempts[k + 1].t == traj.attempts[k].t
        assert traj.attempts[k + 1].h == traj.attempts[k].h / 2.0
    _assert_counts(traj)


@pytest.mark.parametrize("mode", ["none", "final", "all"])
def test_attempts_split_into_accepted_and_rejected(mode):
    model = stratospheric()
    cfg = SolverConfig(method="sdirk32", correction=mode)
    traj = integrate(model, cfg, 19 * 3600.0, 19 * 3600.0 + 120.0, model.y0)
    assert traj.steps_rejected > 0
    _assert_counts(traj)


def test_attempt_record_holds_each_step_once(monkeypatch):
    from pdint.problems import KdvConfig, kdv

    clips = {}
    real = sdirk.corrected_step

    def step(model, t, y, h, config, history=None):
        out = real(model, t, y, h, config, history)
        clips[t, h] = out.diagnostics.clip_count
        return out

    monkeypatch.setattr(sdirk, "corrected_step", step)
    model = kdv(KdvConfig(n_cells=64))
    cfg = SolverConfig(method="sdirk32", correction="all", atol=1e-3, rtol=1e-3, h0=0.35e-2)
    traj = integrate(model, cfg, 0.0, 0.35, model.y0)
    a = traj.attempts
    assert a.nbytes <= 48 * len(a)
    ok = a.accepted
    assert traj.times[1:].tobytes() == (a.t + a.h)[ok].tobytes()
    assert traj.h_used[1:].tobytes() == a.h[ok].tobytes()
    assert traj.clip_counts[1:].tobytes() == a.clip_count[ok].tobytes()
    assert traj.clip_counts.dtype == np.int64
    assert a.clip_count[ok].tolist() == [clips[r.t, r.h] for r in a[ok]]
    # the rejected steps clipped too, but a rejected row records no clips
    assert any(clips[r.t, r.h] > 0 for r in a[~ok])
    assert not a.clip_count[~ok].any()
    _assert_counts(traj)


def test_fixed_mode_rejects_the_positivity_guard():
    # the guard retries with half the step, which a fixed grid cannot take
    with pytest.raises(ConfigurationError):
        SolverConfig(mode="fixed", h_fixed=0.05, positivity_guard_rejection=True)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"atol": math.nan},
        {"atol": math.inf},
        {"rtol": math.nan},
        {"rtol": math.inf},
        {"h0": math.nan},
        {"h0": math.inf},
        {"mode": "fixed", "h_fixed": math.nan},
        {"mode": "fixed", "h_fixed": math.inf},
    ],
    ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
)
def test_solver_config_rejects_non_finite_settings(kwargs):
    with pytest.raises(ConfigurationError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize(
    "t0,tf", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)]
)
def test_integrate_rejects_non_finite_span(t0, tf):
    model, _ = linear_exchange()
    with pytest.raises(ConfigurationError):
        integrate(model, SolverConfig(), t0, tf, model.y0)


@pytest.mark.parametrize("eps", [0.0, math.nan, math.inf])
def test_solver_config_eps_must_be_positive_and_finite(eps):
    with pytest.raises(ConfigurationError):
        SolverConfig(eps=eps)
    # frozen, so a validated config cannot be changed afterwards
    with pytest.raises(dataclasses.FrozenInstanceError):
        SolverConfig().eps = eps


def _count_calls(monkeypatch, name):
    """Wrap ``sdirk.<name>`` so that each call is counted."""
    real, calls = getattr(sdirk, name), []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(sdirk, name, counted)
    return calls


def test_fast_contracting_picard_stage_needs_no_newton(monkeypatch):
    # from the stratospheric y0 at h = 1e-3 the updates shrink at least
    # 60-fold per iteration: the handover test must let Picard finish
    model = stratospheric()
    gamma, h = tableau("sdirk21").gamma, 1e-3
    solves = _count_calls(monkeypatch, "lu_solve")
    newton = _count_calls(monkeypatch, "_newton_stage")
    solve_stage(model, model.t0 + gamma * h, model.y0, h, gamma, np.zeros(6))
    assert len(newton) == 0
    assert len(solves) > 2  # Picard ran past the first check of the rate


@pytest.mark.parametrize("h", [1.0, 100.0])
def test_picard_stage_predicted_not_to_converge_hands_over_after_two_updates(monkeypatch, h):
    # a stiff Robertson stage: the second update is no smaller than the first
    model = robertson()
    gamma = tableau("sdirk21").gamma
    solves = _count_calls(monkeypatch, "lu_solve")
    newton = _count_calls(monkeypatch, "_newton_stage")
    solve_stage(model, gamma * h, model.y0, h, gamma, np.zeros(3))
    assert (len(solves), len(newton)) == (2, 1)


@pytest.mark.parametrize("h", [1e-3, 1.0, 100.0])
def test_handed_over_stage_matches_newton_oracle(monkeypatch, newton_stage_oracle, h):
    model = robertson()
    gamma = tableau("sdirk21").gamma
    newton = _count_calls(monkeypatch, "_newton_stage")
    y, _ = solve_stage(model, gamma * h, model.y0, h, gamma, np.zeros(3))
    assert len(newton) == 1
    y_oracle = newton_stage_oracle(model, gamma * h, model.y0, h, gamma, np.zeros(3))
    assert np.max(np.abs(y - y_oracle)) <= 1e-10 * (1.0 + np.max(np.abs(y_oracle)))


@pytest.mark.parametrize("method", ["sdirk21", "sdirk32", "sdirk43"])
def test_stages_after_the_first_newton_factorization_skip_picard(monkeypatch, newton_stage_oracle, method):
    # MAPK's first stage makes two Picard updates and hands over to Newton;
    # every later stage has the same h*gamma, so it goes straight to Newton
    # with the factored matrix the first stage left
    from pdint.problems import mapk

    model, h = mapk(), 0.5
    tab = tableau(method)
    solves = _count_calls(monkeypatch, "lu_solve")
    builds = _count_calls(monkeypatch, "_fd_jacobian")
    newton = _count_calls(monkeypatch, "_newton_stage")
    config = SolverConfig(method=method, mode="fixed", h_fixed=h)
    predictor_step(model, model.t0, model.y0, h, config)
    assert (len(solves), len(builds), len(newton)) == (2, 1, tab.s)

    t1, t2 = model.t0 + tab.c[0] * h, model.t0 + tab.c[1] * h
    y1, factors = solve_stage(model, t1, model.y0, h, tab.A[0, 0], np.zeros(model.dim))
    assert factors is not None
    rhs_accum = h * tab.A[1, 0] * eval_rhs(model, t1, y1)
    solves.clear()
    y2, _ = solve_stage(model, t2, model.y0, h, tab.A[1, 1], rhs_accum, factors)
    assert len(solves) == 0
    y_oracle = newton_stage_oracle(model, t2, model.y0, h, tab.A[1, 1], rhs_accum)
    assert np.max(np.abs(y2 - y_oracle)) <= 1e-10 * (1.0 + np.max(np.abs(y_oracle)))


@pytest.mark.parametrize("problem, h", [("mapk", 0.5), ("stratospheric", 2.0**-10)])
def test_stage_1_skips_picard_exactly_when_the_last_stage_1_ended_in_newton(monkeypatch, problem, h):
    # MAPK's first stage 1 hands over to Newton, so the next step's stage 1
    # starts in Newton; stratospheric Picard converges, so it keeps Picard
    from pdint import problems

    model = getattr(problems, problem)()
    solves = _count_calls(monkeypatch, "lu_solve")
    real, firsts = sdirk.solve_stage, []

    def stage(model, t, y_n, h, a_ii, rhs_accum, *args):
        before = len(solves)
        y, factors = real(model, t, y_n, h, a_ii, rhs_accum, *args)
        if not rhs_accum.any():  # stage 1
            firsts.append((len(solves) - before, factors is not None))
        return y, factors

    monkeypatch.setattr(sdirk, "solve_stage", stage)
    config = SolverConfig(mode="fixed", h_fixed=h)
    traj = integrate(model, config, model.t0, model.t0 + 2 * h, model.y0)
    assert traj.status == TrajectoryStatus.COMPLETED and traj.steps_accepted == 2
    (picard_1, newton_1), (picard_2, _) = firsts
    assert picard_1 > 0 and newton_1 == (problem == "mapk")
    assert (picard_2 == 0) == newton_1


@pytest.mark.parametrize("kind", ["graph_laplacian", "h_form"])
def test_a_graph_laplacian_start_off_the_orthant_is_not_used(kind):
    # G is a Laplacian only on the nonnegative orthant, so a graph-Laplacian
    # stage with a negative entry in its start starts from y_n; an H-form
    # start is taken as given
    from pdint.problems import KdvConfig, kdv

    if kind == "graph_laplacian":
        model, field = robertson(), "eval_G"
    else:
        model, field = kdv(KdvConfig(n_cells=16)), "eval_rhs"
    seen, real = [], getattr(model, field)

    def recording(*args):
        seen.append(args[-1].copy())
        return real(*args)

    model = dataclasses.replace(model, **{field: recording})
    start = 1.5 * model.y0
    start[1] = -0.5 * abs(start[1]) - 1e-3
    gamma = tableau("sdirk21").gamma
    for guess, first in [(start, model.y0 if kind == "graph_laplacian" else start), (clip(start),) * 2]:
        seen.clear()
        solve_stage(model, model.t0, model.y0, 1e-3, gamma, np.zeros(model.dim), None, guess)
        assert seen[0].tobytes() == first.tobytes()


@pytest.mark.parametrize("kind, skip_picard", [("graph_laplacian", False), ("graph_laplacian", True),
                                               ("h_form", False)])
def test_a_stage_that_fails_from_its_guess_is_solved_as_without_one(monkeypatch, kind, skip_picard):
    # solve_stage's ladder: the guessed start (or Newton without Picard),
    # then the default start, Picard first, with the same carried factors
    from pdint.problems import KdvConfig, kdv

    model = robertson() if kind == "graph_laplacian" else kdv(KdvConfig(n_cells=16))
    h, gamma, zero = 1e-2, tableau("sdirk21").gamma, np.zeros(model.dim)
    default = solve_stage(model, model.t0, model.y0, h, gamma, zero)
    guess = None if skip_picard else 1.01 * model.y0
    real, starts = sdirk._newton_stage, []

    def newton(*args):
        starts.append(args[4])
        if len(starts) == 1:
            raise StageConvergenceError("no descent from the guess")
        return real(*args)

    monkeypatch.setattr(sdirk, "_newton_stage", newton)
    y, factors = solve_stage(model, model.t0, model.y0, h, gamma, zero, None, guess, not skip_picard)
    assert (starts[0] is model.y0) == skip_picard and len(starts) >= 1 + (kind == "h_form")
    assert y.tobytes() == default[0].tobytes() and (factors is None) == (default[1] is None)


def test_an_h_form_stage_that_fails_is_not_solved_again_from_the_same_start(monkeypatch):
    # an H-form model never runs Picard, so after a stage 1 that ended in
    # Newton, skipping Picard changes nothing, and a failure is final
    from pdint.problems import KdvConfig, kdv

    model, h = kdv(KdvConfig(n_cells=16)), 0.35 / 128
    starts = []

    def newton(*args):
        starts.append(args[4].copy())
        raise StageConvergenceError("no descent")

    monkeypatch.setattr(sdirk, "_newton_stage", newton)
    history = sdirk._History(newton_first=True)
    with pytest.raises(StageConvergenceError):
        corrected_step(model, 0.0, model.y0, h, SolverConfig(mode="fixed", h_fixed=h), history)
    assert len({y.tobytes() for y in starts}) == len(starts)


def test_an_uncorrected_run_keeps_mass_to_round_off():
    # Newton's last update moves w.Y by -w.r, so the residual the stage test
    # allows, up to about 1e-12 relative, does not reach an exact invariant;
    # without that update this model drifted 5.7e-13 in one step
    rng = np.random.default_rng(0)
    for _ in range(120):
        rates, k = 10.0 ** rng.uniform(-3, 3, (3, 3)), rng.uniform(-8, 8, (3, 3))
    np.fill_diagonal(rates, 0.0)

    def eval_G(t, y):
        return assemble_g_from_rates(rates * np.exp(k * t) / (1.0 + y * y)[:, None])

    a = np.array([[0.25, 0.0], [0.75, 0.25]])
    tab = ButcherTableau(name="gamma 1/4", A=a, b=a[-1].copy(), b_hat=np.array([0.5, 0.5]), c=a.sum(1), p_hat=1)
    config = SolverConfig(method=tab, h0=0.2, correction="none")
    traj = integrate(mass_model(eval_G, 3), config, 0.0, 1.0, np.array([0.0, 1.0, 0.0]))
    assert traj.status == TrajectoryStatus.COMPLETED
    assert np.abs(np.diff(traj.invariant_values["mass"])).max() <= 2e-14


def test_no_state_outlives_a_run():
    # a run's stage starts come from its own accepted states only
    from pdint.problems import mapk

    config = SolverConfig(method="sdirk32", correction="final")

    def run(model, tf):
        traj = integrate(model, config, model.t0, tf, model.y0)
        assert traj.status == TrajectoryStatus.COMPLETED and traj.steps_accepted > 2
        return traj.states.tobytes(), traj.attempts.tobytes()

    first = run(robertson(), 100.0)
    run(mapk(), 10.0)
    assert run(robertson(), 100.0) == first


@pytest.mark.parametrize("method", ["sdirk21", "sdirk32"])
def test_newton_stages_of_one_step_share_one_factored_matrix(monkeypatch, method):
    # every stage of an SDIRK step has the same h*gamma, so one Jacobian
    # and one factorization serve all its Newton stage solves
    from pdint.problems import KdvConfig, kdv

    model = kdv(KdvConfig(n_cells=64))
    builds = _count_calls(monkeypatch, "_fd_jacobian")
    factors = _count_calls(monkeypatch, "lu_factor")
    config = SolverConfig(method=method, mode="fixed", h_fixed=0.35 / 128)
    traj = integrate(model, config, 0.0, 0.35 / 128, model.y0)
    assert traj.status == TrajectoryStatus.COMPLETED and traj.steps_accepted == 1
    assert (len(builds), len(factors)) == (1, 1)


def test_newton_stage_recovers_from_a_wrong_carried_matrix(monkeypatch):
    from pdint.numerics import lu_back_solve, lu_factor
    from pdint.problems import KdvConfig, kdv

    model = kdv(KdvConfig(n_cells=64))
    gamma, h = tableau("sdirk21").gamma, 0.05  # ||h*gamma*J|| = 1.2, so I is far off
    y_n = model.y0
    fresh, _ = solve_stage(model, gamma * h, y_n, h, gamma, np.zeros(64))
    builds = _count_calls(monkeypatch, "_fd_jacobian")
    y, factors = solve_stage(model, gamma * h, y_n, h, gamma, np.zeros(64), lu_factor(np.eye(64)))
    assert len(builds) == 1, "the wrong matrix should have been rebuilt"
    assert factors is not None and not np.array_equal(lu_back_solve(factors, y_n), y_n)
    resid = y - y_n - h * gamma * eval_rhs(model, gamma * h, y)
    scale = np.abs(y_n).max()
    weights = sdirk._STAGE_TOL * (np.clip(model.y_scale, 1e-30, scale) + np.abs(y))
    assert np.sqrt(np.mean((resid / weights) ** 2)) <= 1.0
    assert np.max(np.abs(y - fresh)) <= 1e-10 * np.max(np.abs(fresh))


@pytest.mark.parametrize("n_cells", [16, 1024])
def test_fd_jacobian_on_the_declared_pattern_equals_the_dense_one(n_cells):
    from scipy import sparse

    from pdint.problems import KdvConfig, kdv

    model = kdv(KdvConfig(n_cells=n_cells, shift=0.5))
    dense = dataclasses.replace(model, jac_sparsity=None)
    y = model.y0 * np.random.default_rng(n_cells).uniform(0.5, 1.5, n_cells)
    f = eval_rhs(model, 0.0, y)
    jac = sdirk._fd_jacobian(model, 0.0, y, f)
    assert sparse.issparse(jac) and jac.format == "csc"
    assert np.array_equal(jac.toarray(), sdirk._fd_jacobian(dense, 0.0, y, f))


def _fd_jacobian_by_full_columns(model, t, y, f0):
    """Reference pattern Jacobian: each full-length difference column, then its pattern rows."""
    from scipy import sparse

    jac = sparse.csc_array(model.jac_sparsity, dtype=float, copy=True)
    jac.sum_duplicates()
    ptr, rows = jac.indptr, jac.indices
    ynorm = max(np.max(np.abs(y)), 1e-30)
    sq = math.sqrt(np.finfo(float).eps)
    for j in range(y.size):
        dy = sq * max(abs(y[j]), 1e-4 * ynorm)
        yp = y.copy()
        yp[j] += dy
        col = (eval_rhs(model, t, yp) - f0) / dy
        jac.data[ptr[j]:ptr[j + 1]] = col[rows[ptr[j]:ptr[j + 1]]]
    return jac


@pytest.mark.parametrize(
    "n_cells,settings",
    [(16, {}), (1024, {}), (64, {"alpha": -0.5, "rho": 0.25, "nu": 2.0, "shift": 0.5})],
    ids=["16", "1024", "64-alpha-rho-nu"],
)
def test_fd_jacobian_on_the_pattern_equals_full_columns_gathered(monkeypatch, n_cells, settings):
    from pdint.problems import KdvConfig, kdv

    model = kdv(KdvConfig(n_cells=n_cells, **settings))
    y = model.y0 * np.random.default_rng(n_cells).uniform(0.5, 1.5, n_cells)
    y[n_cells // 2] = 0.0  # dy falls back to 1e-4 * max|y| here
    f = eval_rhs(model, 0.0, y)
    y_before, f_before = y.copy(), f.copy()
    expected = _fd_jacobian_by_full_columns(model, 0.0, y, f)
    calls = _count_calls(monkeypatch, "eval_rhs")
    jac = sdirk._fd_jacobian(model, 0.0, y, f)
    assert len(calls) == n_cells
    assert np.array_equal(jac.indptr, expected.indptr)
    assert np.array_equal(jac.indices, expected.indices)
    assert jac.data.tobytes() == expected.data.tobytes()
    assert y.tobytes() == y_before.tobytes() and f.tobytes() == f_before.tobytes()


@pytest.mark.parametrize("columns", [1, 5, 16])
def test_fd_jacobian_buffered_by_runs_of_columns_is_unchanged(monkeypatch, columns):
    from pdint.problems import KdvConfig, kdv

    model = kdv(KdvConfig(n_cells=16))
    y = model.y0 * np.random.default_rng(3).uniform(0.5, 1.5, 16)
    f = eval_rhs(model, 0.0, y)
    expected = _fd_jacobian_by_full_columns(model, 0.0, y, f)
    dense_model = dataclasses.replace(model, jac_sparsity=None)
    ynorm, sq = np.max(np.abs(y)), math.sqrt(np.finfo(float).eps)
    dense_expected = np.empty((16, 16))
    for j in range(16):
        dy = sq * max(abs(y[j]), 1e-4 * ynorm)
        yp = y.copy()
        yp[j] += dy
        dense_expected[:, j] = (eval_rhs(model, 0.0, yp) - f) / dy
    monkeypatch.setattr(sdirk, "_FD_BUFFER", 16 * columns)  # 16 = 3 * 5 + 1 leaves a short run
    jac = sdirk._fd_jacobian(model, 0.0, y, f)
    assert jac.data.tobytes() == expected.data.tobytes()
    dense = sdirk._fd_jacobian(dense_model, 0.0, y, f)
    assert dense.tobytes() == dense_expected.tobytes()


@pytest.mark.parametrize("mode", ["final", "all"])
@pytest.mark.parametrize("method", ["sdirk21", "sdirk32"])
def test_sparse_kdv_agrees_with_the_same_model_made_dense(method, mode):
    from pdint.pds import invariant_error
    from pdint.problems import KdvConfig, kdv

    model = kdv(KdvConfig(n_cells=64))
    dense = dataclasses.replace(
        model, eval_H=lambda y: model.eval_H(y).toarray(), jac_sparsity=None
    )
    config = SolverConfig(method=method, mode="fixed", h_fixed=0.35 / 128, correction=mode)
    sparse_traj, dense_traj = (
        integrate(m, config, 0.0, 8 * 0.35 / 128, model.y0) for m in (model, dense)
    )
    for traj in (sparse_traj, dense_traj):
        assert traj.status == TrajectoryStatus.COMPLETED
        assert invariant_error(traj, model.invariants[0].w) <= 1e-12
    assert sparse_traj.steps_accepted == dense_traj.steps_accepted == 8
    assert len(sparse_traj.attempts) == len(dense_traj.attempts)
    y_s, y_d = sparse_traj.states[-1], dense_traj.states[-1]
    assert np.max(np.abs(y_s - y_d)) <= 1e-12 * np.max(np.abs(y_d))


def test_failed_newton_stage_is_not_repeated_from_the_same_start(monkeypatch):
    # KdV's first stage starts Newton from y_n > 0 with no carried matrix,
    # so a restart from clip(y_n) would only rebuild and fail the same way
    from pdint.problems import KdvConfig, kdv

    model = kdv(KdvConfig(n_cells=64))
    gamma, h = tableau("sdirk21").gamma, 0.05
    assert model.y0.min() > 0.0
    monkeypatch.setattr(sdirk, "_STAGE_MAX_ITER", 1)  # too few iterations at this h
    builds = _count_calls(monkeypatch, "_fd_jacobian")
    with pytest.raises(StageConvergenceError):
        solve_stage(model, gamma * h, model.y0, h, gamma, np.zeros(64))
    assert len(builds) == 1


@pytest.mark.parametrize("h", [100.0, 500.0, 1000.0, 2000.0])
def test_robertson_sdirk32_large_fixed_steps_complete(h):
    # a31 < 0 makes stage 3's right-hand side negative; the rate handover
    # gives that stage to Newton, which converges without a restart (the
    # restart from clip(rhs) is pinned by the photochemistry test below)
    model = robertson()
    for mode in ("none", "final", "all"):
        config = SolverConfig(method="sdirk32", mode="fixed", h_fixed=h, correction=mode)
        traj = integrate(model, config, 0.0, 1e4, model.y0)
        assert traj.status == TrajectoryStatus.COMPLETED, (mode, traj.attempts[-1])
        mass = traj.invariant_values["total_mass"]
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]
        if mode != "none":
            assert traj.min_component >= 0.0


@pytest.mark.parametrize("mode", ["none", "final", "all"])
def test_newton_restart_completes_large_fixed_photochemistry_steps(monkeypatch, mode):
    # at h = 3600 s from 12 h a stage equation can have more than one root;
    # every guessed start must lead Newton to the root solve_stage's default
    # start finds: uncorrected, O1D is 8.90e6 at 13 h, as a Radau reference
    # gives, where the other root of stage 2 reads 3.4e11
    from pdint.pds import invariant_error

    model = stratospheric()
    config = SolverConfig(method="sdirk21", mode="fixed", h_fixed=3600.0, correction=mode)
    traj = integrate(model, config, 12 * 3600.0, 36 * 3600.0, model.y0)
    assert traj.status == TrajectoryStatus.COMPLETED, traj.attempts[-1]
    assert traj.steps_accepted == 24
    m_n = next(inv for inv in model.invariants if inv.label == "M_N")
    assert invariant_error(traj, m_n.w) <= 1e-12
    if mode != "none":
        assert traj.min_component >= 0.0
    if mode == "none":
        assert traj.states[1][0] == pytest.approx(8.90e6, rel=1e-3)
    real = sdirk.solve_stage
    monkeypatch.setattr(sdirk, "solve_stage", lambda *args: real(*args[:7]))  # the default starts
    ref = integrate(model, config, 12 * 3600.0, 36 * 3600.0, model.y0)
    assert np.all(np.abs(traj.states - ref.states) <= 1e-8 * np.maximum(np.abs(ref.states), model.y_scale))


def test_newton_restart_solves_a_stage_with_no_descent_from_y_n(monkeypatch):
    # sdirk21 steps of h = 3600 s from 12 h, each stage from solve_stage's
    # default start, reach 15 h; there stage 2's Newton, started from y_n
    # with stage 1's factors, finds no descent, and only the restart from
    # clip(rhs) with a fresh matrix solves that stage
    real, failed_at = sdirk._newton_stage, []

    def newton(*args):
        try:
            return real(*args)
        except StageConvergenceError:
            failed_at.append((args[1], args[-1] is not None))  # stage time, carried factors
            raise

    monkeypatch.setattr(sdirk, "_newton_stage", newton)
    model, tab, h = stratospheric(), tableau("sdirk21"), 3600.0
    a, c = tab.A, tab.c
    t, y = 12 * 3600.0, model.y0
    while t < 16 * 3600.0:
        y_n = y
        y1, factors = solve_stage(model, t + c[0] * h, y_n, h, a[0, 0], np.zeros(model.dim))
        assert factors is not None
        rhs_accum = h * a[1, 0] * eval_rhs(model, t + c[0] * h, y1)
        y, _ = solve_stage(model, t + h, y_n, h, a[1, 1], rhs_accum, factors)
        t += h
    assert failed_at == [(16 * 3600.0, True)], "the restart was not exercised"
    rhs = y_n + rhs_accum
    resid = y - rhs - h * a[1, 1] * eval_rhs(model, t, y)
    scale = max(np.abs(y_n).max(), np.abs(rhs).max())
    weights = sdirk._STAGE_TOL * (np.clip(model.y_scale, 1e-30, scale) + np.abs(y))
    assert np.sqrt(np.mean((resid / weights) ** 2)) <= 1.0


@pytest.mark.parametrize("mode", ["final", "all"])
def test_kdv_step_hands_splu_no_stored_zeros(monkeypatch, mode):
    import scipy.sparse.linalg

    from pdint.problems import KdvConfig, kdv

    factored = []
    real = scipy.sparse.linalg.splu

    def splu(a, *args, **kwargs):
        factored.append(a.copy())
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    model = kdv(KdvConfig(n_cells=64))
    assert np.count_nonzero(model.eval_H(model.y0).data == 0.0) > 0  # H stores zeros
    config = SolverConfig(mode="fixed", h_fixed=0.35 / 128, correction=mode)
    corrected_step(model, 0.0, model.y0, 0.35 / 128, config)
    assert len(factored) >= 2  # Newton's I - h*gamma*J and the corrector matrix
    for a in factored:
        assert a.format == "csc" and np.count_nonzero(a.data == 0.0) == 0


def mass_model(eval_G, dim):
    return GraphLaplacianModel(
        dim=dim, eval_G=eval_G, invariants=(LinearInvariant(np.ones(dim), exact=True, label="mass"),)
    )


def test_explicit_heun_step_is_corrected_to_nonnegative_and_conservative():
    # gamma = 0: every stage is explicit, and b differs from the last row of A
    heun = ButcherTableau(
        name="heun", A=np.array([[0.0, 0.0], [1.0, 0.0]]), b=np.array([0.5, 0.5]),
        b_hat=np.array([1.0, 0.0]), c=np.array([0.0, 1.0]), p_hat=1,
    )
    g = np.array([[-1.0, 0.0], [1.0, 0.0]])
    model = mass_model(lambda t, y: g, 2)
    plain, corrected = (
        integrate(model, SolverConfig(method=heun, mode="fixed", h_fixed=2.5, correction=mode),
                  0.0, 10.0, np.array([1.0, 0.0]))
        for mode in ("none", "final")
    )
    assert plain.min_component < 0.0  # -5.97
    assert corrected.status == TrajectoryStatus.COMPLETED
    assert corrected.steps_accepted == 4
    assert corrected.min_component >= 0.0
    mass = corrected.invariant_values["mass"]
    assert np.max(np.abs(mass - mass[0])) <= 1e-12


@pytest.mark.parametrize("h", [0.92, 0.23])
def test_final_correction_with_negative_weights_keeps_mass(h):
    # sdirk43's b2 and b4 are negative; at h = 0.92 the averaged matrix loses
    # its M-matrix sign pattern and three raw corrector entries go negative,
    # whose clip would raise the mass by 10.3%, so the output is solved again
    # with the positive weights; at h = 0.23 nothing is clipped
    rates = np.array([[0.0, 0.0036, 0.091], [0.24, 0.0, 890.0], [26.0, 0.023, 0.0]])
    k = np.array([[-5.0, 2.0, 6.0], [2.0, 0.0, -7.0], [-2.0, 8.0, -5.0]])
    model = mass_model(
        # each donor row i is divided by 1 + y_i**2
        lambda t, y: assemble_g_from_rates(rates * np.exp(k * t) / (1.0 + y**2)[:, np.newaxis]), 3
    )
    y_n = np.array([4.9, 0.0, 2.6e-4])
    out = corrected_step(model, 0.0, y_n, h, SolverConfig(method="sdirk43", correction="final"))
    assert abs(out.y_corrected.sum() - y_n.sum()) <= 1e-12 * y_n.sum()


@pytest.mark.parametrize("name", ["sdirk21", "sdirk32", "sdirk43"])
def test_a_user_tableau_integrates_as_the_built_in_one_of_the_same_coefficients(name):
    built_in = tableau(name)
    user = ButcherTableau(
        name="user", A=np.array(built_in.A.tolist()), b=np.array(built_in.b.tolist()),
        b_hat=np.array(built_in.b_hat.tolist()), c=np.array(built_in.c.tolist()),
        p_hat=built_in.p_hat,
    )
    model = stratospheric()
    for correction in ("none", "final", "all"):
        if correction == "all" and not built_in.stiffly_accurate:
            continue
        a, b = (integrate(model, SolverConfig(method=m, correction=correction), model.t0,
                          model.t0 + 60.0, model.y0) for m in (name, user))
        assert a.states.tobytes() == b.states.tobytes()
        assert a.attempts.tobytes() == b.attempts.tobytes()


@pytest.mark.parametrize("d", [1, 3, 7, 8, 9])
def test_stage_scale_is_numpys_abs_max_nan_included(d):
    rng = np.random.default_rng(d)
    for k in range(200):
        v = rng.standard_normal(d) * 10.0 ** rng.uniform(-40, 20, d)
        if k % 2:
            v[rng.random(d) < 0.3] = rng.choice([math.nan, math.inf, -math.inf, -0.0, 1e-31])
        expected = np.abs(v).max(initial=sdirk._TINY)
        got = sdirk._abs_max(v)
        assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_a_model_that_turns_nan_ends_step_too_small_with_nan_predictors():
    rob = robertson()
    nan_late = dataclasses.replace(
        rob, eval_G=lambda t, y: rob.eval_G(t, y) * (math.nan if t > 0.5 else 1.0)
    )
    for correction in ("none", "final"):
        traj = integrate(nan_late, SolverConfig(correction=correction), 0.0, 5.0, rob.y0)
        assert traj.status == TrajectoryStatus.STEP_TOO_SMALL
        assert math.isnan(traj.attempts.min_predictor[-1])
        assert np.all(np.isfinite(traj.states)) and traj.times[-1] <= 0.5
