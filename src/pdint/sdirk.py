"""SDIRK integrators with positivity-preserving predictor-corrector steps.

A step first runs the plain SDIRK method (the predictor).  Depending on
the configured correction mode, the step solution, or every stage, is
then rebuilt through an M-matrix solve that guarantees nonnegativity and
conserves the model's exact linear invariants.  The embedded error
estimate always comes from the uncorrected predictor, so step-size
control is unaffected by the correction.

A single integration is sequential; separate integrations over shared
(immutable) models may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .correction import (
    CorrectionDiagnostics,
    CorrectionMode,
    ScalingPolicy,
    averaged_g_final,
    clip,
    corrector_solve,
    ratio_scaling,
)
# unused here, but perfbench/test_tracer.py (test_every_wrapper_is_removed_after_a_traced_run,
# test_metric_names_are_well_formed_and_match_the_benchmark) looks both names up on this module
from .correction import h_form_corrector, stage_corrected_g  # noqa: F401
from .numerics import identity_minus, lu_solve, vector, wrms_norm
from .pds import eval_rhs

_TINY = 1e-30


class ConfigurationError(ValueError):
    """Invalid solver or run configuration."""


class StageConvergenceError(RuntimeError):
    """The implicit stage iteration failed to converge."""


@dataclass(frozen=True)
class ButcherTableau:
    name: str
    A: np.ndarray
    b: np.ndarray
    b_hat: np.ndarray
    c: np.ndarray
    p: int
    p_hat: int
    gamma: float

    def __post_init__(self):
        a = self.A
        s = a.shape[0]
        if a.shape != (s, s):
            raise ValueError("A must be square")
        if np.any(np.triu(a, 1) != 0.0):
            raise ValueError("A must be lower triangular")
        if not np.allclose(np.diagonal(a), self.gamma, rtol=0, atol=1e-15):
            raise ValueError("all diagonal entries must equal gamma")
        for w, label in ((self.b, "b"), (self.b_hat, "b_hat")):
            if abs(w.sum() - 1.0) > 1e-14:
                raise ValueError(f"{label} weights must sum to 1")

    @property
    def s(self) -> int:
        return self.A.shape[0]

    @property
    def stiffly_accurate(self) -> bool:
        return bool(np.array_equal(self.b, self.A[-1]))


def _sdirk21() -> ButcherTableau:
    gamma = 1.0 - 1.0 / math.sqrt(2.0)
    w = 1.0 / math.sqrt(2.0)
    a = np.array([[gamma, 0.0], [w, gamma]])
    return ButcherTableau(
        name="sdirk21",
        A=a,
        b=np.array([w, gamma]),
        b_hat=np.array([2.0 / 3.0, 1.0 / 3.0]),
        c=np.array([gamma, 1.0]),
        p=2,
        p_hat=1,
        gamma=gamma,
    )


def _sdirk32() -> ButcherTableau:
    g = 9.0 / 40.0
    a = np.array(
        [
            [g, 0.0, 0.0, 0.0],
            [163.0 / 520.0, g, 0.0, 0.0],
            [-6481433.0 / 8838675.0, 87795409.0 / 70709400.0, g, 0.0],
            [4032.0 / 9943.0, 6929.0 / 15485.0, -723.0 / 9272.0, g],
        ]
    )
    # Embedded weights: the consistent order-2 companion of the main
    # weights with a stiffly damped stability function (R(inf) = 0) and a
    # c^2 quadrature defect of 1/20.  Exact rationals, evaluated here.
    b_hat = np.array(
        [
            71401222416.0 / 121102389209.0,
            37167718432.0 / 188602081555.0,
            -20280947469.0 / 112929835336.0,
            191428047.0 / 487186520.0,
        ]
    )
    return ButcherTableau(
        name="sdirk32",
        A=a,
        b=a[-1].copy(),
        b_hat=b_hat,
        c=np.array([g, 7.0 / 13.0, 11.0 / 15.0, 1.0]),
        p=3,
        p_hat=2,
        gamma=g,
    )


def _sdirk43() -> ButcherTableau:
    g = 0.25
    a = np.array(
        [
            [g, 0.0, 0.0, 0.0, 0.0],
            [13.0 / 20.0, g, 0.0, 0.0, 0.0],
            [580.0 / 1287.0, -175.0 / 5148.0, g, 0.0, 0.0],
            [12698.0 / 37375.0, -201.0 / 2990.0, 891.0 / 11500.0, g, 0.0],
            [944.0 / 1365.0, -400.0 / 819.0, 99.0 / 35.0, -575.0 / 252.0, g],
        ]
    )
    b_hat = np.array(
        [
            41911.0 / 60060.0,
            -83975.0 / 144144.0,
            3393.0 / 1120.0,
            -27025.0 / 11088.0,
            103.0 / 352.0,
        ]
    )
    return ButcherTableau(
        name="sdirk43",
        A=a,
        b=a[-1].copy(),
        b_hat=b_hat,
        c=np.array([0.25, 0.9, 2.0 / 3.0, 0.6, 1.0]),
        p=4,
        p_hat=3,
        gamma=g,
    )


_TABLEAUS = {"sdirk21": _sdirk21, "sdirk32": _sdirk32, "sdirk43": _sdirk43}


def tableau(name: str) -> ButcherTableau:
    """Look up one of the built-in SDIRK tableaus."""
    try:
        builder = _TABLEAUS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown method {name!r}; choose from {sorted(_TABLEAUS)}"
        ) from None
    return builder()


@dataclass(frozen=True)
class SolverConfig:
    method: str | ButcherTableau = "sdirk21"
    mode: str = "adaptive"  # "adaptive" | "fixed"
    h0: float | None = None
    h_fixed: float | None = None
    atol: float = 1e-6
    rtol: float = 1e-6
    correction: CorrectionMode | str = CorrectionMode.NONE
    scaling: ScalingPolicy = field(default_factory=ScalingPolicy)
    safety: float = 0.9
    fac_min: float = 0.2
    fac_max: float = 5.0
    h_min: float | None = None
    stage_max_iter: int = 50
    stage_tol: float = 1e-12
    positivity_guard_rejection: bool = False
    max_steps: int = 2_000_000

    def __post_init__(self):
        object.__setattr__(self, "correction", CorrectionMode(self.correction))
        if self.mode not in ("adaptive", "fixed"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.atol <= 0.0:
            raise ConfigurationError("atol must be positive")
        if self.rtol < 0.0:
            raise ConfigurationError("rtol must be nonnegative")
        if not (self.fac_min < 1.0 < self.fac_max):
            raise ConfigurationError("need fac_min < 1 < fac_max")
        if self.h0 is not None and self.h0 <= 0.0:
            raise ConfigurationError("h0 must be positive")
        if self.mode == "fixed" and (self.h_fixed is None or self.h_fixed <= 0.0):
            raise ConfigurationError("fixed mode requires a positive h_fixed")

    def resolve_tableau(self) -> ButcherTableau:
        if isinstance(self.method, ButcherTableau):
            return self.method
        return tableau(self.method)


class TrajectoryStatus(str, Enum):
    COMPLETED = "completed"
    STEP_TOO_SMALL = "step_too_small"
    SOLVER_FAILURE = "solver_failure"


@dataclass
class StepAttempt:
    index: int
    t: float
    h: float
    accepted: bool
    min_predictor: float


@dataclass
class StepOutcome:
    accepted: bool
    t_new: float
    y_pred: np.ndarray
    y_corrected: np.ndarray
    stages: list
    err: float
    h_used: float
    h_next: float
    diagnostics: CorrectionDiagnostics


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    min_components: np.ndarray
    h_used: np.ndarray
    clip_counts: np.ndarray
    invariant_values: dict
    status: TrajectoryStatus
    attempts: list
    steps_accepted: int
    steps_rejected: int

    @property
    def min_component(self) -> float:
        return float(self.min_components.min())


def _fd_jacobian(model, t, y, f0):
    d = y.size
    jac = np.empty((d, d), order="F")  # filled column by column
    ynorm = max(np.max(np.abs(y)), _TINY)
    sq = math.sqrt(np.finfo(float).eps)
    for j in range(d):
        dy = sq * max(abs(y[j]), 1e-4 * ynorm)
        yp = y.copy()
        yp[j] += dy
        jac[:, j] = (eval_rhs(model, t, yp) - f0) / dy
    return jac


def _newton_stage(model, t, rhs, h_aii, y_init, budget, atol_it, tol):
    """Damped modified Newton on Y - rhs - h*a_ii*f(t, Y) = 0.

    The Jacobian comes from finite differences and is reused while
    convergence is fast; steps backtrack whenever the weighted residual
    would grow.
    """
    y = y_init.copy()
    f = eval_rhs(model, t, y)
    resid = y - rhs - h_aii * f
    rn = wrms_norm(resid, y, atol_it, tol)
    a_fact = None
    fresh = False
    for _ in range(budget):
        if rn <= 1.0:
            return y
        if a_fact is None:
            a_fact = identity_minus(h_aii, _fd_jacobian(model, t, y, f))
            fresh = True
        delta = lu_solve(a_fact, -resid)
        alpha = 1.0
        improved = False
        while alpha >= 1e-8:
            y_new = y + alpha * delta
            f_new = eval_rhs(model, t, y_new)
            r_new = y_new - rhs - h_aii * f_new
            rn_new = wrms_norm(r_new, y_new, atol_it, tol)
            if rn_new < rn:
                improved = True
                break
            alpha *= 0.5
        if not improved:
            if fresh:
                raise StageConvergenceError(f"stage iteration failed at t={t}")
            a_fact = None  # the frozen Jacobian went stale, rebuild it
            continue
        slow = rn_new > 0.5 * rn or alpha < 1.0
        y, f, resid, rn = y_new, f_new, r_new, rn_new
        fresh = False
        if slow:
            a_fact = None
    if rn <= 1.0:
        return y
    raise StageConvergenceError(f"stage iteration exceeded budget at t={t}")


def solve_stage(model, t_stage, y_n, h, a_ii, rhs_accum, max_iter=50, tol=1e-12):
    """Solve one implicit stage Y = y_n + rhs_accum + h*a_ii*f(t, Y).

    Graph-Laplacian models use the frozen-matrix fixed point
    Y_{k+1} = (I - h*a_ii*G(t, Y_k))^{-1} (y_n + rhs_accum), which reuses
    the corrector's M-matrix solve; a finite-difference Newton fallback
    takes over if the fixed point stops contracting.  H-form models go
    straight to Newton since their stage equation has no G*y structure.

    Both iterations stop on a per-component test: the weighted RMS norm
    of the update (Picard) or the residual (Newton), with weights
    atol_i + tol*|Y_i| and atol_i = tol * min(y_scale_i, s), must be at
    most one; s is the largest magnitude in y_n and y_n + rhs_accum, and
    ``y_scale`` is the model's declared component magnitude.  A trace
    species thus converges on its own scale, not on that of the largest
    component, which can lie 14 decades above it.
    """
    y_n = np.asarray(y_n, dtype=float)
    rhs = y_n + rhs_accum
    if a_ii == 0.0:
        return rhs
    scale = max(np.max(np.abs(y_n)), np.max(np.abs(rhs)), _TINY)
    atol_it = tol * np.clip(model.y_scale, _TINY, scale)
    if not model.multiplicand_is_state:
        return _newton_stage(model, t_stage, rhs, h * a_ii, rhs, max_iter, atol_it, tol)
    d = y_n.size
    eye = np.eye(d)
    h_aii = h * a_ii
    y = y_n.copy()
    prev = math.inf
    picard_budget = max(1, max_iter // 2)
    used = 0
    for _ in range(picard_budget):
        g = model.matrix(t_stage, y)
        y_new = lu_solve(eye - h_aii * g, rhs)
        dn = wrms_norm(y_new - y, y_new, atol_it, tol)
        y = y_new
        used += 1
        if dn <= 1.0:
            return y
        if used >= 3 and dn > 0.9 * prev:
            break  # no contraction, hand over to Newton
        prev = dn
    return _newton_stage(
        model, t_stage, rhs, h_aii, y, max_iter - used, atol_it, tol
    )


def predictor_step(model, t_n, y_n, h, tab, max_iter=50, tol=1e-12, eps=None, diag=None):
    """Plain SDIRK step: stages, predicted solution, embedded solution.

    Also returns the stage derivative values for reuse by the corrector.
    For stiffly accurate tableaus the predicted solution is the last
    stage vector itself, bit for bit.

    Given a diagnostics record ``diag`` and the ratio-scaling floor
    ``eps``, every stage is corrected as soon as it is solved, and later
    stages build on the corrected ones.  The predicted solution stays the
    last stage as solved, and the embedded estimate takes its final slope
    there.
    """
    a, c = tab.A, tab.c
    stages, fs, mats = [], [], []
    for i in range(tab.s):
        rhs_accum = np.zeros_like(y_n)
        for j in range(i):
            rhs_accum += (h * a[i, j]) * fs[j]
        t_i = t_n + c[i] * h
        y_p = solve_stage(model, t_i, y_n, h, a[i, i], rhs_accum, max_iter, tol)
        y_i, f_i = y_p, None
        if diag is not None:
            y_i, f_i = _all_stage_correction(
                model, t_i, y_n, h, a[i, : i + 1], y_p, stages, mats, eps, diag,
                i < tab.s - 1,
            )
        stages.append(y_i)
        fs.append(eval_rhs(model, t_i, y_p) if f_i is None else f_i)
    if tab.stiffly_accurate:
        y_pred = y_p
    else:
        y_pred = y_n + h * sum(bj * fj for bj, fj in zip(tab.b, fs))
    y_hat = y_n + h * sum(bj * fj for bj, fj in zip(tab.b_hat, fs))
    return stages, y_pred, y_hat, fs


def _matrix_argument(model, y):
    """Clipped stage, unless a graph-Laplacian model keeps its sign pattern everywhere."""
    return y if model.multiplicand_is_state and model.strong_sign else clip(y)


def _final_stage_correction(model, t_n, y_n, h, tab, stages, y_pred, eps):
    diag = CorrectionDiagnostics()
    mats = []
    for i, y_i in enumerate(stages):
        diag.absorb_negatives(y_i)
        mats.append(model.matrix(t_n + tab.c[i] * h, _matrix_argument(model, y_i)))
    sigmas = [ratio_scaling(model.multiplicand(y_i), y_pred, eps) for y_i in stages]
    y_raw = corrector_solve(y_n, h, averaged_g_final(tab.b, mats, sigmas))
    diag.absorb_negatives(y_raw)
    return clip(y_raw), diag


def _all_stage_correction(model, t_i, y_n, h, a_row, y_p, stages, mats, eps, diag, later):
    """Correct one predicted stage ``y_p`` against the corrected earlier stages.

    Returns the corrected stage and, when ``later`` stages follow, its
    slope; its matrix is then appended to ``mats`` for them to read.
    """
    diag.absorb_negatives(y_p)
    m_diag = model.matrix(t_i, _matrix_argument(model, y_p))
    # a graph-Laplacian diagonal term multiplies the predicted stage itself
    ones = np.ones_like(y_p)
    sig_diag = ones if model.multiplicand_is_state else ratio_scaling(ones, y_p, eps)
    sigmas = [ratio_scaling(model.multiplicand(y_j), y_p, eps) for y_j in stages]
    g_bar = averaged_g_final([a_row[-1], *a_row[:-1]], [m_diag, *mats], [sig_diag, *sigmas])
    y_raw = corrector_solve(y_n, h, g_bar)
    diag.absorb_negatives(y_raw)
    y_i = clip(y_raw)
    if not later:
        return y_i, None
    m_i = model.matrix(t_i, y_i)
    mats.append(m_i)
    return y_i, m_i @ model.multiplicand(y_i)


def corrected_step(model, t_n, y_n, h, tab, config: SolverConfig) -> StepOutcome:
    """One attempted step: predictor, optional correction, error estimate."""
    mode = config.correction
    if mode == CorrectionMode.ALL and not tab.stiffly_accurate:
        raise ConfigurationError("all-stages correction requires a stiffly accurate tableau")
    eps = config.scaling.resolve(h, tab.p)
    diag = CorrectionDiagnostics() if mode == CorrectionMode.ALL else None
    stages, y_pred, y_hat, _fs = predictor_step(
        model, t_n, y_n, h, tab, config.stage_max_iter, config.stage_tol, eps, diag
    )
    if mode == CorrectionMode.ALL:
        y_corr = stages[-1]
    elif mode == CorrectionMode.FINAL:
        y_corr, diag = _final_stage_correction(model, t_n, y_n, h, tab, stages, y_pred, eps)
    else:
        y_corr, diag = y_pred, CorrectionDiagnostics()
    if mode != CorrectionMode.NONE:
        diag.scaling_active = diag.clip_count > 0 or bool(np.any(y_pred < eps))
    err = wrms_norm(y_pred - y_hat, y_pred, config.atol, config.rtol)
    accepted = err <= 1.0 or config.mode == "fixed"
    if err > 0.0:
        fac = config.safety * err ** (-1.0 / (tab.p_hat + 1))
    else:
        fac = config.fac_max
    fac = min(max(fac, config.fac_min), config.fac_max)
    return StepOutcome(
        accepted=accepted,
        t_new=t_n + h,
        y_pred=y_pred,
        y_corrected=y_corr,
        stages=stages,
        err=err,
        h_used=h,
        h_next=h * fac,
        diagnostics=diag,
    )


def _invariant_labels(model):
    labels = []
    for k, inv in enumerate(model.invariants):
        labels.append(inv.label if inv.label else f"inv{k}")
    return labels


def integrate(model, config: SolverConfig, t0: float, tf: float, y0) -> Trajectory:
    """Drive corrected steps from t0 to tf.

    Adaptive mode accepts a step when its weighted error estimate is at
    most one and rescales the step with the standard elementary
    controller; fixed mode takes uniform steps.  With the positivity
    guard enabled, any step whose predictor has a negative component is
    rejected and retried with half the step, with controller growth
    suspended until a positive step succeeds.
    """
    if tf <= t0:
        raise ConfigurationError("tf must exceed t0")
    tab = config.resolve_tableau()
    y = vector(y0).copy()
    if y.size != model.dim:
        raise ConfigurationError(f"y0 has size {y.size}, model dimension is {model.dim}")
    needs_nonneg = (
        config.correction != CorrectionMode.NONE or config.positivity_guard_rejection
    )
    if needs_nonneg and np.any(y < 0.0):
        raise ConfigurationError("y0 must be nonnegative when correction is enabled")

    span = tf - t0
    eps_mach = np.finfo(float).eps
    h_min = config.h_min
    if h_min is None:
        h_min = 1e4 * eps_mach * max(abs(t0), abs(tf))
    if config.mode == "fixed":
        n_steps = max(1, math.ceil(span / config.h_fixed - 1e-12))
        h = span / n_steps
    else:
        h = config.h0 if config.h0 is not None else span * 1e-4

    invariants = [np.asarray(inv.w, dtype=float) for inv in model.invariants]
    labels = _invariant_labels(model)
    times = [t0]
    states = [y.copy()]
    mins = [float(y.min())]
    h_hist = [0.0]
    clips = [0]
    inv_hist = [[float(w @ y)] for w in invariants]
    attempts = []
    accepted_count = 0
    rejected_count = 0
    status = TrajectoryStatus.COMPLETED
    growth_locked = False

    t = t0
    end_tol = max(h_min, 4.0 * eps_mach * max(abs(t0), abs(tf)))
    while tf - t > end_tol:
        if len(attempts) >= config.max_steps:
            status = TrajectoryStatus.SOLVER_FAILURE
            break
        if config.mode == "fixed":
            # step onto the uniform grid to avoid accumulation drift
            h_try = t0 + (accepted_count + 1) * h - t
        else:
            h_try = min(h, tf - t)
        try:
            outcome = corrected_step(model, t, y, h_try, tab, config)
        except StageConvergenceError:
            attempts.append(StepAttempt(len(attempts), t, h_try, False, math.nan))
            rejected_count += 1
            if config.mode == "fixed":
                status = TrajectoryStatus.SOLVER_FAILURE
                break
            h = h_try / 2.0
            if h < h_min:
                status = TrajectoryStatus.STEP_TOO_SMALL
                break
            continue
        min_pred = float(outcome.y_pred.min())
        accept = outcome.accepted
        if accept and config.positivity_guard_rejection and min_pred < 0.0:
            attempts.append(StepAttempt(len(attempts), t, h_try, False, min_pred))
            rejected_count += 1
            growth_locked = True
            h = h_try / 2.0
            if h < h_min:
                status = TrajectoryStatus.STEP_TOO_SMALL
                break
            continue
        attempts.append(StepAttempt(len(attempts), t, h_try, accept, min_pred))
        if accept:
            t = outcome.t_new
            y = outcome.y_corrected
            accepted_count += 1
            times.append(t)
            states.append(y.copy())
            mins.append(float(y.min()))
            h_hist.append(h_try)
            clips.append(outcome.diagnostics.clip_count)
            for vals, w in zip(inv_hist, invariants):
                vals.append(float(w @ y))
            growth_locked = False
            if config.mode == "adaptive":
                h = outcome.h_next
        else:
            rejected_count += 1
            h = min(outcome.h_next, h_try)  # never grow on rejection
            if growth_locked:
                h = min(h, h_try / 2.0)
            if h < h_min:
                status = TrajectoryStatus.STEP_TOO_SMALL
                break

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        min_components=np.array(mins),
        h_used=np.array(h_hist),
        clip_counts=np.array(clips),
        invariant_values={lab: np.array(v) for lab, v in zip(labels, inv_hist)},
        status=status,
        attempts=attempts,
        steps_accepted=accepted_count,
        steps_rejected=rejected_count,
    )
