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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .correction import (
    CorrectionDiagnostics,
    CorrectionMode,
    averaged_g_final,
    clip,
    corrector_solve,
    ratio_scaling,
)
# unused here, but perfbench/test_tracer.py (test_every_wrapper_is_removed_after_a_traced_run,
# test_metric_names_are_well_formed_and_match_the_benchmark) looks both names up on this module
from .correction import h_form_corrector, stage_corrected_g  # noqa: F401
from .numerics import SingularMatrixError, identity_minus, lu_solve, vector, wrms_norm
from .numerics import lu_back_solve, lu_factor, weighted_rms
from .pds import eval_rhs, eval_slope

_TINY = 1e-30
# step-size controller: safety factor and bounds on the step ratio
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 5.0
# stage iteration budget and relative tolerance
_STAGE_MAX_ITER, _STAGE_TOL = 50, 1e-12
# attempts before a run ends in solver_failure
_MAX_ATTEMPTS = 2_000_000
# entries of the buffer that collects a finite-difference Jacobian's rhs values (512 KiB)
_FD_BUFFER = 1 << 16
# a Trajectory's attempt rows; min_predictor is NaN after a failed solve, clip_count 0 if rejected
ATTEMPT_DTYPE = np.dtype([("t", "f8"), ("h", "f8"), ("accepted", "?"),
                          ("min_predictor", "f8"), ("clip_count", "i8")])


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
    p_hat: int

    def __post_init__(self):
        a = self.A
        s = a.shape[0]
        if a.shape != (s, s):
            raise ValueError("A must be square")
        if np.any(np.triu(a, 1) != 0.0):
            raise ValueError("A must be lower triangular")
        if not np.allclose(np.diagonal(a), self.gamma, rtol=0, atol=1e-15):
            raise ValueError("all diagonal entries must equal gamma")
        for v, label in ((self.b, "b"), (self.b_hat, "b_hat"), (self.c, "c")):
            if np.shape(v) != (s,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{label} must be a finite vector of length {s}")
        if np.any(np.abs(self.c - a.sum(axis=1)) > 1e-14):
            raise ValueError("c must equal the row sums of A")
        for w, label in ((self.b, "b"), (self.b_hat, "b_hat")):
            if abs(w.sum() - 1.0) > 1e-14:
                raise ValueError(f"{label} weights must sum to 1")

    @property
    def s(self) -> int:
        return self.A.shape[0]

    @property
    def gamma(self) -> float:
        """The shared diagonal coefficient of A."""
        return float(self.A[0, 0])

    @cached_property
    def stiffly_accurate(self) -> bool:
        return bool(np.array_equal(self.b, self.A[-1]))

    @cached_property
    def floats(self) -> tuple[list, list, list, list]:
        """``(A, b, b_hat, c)`` in Python floats: products with them round as
        numpy scalars' do, without numpy's scalar cost."""
        return self.A.tolist(), self.b.tolist(), self.b_hat.tolist(), self.c.tolist()


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
        p_hat=1,
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
        p_hat=2,
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
        p_hat=3,
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
    eps: float = 1e-10  # ratio-scaling denominator floor
    positivity_guard_rejection: bool = False

    def __post_init__(self):
        object.__setattr__(self, "correction", CorrectionMode(self.correction))
        if self.mode not in ("adaptive", "fixed"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        # written so that NaN fails every check
        if not 0.0 < self.atol < math.inf:
            raise ConfigurationError("atol must be positive and finite")
        if not 0.0 <= self.rtol < math.inf:
            raise ConfigurationError("rtol must be nonnegative and finite")
        if not 0.0 < self.eps < math.inf:
            raise ConfigurationError("eps must be positive and finite")
        if self.h0 is not None and not 0.0 < self.h0 < math.inf:
            raise ConfigurationError("h0 must be positive and finite")
        if self.mode == "fixed":
            if self.h_fixed is None or not 0.0 < self.h_fixed < math.inf:
                raise ConfigurationError("fixed mode requires a positive, finite h_fixed")
            if self.positivity_guard_rejection:
                raise ConfigurationError("the positivity guard halves steps; fixed mode cannot")
        if not self.tab.stiffly_accurate and self.correction == CorrectionMode.ALL:
            raise ConfigurationError("all-stages correction requires a stiffly accurate tableau")

    @cached_property
    def tab(self) -> ButcherTableau:
        """The tableau ``method`` names; ``__post_init__`` builds it, once per config."""
        if isinstance(self.method, ButcherTableau):
            return self.method
        return tableau(self.method)


class TrajectoryStatus(str, Enum):
    COMPLETED = "completed"
    STEP_TOO_SMALL = "step_too_small"
    SOLVER_FAILURE = "solver_failure"


@dataclass
class StepOutcome:
    y_pred: np.ndarray
    y_corrected: np.ndarray
    err: float
    diagnostics: CorrectionDiagnostics


@dataclass
class Trajectory:
    states: np.ndarray
    attempts: np.recarray
    status: TrajectoryStatus
    invariant_values: dict

    @cached_property
    def times(self) -> np.ndarray:
        a = self.attempts
        return np.concatenate((a.t[:1], (a.t + a.h)[a.accepted]))

    @cached_property
    def h_used(self) -> np.ndarray:
        return np.concatenate(([0.0], self.attempts.h[self.attempts.accepted]))

    @cached_property
    def clip_counts(self) -> np.ndarray:
        return np.concatenate(([0], self.attempts.clip_count[self.attempts.accepted]))

    @property
    def min_components(self) -> np.ndarray:
        return self.states.min(axis=1)

    @property
    def min_component(self) -> float:
        return float(self.states.min())

    @property
    def steps_accepted(self) -> int:
        return len(self.states) - 1

    @property
    def steps_rejected(self) -> int:
        return len(self.attempts) - self.steps_accepted


@dataclass
class _History:
    """A run's accepted state before y_n, and whether its last stage 1 ended in Newton."""

    t_prev: float | None = None
    y_prev: np.ndarray | None = None
    newton_first: bool = False


def _fd_jacobian(model, t, y, f0):
    """Forward-difference Jacobian, one rhs evaluation per column.

    Dense, unless the model declares ``jac_sparsity``: then a CSC matrix
    with the same entries on that pattern.  The rhs values of a run of
    columns wait in a buffer of at most ``_FD_BUFFER`` entries, which is
    then copied into the Jacobian in one call.
    """
    d = y.size
    ynorm = max(np.abs(y).max(), _TINY)
    # dy_j = sqrt(eps) * max(|y_j|, 1e-4 * ynorm)
    dys = np.multiply(math.sqrt(np.finfo(float).eps), np.maximum(np.abs(y), 1e-4 * ynorm))
    pattern = model.jac_sparsity
    nb = min(d, max(1, _FD_BUFFER // d))  # columns per buffer
    buf = np.empty((nb, d))
    if pattern is None:
        jac = np.empty((d, d))
    else:
        from scipy import sparse

        jac = sparse.csc_array(pattern, dtype=float, copy=True)
        jac.sum_duplicates()  # one stored entry per position, rows sorted
        rows, data, ptr = jac.indices, jac.data, jac.indptr
        # where each stored entry lies in the flattened buffer
        at = np.repeat(np.arange(d) % nb * d, np.diff(ptr)) + rows
    yp = y.copy()  # perturbed in one entry at a time, restored after each call
    ys, steps = y.tolist(), dys.tolist()
    for j0 in range(0, d, nb):
        j1 = min(j0 + nb, d)
        for j in range(j0, j1):
            yp[j] = ys[j] + steps[j]
            buf[j - j0] = eval_rhs(model, t, yp)
            yp[j] = ys[j]
        if pattern is None:
            jac[:, j0:j1] = buf[: j1 - j0].T
        else:  # only the pattern rows of these columns
            buf.take(at[ptr[j0]:ptr[j1]], out=data[ptr[j0]:ptr[j1]])
    # every entry at once: (f_j[r] - f0[r]) / dy_j
    if pattern is None:
        jac -= f0[:, np.newaxis]
        jac /= dys
    else:
        data -= f0[rows]
        data /= np.repeat(dys, np.diff(ptr))
    return jac


def _newton_stage(model, t, rhs, h_aii, y_init, atol_it, a_fact):
    """Damped modified Newton on Y - rhs - h*a_ii*f(t, Y) = 0.

    The Jacobian comes from finite differences; I - h*a_ii*J is factored
    once and its factors are reused while convergence is fast.  Steps
    backtrack whenever the weighted residual would grow.  Once converged,
    one more update with the last factors moves w.Y by -w.r for an exact
    invariant w (w^T J = 0), so w.Y = w.rhs up to round-off.

    ``a_fact`` holds stale factors to start from, or is None; returns the
    stage and the factors last used.
    """
    y, last = y_init.copy(), a_fact
    f = eval_rhs(model, t, y)
    resid = y - rhs - h_aii * f
    rn = weighted_rms(resid, y, atol_it, _STAGE_TOL)
    for _ in range(_STAGE_MAX_ITER):
        if rn <= 1.0:
            break
        fresh = a_fact is None
        if fresh:
            a_fact = lu_factor(identity_minus(h_aii, _fd_jacobian(model, t, y, f)))
        last = a_fact
        delta = lu_back_solve(a_fact, -resid)
        alpha = 1.0
        while alpha >= 1e-8:
            y_new = y + alpha * delta
            f_new = eval_rhs(model, t, y_new)
            r_new = y_new - rhs - h_aii * f_new
            rn_new = weighted_rms(r_new, y_new, atol_it, _STAGE_TOL)
            if rn_new < rn:
                break
            alpha *= 0.5
        else:  # no descent
            if fresh:
                raise StageConvergenceError(f"stage iteration failed at t={t}")
            a_fact = None  # the frozen Jacobian went stale, rebuild it
            continue
        if rn_new > 0.5 * rn or alpha < 1.0:
            a_fact = None  # slow convergence, rebuild it
        y, f, resid, rn = y_new, f_new, r_new, rn_new
    if rn > 1.0:
        raise StageConvergenceError(f"stage iteration exceeded budget at t={t}")
    if last is not None:  # w.Y = w.rhs up to round-off
        y = y + lu_back_solve(last, -resid)
    return y, a_fact


def _abs_max(v):
    """``np.abs(v).max(initial=_TINY)``, in Python floats below 8 entries, NaN included."""
    if v.size >= 8:
        return np.abs(v).max(initial=_TINY)
    vs = list(map(abs, v.tolist()))
    return math.nan if any(map(math.isnan, vs)) else max([_TINY, *vs])


def solve_stage(model, t_stage, y_n, h, a_ii, rhs_accum, newton_factors=None, start=None,
                picard=True):
    """Solve one implicit stage Y = y_n + rhs_accum + h*a_ii*f(t, Y).

    Graph-Laplacian models use the frozen-matrix fixed point
    Y_{k+1} = (I - h*a_ii*G(t, Y_k))^{-1} (y_n + rhs_accum), which reuses
    the corrector's M-matrix solve; a finite-difference Newton fallback
    takes over once two more iterations at the observed rate would not
    converge: d_k * (d_k / d_{k-1})**2 > 1 for the update norms d_k
    below.  Picard runs only while the step holds no factored Newton
    matrix and ``picard`` is true: given ``newton_factors``, a
    graph-Laplacian stage starts Newton with them, since one back-solve
    costs less than a Picard update that refactors.  H-form models go
    straight to Newton (no G*y structure).  Both start from y_n
    (graph-Laplacian) or y_n + rhs_accum (H-form), unless given a
    ``start``; a graph-Laplacian one with a negative entry is not
    used, since G is a Laplacian only on the nonnegative orthant.
    Picard allows ``_STAGE_MAX_ITER // 2`` iterations, Newton
    ``_STAGE_MAX_ITER`` per start.  A failure from ``start``, or with
    Picard skipped, is solved again from the default start, Picard
    first, with the same ``newton_factors``; a Newton that still fails
    is retried once from clip(y_n + rhs_accum) with a fresh matrix,
    unless that would repeat it.
    Returns ``(Y, factors)``: Newton's factored I - h*a_ii*J, which the
    next stage of the step takes as ``newton_factors`` (same h*a_ii).

    Both iterations stop on a per-component test: the weighted RMS norm
    of the update (Picard) or the residual (Newton), with weights
    atol_i + tol*|Y_i| and atol_i = tol * min(y_scale_i, s), must be at
    most one; tol is ``_STAGE_TOL``, s is the largest magnitude in y_n
    and y_n + rhs_accum, and ``y_scale`` is the model's declared
    component magnitude.  A trace species thus converges on its own
    scale, not on that of the largest component, which can lie 14
    decades above it.
    """
    y_n = np.asarray(y_n, dtype=float)
    rhs = y_n + rhs_accum
    if a_ii == 0.0:
        return rhs, newton_factors
    scale = max(_abs_max(y_n), _abs_max(rhs))
    atol_it = _STAGE_TOL * np.minimum(np.maximum(model.y_scale, _TINY), scale)
    h_aii = h * a_ii
    y = y_n if model.multiplicand_is_state else rhs
    can_picard = model.multiplicand_is_state and newton_factors is None
    if start is not None and model.multiplicand_is_state and start.min() < 0.0:
        start = None  # G is a Laplacian only on the nonnegative orthant
    ladder = [(y, can_picard)]  # the default start, Picard first where it can run
    if start is not None or (can_picard and not picard):  # a guess goes first
        ladder.insert(0, (y if start is None else start, can_picard and picard))
    for y, use_picard in ladder:
        if use_picard:
            eye = np.eye(y_n.size)
            prev = math.inf
            for _ in range(_STAGE_MAX_ITER // 2):
                g = model.matrix(t_stage, y)
                y_new = lu_solve(eye - h_aii * g, rhs)
                dn = weighted_rms(y_new - y, y_new, atol_it, _STAGE_TOL)
                y = y_new
                if dn <= 1.0:
                    return y, None
                if dn * (dn / prev) ** 2 > 1.0:
                    break  # two more updates at this rate would not converge: Newton
                prev = dn
        try:
            return _newton_stage(model, t_stage, rhs, h_aii, y, atol_it, newton_factors)
        except StageConvergenceError as err:
            failure = err
    # Newton from a Picard iterate or y_n can find no descent (stratospheric sdirk21, h = 3600 s)
    restart = clip(rhs)
    if newton_factors is None and np.array_equal(restart, y):
        raise failure  # the restart would repeat the failed attempt
    return _newton_stage(model, t_stage, rhs, h_aii, restart, atol_it, None)


def predictor_step(model, t_n, y_n, h, config: SolverConfig):
    """Plain SDIRK step: stages, predicted and embedded solution, diagnostics.

    For stiffly accurate tableaus the predicted solution is the last
    stage vector itself, bit for bit.

    With all-stage correction, every stage is corrected as soon as it is
    solved, and later stages build on the corrected ones; ``diag``
    records that correction, and is empty in the other modes.  The
    predicted solution stays the last stage as solved, and the embedded
    estimate takes its final slope there.
    """
    return _predict(model, t_n, y_n, h, config)[:4]


def _predict(model, t_n, y_n, h, config, history=None):
    """:func:`predictor_step`, and the matrix that gave each stage its slope.

    The fifth result holds, per stage, the matrix at the stage as solved,
    or None where the slope came without one: from an H-form model's
    ``eval_rhs`` fast path, or from an all-stage corrected stage.
    """
    tab = config.tab
    a, b, b_hat, c = tab.floats
    all_stage = config.correction == CorrectionMode.ALL
    diag = CorrectionDiagnostics()
    stages, fs, slope_mats, mats = [], [], [], []
    factors = None  # every stage of the step has the same h*gamma
    start, picard = None, True
    if history is not None:
        picard = not history.newton_first
        if history.t_prev is not None:  # the line through the last two accepted states
            start = y_n + (c[0] * h / (t_n - history.t_prev)) * (y_n - history.y_prev)
    for i in range(tab.s):
        rhs_accum = np.zeros(y_n.shape)
        for j in range(i):
            rhs_accum += (h * a[i][j]) * fs[j]
        t_i = t_n + c[i] * h
        if i > 0:  # the line through y_n and the stage before, as solved
            start = y_n + (c[i] / c[i - 1]) * (y_p - y_n) if c[i - 1] != 0.0 else None
            picard = True
        y_p, factors = solve_stage(model, t_i, y_n, h, a[i][i], rhs_accum, factors, start, picard)
        if i == 0 and history is not None:
            history.newton_first = factors is not None
        y_i, f_i, m_i = y_p, None, None
        if not all_stage or i == tab.s - 1:  # the slope at the stage as solved
            f_i, m_i = eval_slope(model, t_i, y_p)
        if all_stage:
            y_i, f_c = _all_stage_correction(model, config, i, t_i, y_n, h, y_p, m_i, stages, mats, diag)
            if f_i is None:
                f_i = f_c
        stages.append(y_i)
        fs.append(f_i)
        slope_mats.append(m_i)
    if tab.stiffly_accurate:
        y_pred = y_p
    else:
        y_pred = y_n + h * sum(bj * fj for bj, fj in zip(b, fs))
    y_hat = y_n + h * sum(bj * fj for bj, fj in zip(b_hat, fs))
    return stages, y_pred, y_hat, diag, slope_mats


def _matrix_at_clip(model, t, y, m):
    """The matrix at (t, clip(y)): ``m``, the one at (t, y), if clip leaves y as it is, else a new one."""
    if m is None or np.count_nonzero(np.signbit(y)):  # clip also turns -0.0 into 0.0
        return model.matrix(t, clip(y))
    return m


def _final_stage_correction(model, config, t_n, y_n, h, stages, y_pred, slope_mats):
    _, b, _, c = config.tab.floats
    diag = CorrectionDiagnostics()
    mats = []
    for i, (y_i, m_i) in enumerate(zip(stages, slope_mats)):
        diag.absorb_negatives(y_i)
        mats.append(_matrix_at_clip(model, t_n + c[i] * h, y_i, m_i))
    sigmas = [ratio_scaling(model.multiplicand(y_i), y_pred, config.eps) for y_i in stages]
    return _corrector_output(y_n, h, b, mats, sigmas, diag), diag


def _corrector_output(y_n, h, weights, mats, sigmas, diag, output=True):
    """clip((I - h*sum_j w_j G_j diag(sigma_j))^{-1} y_n); ``diag`` records the clip.

    A negative weight can cost that matrix its M-matrix sign pattern.  If
    the step's ``output`` then has a negative entry, it is solved again with
    w+ = max(w, 0) * sum(w) / sum(max(w, 0)), which keeps the sign pattern
    and so conserves the invariants.  A clipped intermediate stage cannot
    change them: its corrector starts from y_n.
    """
    y_raw = corrector_solve(y_n, h, averaged_g_final(weights, mats, sigmas))
    if diag.absorb_negatives(y_raw) and output and min(weights) < 0.0:
        w_pos = np.maximum(weights, 0.0)
        w_pos *= np.sum(weights) / w_pos.sum()
        y_raw = corrector_solve(y_n, h, averaged_g_final(w_pos, mats, sigmas))
    return clip(y_raw)


def _all_stage_correction(model, config, i, t_i, y_n, h, y_p, m_p, stages, mats, diag):
    """Correct the predicted stage ``i``, ``y_p``, against the corrected earlier stages.

    ``m_p`` is the matrix at ``y_p``, or None.  Returns the corrected
    stage and, when later stages follow, its slope; its matrix is then
    appended to ``mats`` for them to read.
    """
    a_row, eps = config.tab.floats[0][i][: i + 1], config.eps
    diag.absorb_negatives(y_p)
    m_diag = _matrix_at_clip(model, t_i, y_p, m_p)
    # a graph-Laplacian diagonal term multiplies the predicted stage itself
    ones = np.ones_like(y_p)
    sig_diag = ones if model.multiplicand_is_state else ratio_scaling(ones, y_p, eps)
    sigmas = [ratio_scaling(model.multiplicand(y_j), y_p, eps) for y_j in stages]
    last = i == config.tab.s - 1
    y_i = _corrector_output(y_n, h, [a_row[-1], *a_row[:-1]], [m_diag, *mats], [sig_diag, *sigmas],
                            diag, output=last)
    if last:
        return y_i, None
    m_i = model.matrix(t_i, y_i)
    mats.append(m_i)
    return y_i, m_i @ model.multiplicand(y_i)


def corrected_step(model, t_n, y_n, h, config: SolverConfig, history=None) -> StepOutcome:
    """One attempted step: predictor, optional correction, error estimate.

    Whether the step is accepted, and the next step size, is left to
    :func:`integrate`.  Stage i > 1 starts from y_n + (c_i/c_{i-1})*(Y_{i-1} - y_n).
    With the run's ``history``, stage 1 starts from the line through its
    last two accepted states, and skips Picard if the last stage 1 ended
    in Newton.  A stage that fails from such a start is solved again by
    :func:`solve_stage` from its default start.
    """
    mode = config.correction
    stages, y_pred, y_hat, diag, slope_mats = _predict(model, t_n, y_n, h, config, history)
    # all-stage correction has already corrected the last stage
    y_corr = stages[-1] if mode == CorrectionMode.ALL else y_pred
    if mode == CorrectionMode.FINAL:
        y_corr, diag = _final_stage_correction(model, config, t_n, y_n, h, stages, y_pred, slope_mats)
    if mode != CorrectionMode.NONE:
        diag.scaling_active = diag.clip_count > 0 or bool(np.any(y_pred < config.eps))
    err = wrms_norm(y_pred - y_hat, y_pred, config.atol, config.rtol)
    return StepOutcome(y_pred, y_corr, err, diag)


def _step_factor(err, p_hat):
    """Elementary controller: the ratio of the next step to the one that gave ``err``."""
    fac = _SAFETY * err ** (-1.0 / (p_hat + 1)) if err > 0.0 else _FAC_MAX
    return min(max(fac, _FAC_MIN), _FAC_MAX)


def integrate(model, config: SolverConfig, t0: float, tf: float, y0) -> Trajectory:
    """Drive corrected steps from t0 to tf.

    Adaptive mode accepts a step when its weighted error estimate is at
    most one and rescales the step with the standard elementary
    controller; fixed mode takes uniform steps and ends in
    ``solver_failure`` if a stage or corrector solve fails to converge or
    meets a singular matrix.  With the positivity guard enabled, any
    step whose predictor has a negative component is rejected and
    retried with half the step, with controller growth suspended until
    a step is accepted.  A failed solve also halves the step.  The run
    ends ``step_too_small`` once the step falls below
    ``1e4 * machine_epsilon * max(|t0|, |tf|)``; a span not above that
    floor is a ``ConfigurationError``.  Each run keeps its own
    :class:`_History` for :func:`corrected_step`'s stage starts.
    """
    h_min = 1e4 * np.finfo(float).eps * max(abs(t0), abs(tf))  # also the end tolerance
    if not (math.isfinite(t0) and math.isfinite(tf) and tf - t0 > h_min):
        raise ConfigurationError(f"t0 and tf must be finite with tf - t0 > step floor {h_min:g}")
    y = vector(y0).copy()
    if y.size != model.dim:
        raise ConfigurationError(f"y0 has size {y.size}, model dimension is {model.dim}")
    needs_nonneg = config.correction != CorrectionMode.NONE or config.positivity_guard_rejection
    if needs_nonneg and np.any(y < 0.0):
        raise ConfigurationError("y0 must be nonnegative when correction is enabled")

    span = tf - t0
    fixed = config.mode == "fixed"
    if fixed:
        n_steps = max(1, math.ceil(span / config.h_fixed - 1e-12))
        h = span / n_steps
    else:
        h = config.h0 if config.h0 is not None else span * 1e-4

    states, attempts = [y], []  # attempts: one ATTEMPT_DTYPE row tuple each
    status = TrajectoryStatus.COMPLETED
    growth_locked = False
    history = _History()
    t = t0
    while tf - t > h_min:
        if len(attempts) >= _MAX_ATTEMPTS:
            status = TrajectoryStatus.SOLVER_FAILURE
            break
        if fixed:
            # step onto the uniform grid to avoid accumulation drift
            h_try = t0 + len(states) * h - t
        else:
            h_try = min(h, tf - t)
        try:
            out = corrected_step(model, t, y, h_try, config, history)
        except (StageConvergenceError, SingularMatrixError):
            out = None
        min_pred = math.nan if out is None else float(out.y_pred.min())
        passed = out is not None and (fixed or out.err <= 1.0)  # fixed steps take no error test
        accept = passed and not (config.positivity_guard_rejection and min_pred < 0.0)
        attempts.append((t, h_try, accept, min_pred, out.diagnostics.clip_count if accept else 0))
        if accept:
            history.t_prev, history.y_prev = t, y
            t += h_try
            y = out.y_corrected
            states.append(y)
            growth_locked = False
            if not fixed:
                h = h_try * _step_factor(out.err, config.tab.p_hat)
            continue
        if fixed:  # only a stage failure rejects a fixed step, and the grid cannot shrink
            status = TrajectoryStatus.SOLVER_FAILURE
            break
        if passed:  # the error test passed, so the guard rejected the step
            growth_locked = True
        if out is None or passed:
            h = h_try / 2.0
        else:  # never grow on rejection, halve while growth is locked
            h_cap = h_try / 2.0 if growth_locked else h_try
            h = min(h_try * _step_factor(out.err, config.tab.p_hat), h_cap)
        if h < h_min:
            status = TrajectoryStatus.STEP_TOO_SMALL
            break

    states = np.array(states)
    weights = [np.asarray(inv.w, dtype=float) for inv in model.invariants]
    return Trajectory(
        states=states,
        attempts=np.array(attempts, dtype=ATTEMPT_DTYPE).view(np.recarray),
        status=status,
        invariant_values={
            inv.label or f"inv{k}": np.array([float(w @ y) for y in states])
            for k, (inv, w) in enumerate(zip(model.invariants, weights))
        },
    )
