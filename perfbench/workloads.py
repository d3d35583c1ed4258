"""The benchmark's workloads, their seeded inputs and their correctness gates.

A workload is a pool of cases drawn from the seed: ``VARIANTS`` sets of
inputs, each integrated with every method of the workload.  A run makes
whole *passes* over the pool, so the mix of calls, and with it every
statistic, does not depend on how many passes fit in the time given.
Several input sets per pool matter because the cost of a MAPK run moves
by about 25%, and its error by a factor of ten, with a 5% change of its
initial state.  The sets are a Latin hypercube sample, so every pool
covers the whole range of every input and one seed reads like another.
pdint receives only the generated initial states and model parameters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from scipy.special import ndtri

from pdint import SolverConfig, get_model, invariant_error
from pdint.problems import DEFAULT_SPANS, KdvConfig

ATOL = RTOL = 1e-6
DRIFT_TOL = 1e-12  # relative drift allowed in an exact invariant
ERR_TOL = 1e-4  # final-state error allowed in any one call, 100 * rtol
REF_RTOL, REF_ATOL = 1e-9, 1e-12  # scipy Radau reference settings

VARIANTS = 8  # input sets per pool

# Spans are the head of each problem's convergence window, short enough
# that a pool of 48 calls takes about 16 s.  The full windows cost 0.1-7 s
# per call and would leave one or two passes of a single input set per run.
# Robertson keeps its whole window; MAPK keeps its first 20 of 60 time
# units; the stratospheric model keeps the first two minutes, the stiff
# radical transient out of the noon state, which holds about an eighth of
# the window's step attempts.  With these spans the per-call times of the
# six case kinds overlap near the median instead of leaving a gap there,
# where the median would jump between the two sides.
ROBERTSON_SPAN = DEFAULT_SPANS["robertson"]["convergence"]
MAPK_SPAN = (0.0, 20.0)
STRAT_T0 = DEFAULT_SPANS["stratospheric"]["convergence"][0]
STRAT_SPAN = (STRAT_T0, STRAT_T0 + 120.0)

KDV_CELLS = 1024
KDV_H = 0.35 / 128
KDV_STEPS = 1  # fixed steps per call; one step costs about 0.45 s at 1024 cells


@dataclass
class Case:
    """One integrate call: model, solver settings, span and initial state."""

    problem: str
    method: str
    correction: str
    span: tuple
    y0: np.ndarray
    invariant: str  # label of the exact invariant gated for drift
    variant: int  # which input set of the pool
    model: object = dataclasses.field(repr=False)
    h_fixed: float | None = None  # fixed step size; None steps adaptively

    @property
    def label(self) -> str:
        return f"{self.problem}#{self.variant}/{self.method}/{self.correction}"

    def config(self) -> SolverConfig:
        return SolverConfig(
            method=self.method,
            mode="adaptive" if self.h_fixed is None else "fixed",
            h_fixed=self.h_fixed,
            atol=ATOL,
            rtol=RTOL,
            correction=self.correction,
        )

    def warm_up_case(self) -> "Case":
        """The same case over a few steps: one fixed step, or a millionth of
        the span, which the adaptive controller crosses in about seven."""
        t0, tf = self.span
        end = t0 + (self.h_fixed if self.h_fixed is not None else (tf - t0) * 1e-6)
        return dataclasses.replace(self, span=(t0, end))


def _strata(rng, dims: int) -> np.ndarray:
    """Latin hypercube sample: ``VARIANTS`` points in [0, 1)^dims.

    Each coordinate puts exactly one point in each of ``VARIANTS`` equal
    strata, in a random order, so every pool spans the whole range of
    every input and one seed's pool behaves like another's.
    """
    order = np.argsort(rng.random((dims, VARIANTS)), axis=1)
    return ((order + rng.random((dims, VARIANTS))) / VARIANTS).T


def _kinetics(seed: int, methods, correction: str) -> list:
    rng = np.random.default_rng(seed)
    problems = (
        ("robertson", {}, ROBERTSON_SPAN, "total_mass"),
        ("mapk", {"alpha": 1.0}, MAPK_SPAN, "C2"),
        ("stratospheric", {}, STRAT_SPAN, "M_N"),
    )
    models = {name: get_model(name, params) for name, params, _span, _inv in problems}
    # log-normal jitter of about 5% per component; exact zeros stay zero
    jitter = {
        name: np.exp(0.05 * ndtri(_strata(rng, model.dim))) for name, model in models.items()
    }
    cases = []
    for variant in range(VARIANTS):
        for name, _params, span, invariant in problems:
            model = models[name]
            y0 = model.y0 * jitter[name][variant]
            for method in methods:
                cases.append(Case(name, method, correction, span, y0, invariant, variant, model))
    return cases


def _kdv(seed: int) -> list:
    """Solitons at a random position on a random constant background."""
    rng = np.random.default_rng(seed)
    centers = KdvConfig(n_cells=KDV_CELLS).centers
    cases = []
    for variant, (u_shift, u_x0) in enumerate(_strata(rng, 2)):
        shift = 0.5 + u_shift
        x0 = -3.0 + 6.0 * u_x0
        params = {"n_cells": KDV_CELLS, "shift": shift}
        y0 = 6.0 / np.cosh(centers - x0) ** 2 + shift
        cases.append(
            Case("kdv", "sdirk21", "final", (0.0, KDV_STEPS * KDV_H), y0, "mass", variant,
                 get_model("kdv", params), KDV_H)
        )
    return cases


WORKLOADS = {  # name -> seed -> pool of cases
    "kinetics-final": lambda seed: _kinetics(seed, ("sdirk21", "sdirk32"), "final"),
    "kinetics-allstage": lambda seed: _kinetics(seed, ("sdirk32", "sdirk43"), "all"),
    "kdv-1024": _kdv,
}

# workload -> the calibration block that resembles its hot loop (calibration.py)
CALIBRATION = {"kinetics-final": "small", "kinetics-allstage": "small", "kdv-1024": "dense"}


def min_calls(pct: float) -> int:
    """Fewest calls that leave ten samples beyond the ``pct`` percentile."""
    n = 11
    while n - 1 - int(pct / 100 * (n - 1)) < 10:
        n += 1
    return n


def rel_err(y: np.ndarray, ref: np.ndarray) -> float:
    """Largest component error relative to |ref| + atol/rtol.

    The denominator is the solver's own error weight atol + rtol*|ref|
    divided by rtol, so tiny components are judged on the absolute scale
    the solver was asked to resolve.
    """
    return float(np.max(np.abs(y - ref) / (np.abs(ref) + ATOL / RTOL)))


def gate(case: Case, traj, ref: np.ndarray):
    """Check one trajectory; return (its final-state error, failure reasons)."""
    reasons = []
    if traj.status.value != "completed":
        reasons.append(f"status {traj.status.value}")
    if case.correction != "none" and traj.min_component < 0.0:
        reasons.append(f"negative component {traj.min_component:.3e}")
    inv = next(i for i in case.model.invariants if i.label == case.invariant)
    drift = invariant_error(traj, inv.w)
    if not drift <= DRIFT_TOL:
        reasons.append(f"{case.invariant} drift {drift:.3e}")
    err = rel_err(traj.states[-1], ref)
    if not err <= ERR_TOL:
        reasons.append(f"final-state error {err:.3e} above {ERR_TOL:.0e}")
    return err, reasons


def references(cases) -> list:
    """Final states from scipy's Radau, one per case (shared per input)."""
    from scipy import sparse
    from scipy.integrate import solve_ivp

    done = {}
    out = []
    for case in cases:
        key = (case.problem, case.span, case.y0.tobytes())
        if key not in done:
            model = case.model
            if case.problem == "kdv":
                n = model.dim
                idx = np.arange(n)
                rows = np.repeat(idx, 5)
                cols = (rows + np.tile(np.arange(-2, 3), n)) % n
                sparsity = sparse.csc_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
                rhs = lambda t, y, m=model: m.eval_rhs(y)
            else:
                sparsity = None
                rhs = lambda t, y, m=model: m.eval_G(t, y) @ y
            sol = solve_ivp(
                rhs,
                case.span,
                case.y0,
                method="Radau",
                rtol=REF_RTOL,
                atol=REF_ATOL,
                jac_sparsity=sparsity,
            )
            if sol.status != 0:
                raise RuntimeError(f"reference solve failed for {case.label}: {sol.message}")
            done[key] = sol.y[:, -1]
        out.append(done[key])
    return out
