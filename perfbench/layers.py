"""Where the tracer hooks into pdint, and the per-layer metrics it yields.

Spans are opened only around names that ``pdint.sdirk`` and
``pdint.correction`` look up at call time, and around the model
callbacks, so no file of the package changes.  Span names are
``<layer>.<function>`` with the layer named after pdint's module.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from tracer import Profile

LU = "numerics.lu_solve"
WRMS = "numerics.wrms_norm"
PDS_RHS = "pds.eval_rhs"
INTEGRATE = "sdirk.integrate"
STEP = "sdirk.corrected_step"
ALL_STAGE = "sdirk.all_stage_step"
STAGE = "sdirk.solve_stage"
NEWTON = "sdirk.newton_stage"
JACOBIAN = "sdirk.fd_jacobian"
FINAL_CORR = "correction.final_stage"
CORRECTOR = "correction.corrector_solve"
H_CORRECTOR = "correction.h_form_corrector"
CALLBACKS = ("eval_G", "eval_H", "eval_rhs")  # model fields, span "problems.<field>"

# (module attribute, span name).  Underscored helpers are optional: when a
# later version drops one, its span and the metrics built on it vanish.
SDIRK_NAMES = (
    ("corrected_step", STEP),
    ("predictor_step", "sdirk.predictor_step"),
    ("solve_stage", STAGE),
    ("_newton_stage", NEWTON),
    ("_fd_jacobian", JACOBIAN),
    ("_final_stage_correction", FINAL_CORR),
    ("_all_stage_correction", ALL_STAGE),
    ("lu_solve", LU),
    ("wrms_norm", WRMS),
    ("eval_rhs", PDS_RHS),
    ("clip", "correction.clip"),
    ("ratio_scaling", "correction.ratio_scaling"),
    ("averaged_g_final", "correction.averaged_g_final"),
    ("stage_corrected_g", "correction.stage_corrected_g"),
    ("corrector_solve", CORRECTOR),
    ("h_form_corrector", H_CORRECTOR),
)
# names h_form_corrector and corrector_solve look up inside pdint.correction
CORRECTION_NAMES = (
    ("lu_solve", LU),
    ("ratio_scaling", "correction.ratio_scaling"),
    ("averaged_g_final", "correction.averaged_g_final"),
    ("corrector_solve", CORRECTOR),
)
CORRECTION_SPANS = {name for _attr, name in SDIRK_NAMES if name.startswith("correction.")}
# parents whose matrix evaluations feed the corrector, not a stage solve
CORRECTOR_MATRIX_PARENTS = (FINAL_CORR, ALL_STAGE, STEP)

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def targets(sdirk, correction) -> list:
    """(owner, attribute, span name) triples for :func:`tracer.patched`."""
    return [(sdirk, attr, name) for attr, name in SDIRK_NAMES] + [
        (correction, attr, name) for attr, name in CORRECTION_NAMES
    ]


def traced_model(model, tracer):
    """Copy of ``model`` whose callbacks open ``problems.*`` spans."""
    wrapped = {
        f.name: tracer.wrap(f"problems.{f.name}", getattr(model, f.name))
        for f in dataclasses.fields(model)
        if f.name in CALLBACKS and getattr(model, f.name) is not None
    }
    return dataclasses.replace(model, **wrapped)


def lu_gflop(calls: int, dim: int) -> float:
    """Flops of ``calls`` dense LU factorizations plus one solve each."""
    return calls * (2.0 / 3.0 * dim**3 + 2.0 * dim**2) / 1e9


def attempt_counts(trajectories) -> dict:
    """Step counts read from the trajectories themselves."""
    attempts = accepted = rej_error = rej_stage = steps_clipped = 0
    for traj in trajectories:
        attempts += len(traj.attempts)
        accepted += traj.steps_accepted
        for a in traj.attempts:
            if not a.accepted:
                if a.min_predictor != a.min_predictor:  # NaN marks a stage failure
                    rej_stage += 1
                else:
                    rej_error += 1
        steps_clipped += int((traj.clip_counts[1:] > 0).sum())
    return {
        "attempts": attempts,
        "steps_accepted": accepted,
        "rejected_error": rej_error,
        "rejected_stage_failure": rej_stage,
        "steps_clipped": steps_clipped,
    }


def determinism_counts(profile: Profile, traj) -> dict:
    """Counts of one traced call that must repeat exactly for a fixed seed."""
    steps = attempt_counts([traj])
    return {
        "attempts": steps["attempts"],
        "steps_accepted": steps["steps_accepted"],
        "lu.picard": profile.under(LU, (STAGE,)).calls,
        "lu.newton": profile.under(LU, (NEWTON,)).calls,
        "lu.corrector": profile.under(LU, (CORRECTOR,)).calls,
        "jacobian.builds": profile.total(JACOBIAN).calls,
        "rhs_evals": profile.total(PDS_RHS).calls,
    }


def per_layer(profile: Profile, installed: set, steps: dict, lu_flop: float,
              passes: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics for one pass: ``name -> (value, unit)``.

    ``profile``, ``steps`` and ``lu_flop`` cover ``passes`` identical
    passes; counts are divided back to one pass (exact, since passes
    repeat), times are the mean per pass.  Metrics resting on a span that
    was not in ``installed`` are left out.
    """
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def count(n):
        return n // passes

    def secs(s):
        return s / passes

    integrate = profile.total(INTEGRATE)
    if LU in installed:
        lu = profile.total(LU)
        put(f"{LU}.calls", count(lu.calls), "count")
        put(f"{LU}.busy_s", secs(lu.busy_s), "s")
        put(f"{LU}.us_per_call", 1e6 * lu.busy_s / max(lu.calls, 1), "us")
        put(f"{LU}.gflop_computed", lu_flop / passes, "GFLOP")
        for caller, parent in (("picard", STAGE), ("newton", NEWTON), ("corrector", CORRECTOR)):
            if parent in installed:
                put(f"{LU}.{caller}.calls", count(profile.under(LU, (parent,)).calls), "count")
        put("numerics.singular_errors", count(profile.raised.get((LU, "SingularMatrixError"), 0)), "count")
    if WRMS in installed:
        wrms = profile.total(WRMS)
        put(f"{WRMS}.calls", count(wrms.calls), "count")
        put(f"{WRMS}.busy_s", secs(wrms.busy_s), "s")

    if JACOBIAN in installed:
        jac = profile.total(JACOBIAN)
        put("sdirk.jacobian.builds", count(jac.calls), "count")
        put("sdirk.jacobian.rhs_evals", count(profile.under(PDS_RHS, (JACOBIAN,)).calls), "count")
        put("sdirk.jacobian.busy_s", secs(jac.busy_s), "s")
    stage = profile.total(STAGE)
    if STAGE in installed:
        put("sdirk.picard.calls", count(profile.having.get((STAGE, LU), 0)), "count")
        put("sdirk.picard.iters", count(profile.under(LU, (STAGE,)).calls), "count")
        put("sdirk.picard.self_s", secs(stage.self_s), "s")
    if NEWTON in installed:
        newton = profile.total(NEWTON)
        put("sdirk.newton.calls", count(newton.calls), "count")
        put("sdirk.newton.iters", count(profile.under(LU, (NEWTON,)).calls), "count")
        put("sdirk.newton.busy_s", secs(newton.busy_s), "s")
        fallbacks = profile.under(NEWTON, (STAGE,)).calls
        put("sdirk.newton.fallback_ratio", fallbacks / max(stage.calls, 1), "ratio")
    put("sdirk.attempts", count(steps["attempts"]), "count")
    put("sdirk.steps_accepted", count(steps["steps_accepted"]), "count")
    put("sdirk.accept_ratio", steps["steps_accepted"] / max(steps["attempts"], 1), "ratio")
    put("sdirk.rejected_error", count(steps["rejected_error"]), "count")
    put("sdirk.rejected_stage_failure", count(steps["rejected_stage_failure"]), "count")
    put("sdirk.us_per_attempt", 1e6 * untraced_s / max(steps["attempts"], 1), "us")
    put("sdirk.controller.self_s", secs(integrate.self_s), "s")

    for field_name in CALLBACKS:
        span = f"problems.{field_name}"
        s = profile.total(span)
        put(f"{span}.calls", count(s.calls), "count")
        put(f"{span}.busy_s", secs(s.busy_s), "s")
    if PDS_RHS in installed:
        rhs = profile.total(PDS_RHS)
        put(f"{PDS_RHS}.calls", count(rhs.calls), "count")
        put(f"{PDS_RHS}.self_s", secs(rhs.self_s), "s")

    matrix_build = sum(
        profile.under(f"problems.{m}", CORRECTOR_MATRIX_PARENTS).busy_s
        for m in ("eval_G", "eval_H")
    )
    # a correction span counts once, at its outermost level; matrix builds
    # inside correction.final_stage are already part of its busy time
    outer = sum(
        s.busy_s
        for (name, parent), s in profile.spans.items()
        if name in CORRECTION_SPANS and parent not in CORRECTION_SPANS
    )
    loose_builds = sum(
        profile.under(f"problems.{m}", (ALL_STAGE, STEP)).busy_s for m in ("eval_G", "eval_H")
    )
    correction_s = outer + loose_builds
    put("correction.busy_s", secs(correction_s), "s")
    put("correction.share", correction_s / max(integrate.busy_s, 1e-12), "ratio")
    for span in (CORRECTOR, H_CORRECTOR):
        if span in installed:
            s = profile.total(span)
            put(f"{span}.calls", count(s.calls), "count")
            put(f"{span}.busy_s", secs(s.busy_s), "s")
    put("correction.matrix_build.busy_s", secs(matrix_build), "s")
    put("correction.clip_active_frac",
        steps["steps_clipped"] / max(steps["steps_accepted"], 1), "ratio")

    put("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio")
    return out


def src_lines(root: Path) -> int:
    """Line count of the package sources under ``root/src``."""
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
