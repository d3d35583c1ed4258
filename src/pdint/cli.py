"""Command-line front end: trajectory runs, invariant tables, convergence
studies, and step-size traces, all emitted as CSV for external plotting.

Exit codes: 0 success, 1 solver failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from .correction import CorrectionMode, ScalingPolicy
from .numerics import fit_slope
from .pds import invariant_error
from .problems import DEFAULT_SPANS, PROBLEM_NAMES, get_model
from .sdirk import ConfigurationError, SolverConfig, TrajectoryStatus, integrate

_CORRECTIONS = {"none": CorrectionMode.NONE, "final": CorrectionMode.FINAL, "all": CorrectionMode.ALL}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_params(pairs):
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"bad --param {pair!r}, expected key=value")
        params[key] = value
    return params


def _build_model(args):
    return get_model(args.problem, _parse_params(args.param))


def _span(args, which="run"):
    defaults = DEFAULT_SPANS[args.problem][which]
    t0 = args.t0 if args.t0 is not None else defaults[0]
    tf = args.tf if args.tf is not None else defaults[1]
    if tf <= t0:
        raise ConfigurationError("tf must exceed t0")
    return t0, tf


def _build_config(args, correction=None):
    scaling = ScalingPolicy() if args.eps is None else ScalingPolicy(epsilon_fixed=args.eps)
    return SolverConfig(
        method=args.method,
        mode=args.mode,
        h_fixed=args.h,
        h0=args.h0,
        atol=args.atol,
        rtol=args.rtol,
        correction=correction if correction is not None else _CORRECTIONS[args.correction],
        scaling=scaling,
        positivity_guard_rejection=bool(getattr(args, "guard", False)),
    )


def _write_trajectory_csv(path, traj):
    d = traj.states.shape[1]
    header = "t," + ",".join(f"y{i+1}" for i in range(d)) + ",min_component,h_used,clip_count"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(len(traj.times)):
            row = [_fmt(traj.times[k])]
            row += [_fmt(v) for v in traj.states[k]]
            row += [_fmt(traj.min_components[k]), _fmt(traj.h_used[k]), str(int(traj.clip_counts[k]))]
            fh.write(",".join(row) + "\n")


def _invariant_table(model, traj):
    rows = []
    for inv in model.invariants:
        rows.append((inv.label, invariant_error(traj, inv.w)))
    return rows


def _run(args):
    """Build the model and config from ``args`` and integrate over the run span."""
    model = _build_model(args)
    t0, tf = _span(args)
    config = _build_config(args)
    if not model.multiplicand_is_state and config.correction == CorrectionMode.ALL:
        print(
            "warning: all-stages correction on a flux-form model can distort "
            "the wave dynamics; final-stage correction is recommended",
            file=sys.stderr,
        )
    return model, integrate(model, config, t0, tf, model.y0)


def cmd_integrate(args) -> int:
    model, traj = _run(args)
    _write_trajectory_csv(args.out, traj)
    print(f"status: {traj.status.value}")
    print(f"steps: accepted={traj.steps_accepted} rejected={traj.steps_rejected}")
    print(f"min_component: {_fmt(traj.min_component)}")
    for label, err in _invariant_table(model, traj):
        print(f"E_I[{label}]: {err:.6e}")
    return 0 if traj.status == TrajectoryStatus.COMPLETED else 1


def cmd_invariants(args) -> int:
    model, traj = _run(args)
    with open(args.out, "w") as fh:
        fh.write("invariant,E_I\n")
        for label, err in _invariant_table(model, traj):
            fh.write(f"{label},{_fmt(err)}\n")
            print(f"E_I[{label}]: {err:.6e}")
    return 0 if traj.status == TrajectoryStatus.COMPLETED else 1


def _reference_state(model, t0, tf, args):
    ref_cfg = SolverConfig(
        method="sdirk43",
        mode=args.mode,
        atol=args.ref_tol,
        rtol=args.ref_tol,
        h_fixed=None if args.mode == "adaptive" else args.h / 8.0,
        correction=CorrectionMode.NONE,
    )
    ref = integrate(model, ref_cfg, t0, tf, model.y0)
    if ref.status != TrajectoryStatus.COMPLETED:
        raise RuntimeError(f"reference run failed: {ref.status.value}")
    return ref.states[-1]


def cmd_convergence(args) -> int:
    model = _build_model(args)
    t0, tf = _span(args, "convergence")
    if args.sweep:
        sweep = [float(v) for v in args.sweep.split(",")]
    elif args.mode == "adaptive":
        sweep = [1e-5, 1e-6, 1e-7, 1e-8]
    else:
        sweep = [args.h, args.h / 2.0, args.h / 4.0]
    if len(sweep) < 3:
        raise ConfigurationError("need at least 3 sweep points")
    # every sweep point is validated before the (long) reference run
    base = _build_config(args)
    if args.mode == "adaptive":
        configs = [dataclasses.replace(base, atol=v, rtol=v) for v in sweep]
    else:
        configs = [dataclasses.replace(base, h_fixed=v) for v in sweep]

    y_ref = _reference_state(model, t0, tf, args)
    controls, h_avgs, errors = [], [], []
    for value, config in zip(sweep, configs):
        traj = integrate(model, config, t0, tf, model.y0)
        if traj.status != TrajectoryStatus.COMPLETED:
            print(f"status: {traj.status.value}")
            return 1
        err = float(np.linalg.norm(traj.states[-1] - y_ref) / np.linalg.norm(y_ref))
        controls.append(value)
        h_avgs.append((tf - t0) / traj.steps_accepted)
        errors.append(err)
    slope = fit_slope(h_avgs, errors)
    with open(args.out, "w") as fh:
        fh.write("control,h_avg,error\n")
        for c, h, e in zip(controls, h_avgs, errors):
            fh.write(f"{_fmt(c)},{_fmt(h)},{_fmt(e)}\n")
    print(f"slope: {slope:.6f}")
    return 0


def cmd_steptrace(args) -> int:
    _model, traj = _run(args)
    with open(args.out, "w") as fh:
        fh.write("attempt,t,h,accepted,min_predictor\n")
        for a in traj.attempts:
            fh.write(
                f"{a.index},{_fmt(a.t)},{_fmt(a.h)},{int(a.accepted)},{_fmt(a.min_predictor)}\n"
            )
    hs = [a.h for a in traj.attempts]
    print(f"status: {traj.status.value}")
    print(f"attempts: {len(traj.attempts)}")
    if hs:
        print(f"h_first: {_fmt(hs[0])}")
        print(f"h_last: {_fmt(hs[-1])}")
    return 0


def cmd_timing(args) -> int:
    model = _build_model(args)
    t0, tf = _span(args)
    base = _build_config(args, correction=CorrectionMode.NONE)
    corr = _build_config(args)
    start = time.perf_counter()
    integrate(model, base, t0, tf, model.y0)
    t_base = time.perf_counter() - start
    start = time.perf_counter()
    integrate(model, corr, t0, tf, model.y0)
    t_corr = time.perf_counter() - start
    print(f"uncorrected_s: {t_base:.4f}")
    print(f"corrected_s: {t_corr:.4f}")
    print(f"overhead_ratio: {t_corr / t_base:.4f}")
    return 0


def _add_common(sub):
    sub.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    sub.add_argument("--param", action="append", metavar="K=V")
    sub.add_argument("--method", default="sdirk21", choices=["sdirk21", "sdirk32", "sdirk43"])
    sub.add_argument("--correction", default="none", choices=sorted(_CORRECTIONS))
    sub.add_argument("--mode", default="adaptive", choices=["adaptive", "fixed"])
    sub.add_argument("--atol", type=float, default=1e-6)
    sub.add_argument("--rtol", type=float, default=1e-6)
    sub.add_argument("--h", type=float, help="step size for fixed mode")
    sub.add_argument("--h0", type=float, help="initial step for adaptive mode")
    sub.add_argument("--t0", type=float)
    sub.add_argument("--tf", type=float)
    sub.add_argument("--eps", type=float, help="ratio-scaling denominator floor")
    sub.add_argument("--guard", action="store_true",
                     help="reject error-accepted steps with negative predictors")
    sub.add_argument("--out", default="out.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdint",
        description="Positivity-preserving predictor-corrector SDIRK integration "
        "for production-destruction systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "integrate": cmd_integrate,
        "invariants": cmd_invariants,
        "convergence": cmd_convergence,
        "steptrace": cmd_steptrace,
        "timing": cmd_timing,
    }
    for name, fn in handlers.items():
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "convergence":
            sub.add_argument("--sweep", help="comma-separated tolerances or step sizes")
            sub.add_argument("--ref-tol", type=float, default=1e-14,
                             help="tolerance of the reference run (adaptive mode)")
        sub.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.mode == "fixed" and args.h is None:
            raise ConfigurationError("fixed mode requires --h")
        return args.handler(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
