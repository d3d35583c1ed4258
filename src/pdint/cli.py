"""Command-line front end: trajectory runs, invariant tables, convergence
studies, and step-size traces, all emitted as CSV for external plotting,
and the correction's wall-clock overhead.  Every subcommand starts from
``_setup`` and writes its CSV through ``_write_csv``.

Exit codes: 0 success, 1 when a run did not complete (its status is
printed), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from .correction import CorrectionMode
from .numerics import fit_slope
from .pds import invariant_error
from .problems import DEFAULT_SPANS, PROBLEM_NAMES, get_model
from .sdirk import ConfigurationError, SolverConfig, TrajectoryStatus, integrate


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


def _setup(args, which="run"):
    """Model, config and ``which`` span from ``args``; warns on flux-form all-stage correction."""
    model = get_model(args.problem, _parse_params(args.param))
    t0, tf = DEFAULT_SPANS[args.problem][which]
    span = (t0 if args.t0 is None else args.t0, tf if args.tf is None else args.tf)
    config = SolverConfig(
        method=args.method,
        mode=args.mode,
        h_fixed=args.h,
        h0=args.h0,
        atol=args.atol,
        rtol=args.rtol,
        correction=args.correction,
        eps=args.eps,
        positivity_guard_rejection=args.guard,
    )
    if not model.multiplicand_is_state and config.correction == CorrectionMode.ALL:
        print(
            "warning: all-stages correction on a flux-form model can distort "
            "the wave dynamics; final-stage correction is recommended",
            file=sys.stderr,
        )
    return model, config, span


def _exit_code(traj, show_status=False) -> int:
    """1 for a run that did not complete, after printing its status; else 0."""
    failed = traj.status != TrajectoryStatus.COMPLETED
    if failed or show_status:
        print(f"status: {traj.status.value}")
    return int(failed)


def _write_csv(path, header, rows):
    """One line of names, then one line per row; floats keep 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_trajectory_csv(path, traj):
    d = traj.states.shape[1]
    header = ["t", *(f"y{i+1}" for i in range(d)), "min_component", "h_used", "clip_count"]
    columns = zip(traj.times, traj.states, traj.min_components, traj.h_used, traj.clip_counts)
    _write_csv(path, header, ([t, *y, m, h, int(c)] for t, y, m, h, c in columns))


def _run(args):
    """Set up from ``args`` and integrate over the run span."""
    model, config, (t0, tf) = _setup(args)
    return model, integrate(model, config, t0, tf, model.y0)


def cmd_integrate(args) -> int:
    model, traj = _run(args)
    _write_trajectory_csv(args.out, traj)
    code = _exit_code(traj, show_status=True)
    print(f"steps: accepted={traj.steps_accepted} rejected={traj.steps_rejected}")
    print(f"min_component: {_fmt(traj.min_component)}")
    for inv in model.invariants:
        print(f"E_I[{inv.label}]: {invariant_error(traj, inv.w):.6e}")
    return code


def cmd_invariants(args) -> int:
    model, traj = _run(args)
    code = _exit_code(traj)
    rows = [(inv.label, invariant_error(traj, inv.w)) for inv in model.invariants]
    _write_csv(args.out, ["invariant", "E_I"], rows)
    for label, err in rows:
        print(f"E_I[{label}]: {err:.6e}")
    return code


def cmd_convergence(args) -> int:
    model, config, (t0, tf) = _setup(args, "convergence")
    if args.sweep:
        sweep = [float(v) for v in args.sweep.split(",")]
    elif args.mode == "adaptive":
        sweep = [1e-5, 1e-6, 1e-7, 1e-8]
    else:
        sweep = [args.h, args.h / 2.0, args.h / 4.0]
    if len(sweep) < 3:
        raise ConfigurationError("need at least 3 sweep points")
    # every sweep point is validated before the (long) reference run
    if args.mode == "adaptive":
        configs = [dataclasses.replace(config, atol=v, rtol=v) for v in sweep]
    else:
        configs = [dataclasses.replace(config, h_fixed=v) for v in sweep]
    ref_cfg = SolverConfig(
        method="sdirk43",
        mode=args.mode,
        atol=args.ref_tol,
        rtol=args.ref_tol,
        h_fixed=None if args.mode == "adaptive" else args.h / 8.0,
        correction=CorrectionMode.NONE,
    )
    ref = integrate(model, ref_cfg, t0, tf, model.y0)
    if _exit_code(ref):
        return 1
    y_ref = ref.states[-1]
    rows = []
    for value, cfg in zip(sweep, configs):
        traj = integrate(model, cfg, t0, tf, model.y0)
        if _exit_code(traj):
            return 1
        err = float(np.linalg.norm(traj.states[-1] - y_ref) / np.linalg.norm(y_ref))
        rows.append((value, (tf - t0) / traj.steps_accepted, err))
    _controls, h_avgs, errors = zip(*rows)
    slope = fit_slope(h_avgs, errors)
    _write_csv(args.out, ["control", "h_avg", "error"], rows)
    print(f"slope: {slope:.6f}")
    return 0


def cmd_steptrace(args) -> int:
    _model, traj = _run(args)
    at = traj.attempts  # rows from whole columns: a per-row record access is slow
    rows = zip(range(len(at)), at.t.tolist(), at.h.tolist(), at.accepted.astype(int).tolist(),
               at.min_predictor.tolist())
    _write_csv(args.out, ["attempt", "t", "h", "accepted", "min_predictor"], rows)
    code = _exit_code(traj, show_status=True)
    print(f"attempts: {len(traj.attempts)}")
    print(f"h_first: {_fmt(traj.attempts[0].h)}")
    print(f"h_last: {_fmt(traj.attempts[-1].h)}")
    return code


def cmd_timing(args) -> int:
    model, config, (t0, tf) = _setup(args)
    seconds = []
    for cfg in (dataclasses.replace(config, correction=CorrectionMode.NONE), config):
        start = time.perf_counter()
        traj = integrate(model, cfg, t0, tf, model.y0)
        seconds.append(time.perf_counter() - start)
        if _exit_code(traj):
            return 1
    t_base, t_corr = seconds
    rows = [("none", t_base), (config.correction.value, t_corr)]
    _write_csv(args.out, ["correction", "seconds"], rows)
    print(f"uncorrected_s: {t_base:.4f}")
    print(f"corrected_s: {t_corr:.4f}")
    print(f"overhead_ratio: {t_corr / t_base:.4f}")
    return 0


def _add_common(sub):
    sub.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    sub.add_argument("--param", action="append", metavar="K=V")
    sub.add_argument("--method", default="sdirk21", choices=["sdirk21", "sdirk32", "sdirk43"])
    sub.add_argument("--correction", default="none", choices=[m.value for m in CorrectionMode])
    sub.add_argument("--mode", default="adaptive", choices=["adaptive", "fixed"])
    sub.add_argument("--atol", type=float, default=1e-6)
    sub.add_argument("--rtol", type=float, default=1e-6)
    sub.add_argument("--h", type=float, help="step size for fixed mode")
    sub.add_argument("--h0", type=float, help="initial step for adaptive mode")
    sub.add_argument("--t0", type=float)
    sub.add_argument("--tf", type=float)
    sub.add_argument("--eps", type=float, default=SolverConfig.eps,
                     help="ratio-scaling denominator floor")
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
        return args.handler(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
