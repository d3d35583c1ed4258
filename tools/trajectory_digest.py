"""Digest the trajectories of a fixed set of integrations.

Usage: python tools/trajectory_digest.py [ROOT]

Runs a fixed set of 147 integrations against ROOT/src (default: the
checkout holding this script) in a child process with BLAS pinned to
one thread, and prints one sha256 per run over the trajectory's
``times``, ``states``, ``min_components``, ``h_used``, ``clip_counts``,
``invariant_values``, ``status`` and every ``StepAttempt``.  Two
checkouts integrate bit-identically on the set exactly when their
printouts are equal, so one ``diff`` compares them.

The set: Robertson [0, 5000], MAPK alpha=1 [0, 20] and stratospheric
[19 h, 19 h + 120 s] x sdirk21/32/43 x none/final/all; Robertson fixed
h = 2000 on [0, 1e4] and KdV 64 cells with 8 fixed steps of 0.35/128 x
sdirk21/32 x none/final/all; the positivity-guard runs KdV 64 cells
[0, 0.35] from h0 = 0.0035 and stratospheric [12 h, 36 h] with final
correction; two runs of ``pdint.cli.main`` with ``--eps``; and every
case of the benchmark workloads in ``perfbench/workloads.py`` for seed
``WORKLOAD_SEED`` (104 runs).  The workload cases are read from the
checkout holding this script, so both sides of a diff run the same
inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

METHODS = ("sdirk21", "sdirk32", "sdirk43")
MODES = ("none", "final", "all")
HOUR = 3600.0
KDV_H = 0.35 / 128
WORKLOAD_SEED = 1


def library_runs():
    """(label, problem, params, config kwargs, t0, tf) of the library runs."""
    runs = []
    adaptive = (
        ("robertson", {}, 0.0, 5000.0),
        ("mapk", {"alpha": 1.0}, 0.0, 20.0),
        ("stratospheric", {}, 19 * HOUR, 19 * HOUR + 120.0),
    )
    for problem, params, t0, tf in adaptive:
        for method in METHODS:
            for mode in MODES:
                runs.append((f"{problem} {method} {mode}", problem, params,
                             {"method": method, "correction": mode}, t0, tf))
    fixed = (
        ("robertson", {}, 2000.0, 0.0, 1e4),
        ("kdv", {"n_cells": 64}, KDV_H, 0.0, 8 * KDV_H),
    )
    for problem, params, h, t0, tf in fixed:
        for method in METHODS[:2]:
            for mode in MODES:
                kwargs = {"method": method, "correction": mode, "mode": "fixed", "h_fixed": h}
                runs.append((f"{problem} fixed {method} {mode}", problem, params, kwargs, t0, tf))
    runs.append(("kdv guard none", "kdv", {"n_cells": 64},
                 {"h0": 0.0035, "positivity_guard_rejection": True}, 0.0, 0.35))
    runs.append(("stratospheric guard final", "stratospheric", {},
                 {"correction": "final", "positivity_guard_rejection": True}, 12 * HOUR, 36 * HOUR))
    return runs


CLI_RUNS = (
    ("robertson fixed final --eps 1e-6",
     ["--problem", "robertson", "--mode", "fixed", "--h", "2000", "--t0", "0", "--tf", "1e4",
      "--correction", "final", "--eps", "1e-6"]),
    ("mapk sdirk32 all --eps 1e-3",
     ["--problem", "mapk", "--param", "alpha=1", "--method", "sdirk32", "--t0", "0", "--tf", "20",
      "--correction", "all", "--eps", "1e-3"]),
)


def trajectory_digest(traj) -> str:
    """sha256 over every recorded field of a trajectory."""
    h = hashlib.sha256()
    for arr in (traj.times, traj.states, traj.min_components, traj.h_used, traj.clip_counts):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())
    for label in sorted(traj.invariant_values):
        h.update(label.encode())
        h.update(np.ascontiguousarray(traj.invariant_values[label], dtype=float).tobytes())
    h.update(traj.status.value.encode())
    for a in traj.attempts:
        h.update(f"{a.index} {a.t.hex()} {a.h.hex()} {a.accepted} {a.min_predictor.hex()};".encode())
    return h.hexdigest()


def digest_all() -> None:
    """Print one digest line per run; must run with ROOT/src importable."""
    from pdint import SolverConfig, cli, get_model, integrate

    for label, problem, params, kwargs, t0, tf in library_runs():
        model = get_model(problem, params)
        traj = integrate(model, SolverConfig(**kwargs), t0, tf, model.y0)
        print(f"{trajectory_digest(traj)}  {label}", flush=True)

    captured = []

    def capture(*args):
        captured.append(integrate(*args))
        return captured[-1]

    cli.integrate = capture
    with tempfile.TemporaryDirectory() as tmp:
        for label, args in CLI_RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["integrate", *args, "--out", str(Path(tmp) / "out.csv")])
            print(f"{trajectory_digest(captured.pop())}  {label} (exit {rc})", flush=True)

    import workloads

    for name, pool in workloads.WORKLOADS.items():
        for case in pool(WORKLOAD_SEED):
            traj = integrate(case.model, case.config(), *case.span, case.y0)
            print(f"{trajectory_digest(traj)}  {name} {case.label}", flush=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    here = Path(__file__).resolve().parent
    path = [str(root / "src"), str(here), str(here.parent / "perfbench")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    code = "import trajectory_digest; trajectory_digest.digest_all()"
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
