"""Digest a checkout's trajectories, README command outputs and src/ size.

Usage: python tools/trajectory_digest.py [ROOT]

Runs against ROOT/src (default: the checkout holding this script) with
BLAS pinned to one thread and prints, in order: one sha256 per run of a
fixed set of 147 integrations, over every field of its ``Trajectory``
and every ``StepAttempt``; for each ``pdint ...`` command in the code
blocks of ROOT/README.md but ``timing`` (its output is wall-clock time),
run as ``python -m pdint.cli`` in a fresh temporary directory, a sha256
of its exit code, stdout, stderr and every file it wrote; and
``src lines N``, the line count of ROOT/src/**/*.py.  Two checkouts
compute the same numbers and CLI outputs exactly when their printouts
differ at most in the last line, so one ``diff`` compares them.

The set: Robertson [0, 5000], MAPK alpha=1 [0, 20] and stratospheric
[19 h, 19 h + 120 s] x sdirk21/32/43 x none/final/all; Robertson fixed
h = 2000 on [0, 1e4] and KdV 64 cells with 8 fixed steps of 0.35/128 x
sdirk21/32 x none/final/all; the positivity-guard runs KdV 64 cells
[0, 0.35] from h0 = 0.0035 and stratospheric [12 h, 36 h] with final
correction; Robertson fixed h = 2000 final with eps = 1e-6 and MAPK
sdirk32 all with eps = 1e-3; and every case of the benchmark workloads
in ``perfbench/workloads.py`` for seed ``WORKLOAD_SEED`` (104 runs),
read from the checkout holding this script so that both sides of a
diff run the same inputs.
"""

from __future__ import annotations

import hashlib
import os
import shlex
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
    runs.append(("robertson fixed final eps=1e-6", "robertson", {},
                 {"correction": "final", "mode": "fixed", "h_fixed": 2000.0, "eps": 1e-6},
                 0.0, 1e4))
    runs.append(("mapk sdirk32 all eps=1e-3", "mapk", {"alpha": 1.0},
                 {"method": "sdirk32", "correction": "all", "eps": 1e-3}, 0.0, 20.0))
    return runs


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
    from pdint import SolverConfig, get_model, integrate

    for label, problem, params, kwargs, t0, tf in library_runs():
        model = get_model(problem, params)
        traj = integrate(model, SolverConfig(**kwargs), t0, tf, model.y0)
        print(f"{trajectory_digest(traj)}  {label}", flush=True)

    import workloads

    for name, pool in workloads.WORKLOADS.items():
        for case in pool(WORKLOAD_SEED):
            traj = integrate(case.model, case.config(), *case.span, case.y0)
            print(f"{trajectory_digest(traj)}  {name} {case.label}", flush=True)


def readme_commands(readme: Path) -> list:
    """Argument lists of the ``pdint`` commands in the README's code blocks, except ``timing``."""
    commands, in_block, line = [], False, ""
    for raw in readme.read_text().splitlines():
        if raw.lstrip().startswith("```"):
            in_block, line = not in_block, ""
            continue
        if not in_block:
            continue
        line += raw.strip()
        if line.endswith("\\"):
            line = line[:-1] + " "
            continue
        if line.startswith("pdint ") and not line.startswith("pdint timing"):
            commands.append(shlex.split(line, comments=True)[1:])
        line = ""
    return commands


def command_digest(env: dict, args: list) -> list:
    """Digest lines for one CLI command run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, "-m", "pdint.cli", *args]
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True)
        blobs = [("stdout", proc.stdout), ("stderr", proc.stderr)]
        blobs += [(path.name, path.read_bytes()) for path in sorted(Path(tmp).iterdir())]
    return [f"exit {proc.returncode}"] + [f"{n} {hashlib.sha256(b).hexdigest()}" for n, b in blobs]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    here = Path(__file__).resolve().parent
    root = Path(argv[0] if argv else here.parent).resolve()
    path = os.pathsep.join([str(root / "src"), str(here), str(here.parent / "perfbench")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    code = "import trajectory_digest; trajectory_digest.digest_all()"
    if subprocess.run([sys.executable, "-c", code], env=env).returncode:
        return 1
    for args in readme_commands(root / "README.md"):
        print("$ pdint " + shlex.join(args))
        for line in command_digest(env, args):
            print("  " + line)
    # counted as perfbench/layers.src_lines counts
    src = sorted((root / "src").rglob("*.py"))
    print(f"src lines {sum(len(p.read_text().splitlines()) for p in src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
