"""Digest a checkout's trajectories, README command outputs and src/ size.

Usage: python tools/trajectory_digest.py [ROOT]
       python tools/trajectory_digest.py --compare PARENT CHANGE

Runs against ROOT/src (default: the checkout holding this script) with
BLAS pinned to one thread and prints, in order: one sha256 per run of a
fixed set of 151 integrations, over every field of its ``Trajectory``
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
sdirk21/32 x none/final/all; KdV 64 cells whose H scipy assembles from
a sparse destruction matrix (:func:`kdv_destruction_model`), 128 fixed
steps of 0.35/128 x sdirk21/32 x final/all; the positivity-guard runs KdV 64
cells [0, 0.35] from h0 = 0.0035 and stratospheric [12 h, 36 h] with
final correction; Robertson fixed h = 2000 final with eps = 1e-6 and MAPK
sdirk32 all with eps = 1e-3; and every case of the benchmark workloads
in ``perfbench/workloads.py`` for seed ``WORKLOAD_SEED`` (104 runs),
read from the checkout holding this script so that both sides of a
diff run the same inputs.

``--compare PARENT CHANGE`` runs the same set against PARENT/src and
CHANGE/src, both at once, and says by how much each run moved instead of
whether it did.  It prints one line per run: the status on each side,
accepted and rejected step counts, the largest relative difference
|a_i - b_i| / max(|a_i|, |b_i|) between the final states, and the largest
drift of an exact invariant (the ``invariant_error`` of its weights) on
each side.  A last line counts the status changes, the drift
regressions and the parent runs whose drift is already above
``DRIFT_TOL``.  It exits 1 when a status changes, or when a change-side
drift is above both ``DRIFT_TOL`` (1e-12) and the parent's drift; a NaN
drift on the change side counts as above.  README commands and the
``src lines`` count are left to the digest mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
DRIFT_TOL = 1e-12


def library_runs():
    """(label, problem, params, config kwargs, t0, tf) of the library runs.

    ``problem`` is a name for ``pdint.get_model`` or a function that takes
    ``params`` as keywords and returns the model.
    """
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
    for method in METHODS[:2]:
        for mode in MODES[1:]:
            kwargs = {"method": method, "correction": mode, "mode": "fixed", "h_fixed": KDV_H}
            runs.append((f"kdv destruction fixed {method} {mode}", kdv_destruction_model,
                         {"n_cells": 64}, kwargs, 0.0, 128 * KDV_H))
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


def kdv_destruction_model(n_cells: int):
    """KdV whose H is assembled by scipy from a sparse donor/receiver destruction matrix.

    The pattern of that H follows the signs of the interface rates, and a
    cell that drains into neither neighbour stores no diagonal entry.  Over
    [0, 0.35] the stages of some steps then give H of different patterns
    (from step 36 of 128 on), so the sparse corrector kernels see general inputs;
    KdV's own ``eval_H`` fills one fixed template.  Must run with ROOT/src
    importable.
    """
    import dataclasses

    from scipy import sparse

    from pdint.pds import assemble_h_from_destruction
    from pdint.problems import KdvConfig, kdv, kdv_interface_rates

    cfg = KdvConfig(n_cells=n_cells)
    idx = np.arange(n_cells)
    ip1 = (idx + 1) % n_cells

    def eval_H(y):
        rate = kdv_interface_rates(cfg, y)  # interface i+1/2 drains cell i+1 when positive
        pos = rate >= 0.0
        donor, receiver = np.where(pos, ip1, idx), np.where(pos, idx, ip1)
        dest = sparse.csc_array((np.abs(rate), (donor, receiver)), shape=(n_cells, n_cells))
        return assemble_h_from_destruction(dest)

    return dataclasses.replace(kdv(cfg), eval_H=eval_H)


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


def runs():
    """(label, model, config, t0, tf, y0) of every run; must run with ROOT/src importable."""
    from pdint import SolverConfig, get_model

    for label, problem, params, kwargs, t0, tf in library_runs():
        model = problem(**params) if callable(problem) else get_model(problem, params)
        yield label, model, SolverConfig(**kwargs), t0, tf, model.y0

    import workloads

    for name, pool in workloads.WORKLOADS.items():
        for case in pool(WORKLOAD_SEED):
            yield f"{name} {case.label}", case.model, case.config(), *case.span, case.y0


def digest_all() -> None:
    """Print one digest line per run; must run with ROOT/src importable."""
    from pdint import integrate

    for label, model, config, t0, tf, y0 in runs():
        traj = integrate(model, config, t0, tf, y0)
        print(f"{trajectory_digest(traj)}  {label}", flush=True)


def run_summary(model, traj) -> dict:
    """What ``--compare`` reports of one run, as JSON-ready values."""
    from pdint import invariant_error

    drifts = [invariant_error(traj, inv.w) for inv in model.invariants if inv.exact]
    return {
        "status": traj.status.value,
        "accepted": traj.steps_accepted,
        "rejected": traj.steps_rejected,
        "final": traj.states[-1].tolist(),
        "drift": max(drifts, default=0.0),
    }


def summarize_all() -> None:
    """Print one JSON summary line per run; must run with ROOT/src importable."""
    from pdint import integrate

    for label, model, config, t0, tf, y0 in runs():
        traj = integrate(model, config, t0, tf, y0)
        print(json.dumps({"label": label, **run_summary(model, traj)}), flush=True)


def compare_run(label: str, old: dict, new: dict) -> tuple:
    """The report line of one run's parent and change summaries, and its faults."""
    a, b = np.array(old["final"]), np.array(new["final"])
    rel = math.inf  # a change of dimension
    if a.shape == b.shape:
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = float(np.max(np.abs(a - b) / np.where(scale > 0.0, scale, 1.0)))
    faults = []
    if old["status"] != new["status"]:
        faults.append("status changed")
    if not new["drift"] <= max(DRIFT_TOL, old["drift"]):  # NaN counts as drift
        faults.append("drift grew")
    line = (
        f"{label}: status {old['status']} {new['status']}"
        f"  accepted {old['accepted']} {new['accepted']}"
        f"  rejected {old['rejected']} {new['rejected']}"
        f"  final rel diff {rel:.3g}  drift {old['drift']:.3g} {new['drift']:.3g}"
    )
    return line + "".join(f"  FAIL {f}" for f in faults), faults


def compare_roots(parent: Path, change: Path) -> int:
    """Run every run against both roots and print :func:`compare_run` lines."""
    code = "import trajectory_digest; trajectory_digest.summarize_all()"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=_env(root), stdout=subprocess.PIPE)
        for root in (parent, change)
    ]
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        return 1
    sides = [[json.loads(line) for line in out.splitlines()] for out in outs]
    status = drift = parent_drift = 0
    for old, new in zip(*sides):
        line, faults = compare_run(old["label"], old, new)
        print(line)
        status += "status changed" in faults
        drift += "drift grew" in faults
        parent_drift += not old["drift"] <= DRIFT_TOL
    print(f"{len(sides[0])} runs: {status} status changes, {drift} drift regressions, "
          f"{parent_drift} parent runs with drift above {DRIFT_TOL:g}")
    return 1 if status or drift else 0


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


def _env(root: Path) -> dict:
    """Environment that runs this tool's functions against ROOT/src, BLAS on one thread."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(root / "src"), str(here), str(here.parent / "perfbench")])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_roots(*(p.resolve() for p in args.compare))
    root = args.root.resolve()
    env = _env(root)
    code = "import trajectory_digest; trajectory_digest.digest_all()"
    if subprocess.run([sys.executable, "-c", code], env=env).returncode:
        return 1
    for cmd in readme_commands(root / "README.md"):
        print("$ pdint " + shlex.join(cmd))
        for line in command_digest(env, cmd):
            print("  " + line)
    # counted as perfbench/layers.src_lines counts
    src = sorted((root / "src").rglob("*.py"))
    print(f"src lines {sum(len(p.read_text().splitlines()) for p in src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
