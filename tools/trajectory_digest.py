"""Compare two checkouts' trajectories, README command outputs and src/ size.

Usage: python tools/trajectory_digest.py PARENT CHANGE

Runs a fixed set of 151 integrations against PARENT/src and CHANGE/src,
both at once, with BLAS pinned to one thread; per run, each side prints
one JSON record: a sha256 over every field of its ``Trajectory`` and
every attempt row, its status, accepted and rejected step counts,
final state and largest exact-invariant drift (the ``invariant_error``
of the invariant's weights).  The tool then prints one line per run,
``identical`` when the two digests match and otherwise both statuses
and step counts, the largest relative difference
|a_i - b_i| / max(|a_i|, |b_i|) between the final states and both
drifts; a line counting the identical runs, the status changes, the
drift regressions, the parent runs whose drift is already above
``DRIFT_TOL`` and the runs whose step counts changed, and naming the
run with the largest final relative difference ("none" when every
final state is identical); one line per ``pdint ...`` command in the
code blocks of CHANGE/README.md but ``timing`` (its output is
wall-clock time), run on each side as ``python -m pdint.cli`` in a fresh
temporary directory: ``identical``, or the names of the outputs that
differ (exit code, stdout, stderr, each file it wrote); and last
``src lines P C``, the line counts of each side's src/**/*.py.  A change
keeps every number and CLI output exactly when every run and command
reads ``identical``.  The tool exits 1 when a side's child fails (it
names the side and its exit code on stderr), when a status changes, or
when a change-side drift is above both ``DRIFT_TOL`` (1e-12) and the
parent's drift; a NaN drift on the change side counts as above.

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
read from the checkout holding this script so that both sides run
the same inputs.
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
    for k, a in enumerate(traj.attempts):
        h.update(f"{k} {a.t.hex()} {a.h.hex()} {a.accepted} {a.min_predictor.hex()};".encode())
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


def print_records() -> None:
    """Print one JSON record per run, its digest and summary; must run with ROOT/src importable."""
    from pdint import integrate

    for label, model, config, t0, tf, y0 in runs():
        traj = integrate(model, config, t0, tf, y0)
        record = {"label": label, "digest": trajectory_digest(traj), **run_summary(model, traj)}
        print(json.dumps(record), flush=True)


def run_summary(model, traj) -> dict:
    """What a run's record holds beside its digest, as JSON-ready values."""
    from pdint import invariant_error

    drifts = [invariant_error(traj, inv.w) for inv in model.invariants if inv.exact]
    return {
        "status": traj.status.value,
        "accepted": traj.steps_accepted,
        "rejected": traj.steps_rejected,
        "final": traj.states[-1].tolist(),
        "drift": max(drifts, default=0.0),
    }


def final_rel_diff(old: dict, new: dict) -> float:
    """Largest |a_i - b_i| / max(|a_i|, |b_i|) between two records' final states."""
    a, b = np.array(old["final"]), np.array(new["final"])
    if a.shape != b.shape:
        return math.inf  # a change of dimension
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0.0, scale, 1.0)))


def compare_run(label: str, old: dict, new: dict) -> tuple:
    """The report line of one run's parent and change records, and its faults."""
    faults = []
    if old["status"] != new["status"]:
        faults.append("status changed")
    if not new["drift"] <= max(DRIFT_TOL, old["drift"]):  # NaN counts as drift
        faults.append("drift grew")
    if old["digest"] == new["digest"]:
        line = f"{label}: identical"
    else:
        line = (
            f"{label}: status {old['status']} {new['status']}"
            f"  accepted {old['accepted']} {new['accepted']}"
            f"  rejected {old['rejected']} {new['rejected']}"
            f"  final rel diff {final_rel_diff(old, new):.3g}"
            f"  drift {old['drift']:.3g} {new['drift']:.3g}"
        )
    return line + "".join(f"  FAIL {f}" for f in faults), faults


def compare_sides(pairs: list) -> tuple:
    """The report lines of (parent, change) record pairs, closing line last, and the exit code."""
    lines = []
    identical = status = drift = parent_drift = counts = 0
    rel, label = 0.0, "none"
    for old, new in pairs:
        line, faults = compare_run(old["label"], old, new)
        lines.append(line)
        identical += old["digest"] == new["digest"]
        status += "status changed" in faults
        drift += "drift grew" in faults
        parent_drift += not old["drift"] <= DRIFT_TOL
        counts += (old["accepted"], old["rejected"]) != (new["accepted"], new["rejected"])
        diff = final_rel_diff(old, new)
        if diff > rel:
            rel, label = diff, old["label"]
    lines.append(
        f"{len(pairs)} runs: {identical} identical, {status} status changes, "
        f"{drift} drift regressions, {parent_drift} parent runs with drift above {DRIFT_TOL:g}, "
        f"{counts} runs with changed step counts, largest final rel diff {rel:.3g} ({label})"
    )
    return lines, 1 if status or drift else 0


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


def command_digest(env: dict, args: list) -> dict:
    """sha256 of each output of one CLI command run in a fresh directory, by output name."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, "-m", "pdint.cli", *args]
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True)
        blobs = [("exit code", str(proc.returncode).encode()),
                 ("stdout", proc.stdout), ("stderr", proc.stderr)]
        blobs += [(path.name, path.read_bytes()) for path in sorted(Path(tmp).iterdir())]
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs}


def compare_outputs(old: dict, new: dict) -> str:
    """``identical``, or the names of the outputs that differ between two command digests."""
    differ = [name for name in {**old, **new} if old.get(name) != new.get(name)]
    return ", ".join(differ) or "identical"


def _env(root: Path) -> dict:
    """Environment that runs this tool's functions against ROOT/src, BLAS on one thread."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(root / "src"), str(here), str(here.parent / "perfbench")])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    roots = {"PARENT": args.parent.resolve(), "CHANGE": args.change.resolve()}
    code = "import trajectory_digest; trajectory_digest.print_records()"
    procs = {side: subprocess.Popen([sys.executable, "-c", code], env=_env(root),
                                    stdout=subprocess.PIPE) for side, root in roots.items()}
    outs = [proc.communicate()[0] for proc in procs.values()]
    failed = {side: proc.returncode for side, proc in procs.items() if proc.returncode}
    for side, returncode in failed.items():
        print(f"{side} failed with exit code {returncode}", file=sys.stderr)
    if failed:
        return 1
    sides = [[json.loads(line) for line in out.splitlines()] for out in outs]
    lines, exit_code = compare_sides(list(zip(*sides, strict=True)))
    print("\n".join(lines), flush=True)
    for cmd in readme_commands(roots["CHANGE"] / "README.md"):
        digests = [command_digest(_env(root), cmd) for root in roots.values()]
        print(f"$ pdint {shlex.join(cmd)}: {compare_outputs(*digests)}", flush=True)
    # counted as perfbench/layers.src_lines counts
    sizes = [sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
             for root in roots.values()]
    print(f"src lines {sizes[0]} {sizes[1]}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
