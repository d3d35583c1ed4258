"""pdint benchmark: time to solution on fixed workloads, with a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload kinetics-final --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with one client: it calls
``pdint.integrate`` back to back, round and round the workload's pool of
cases, until ``--seconds`` have passed and at least ten samples lie beyond
the tail percentile, stopping only between two input sets.  Every result
is checked against a scipy Radau reference computed in a child process,
outside every timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` integrates each
case once plain and once with spans wrapped around pdint's layers, checks
that both give the same trajectory bit for bit and that per-layer counts
repeat exactly when a case is integrated again, and prints the per-layer
metrics of one pass.  The last line of standard output is always the JSON
result; the process exits with 1 after it when a check failed.
"""

import os
import sys
import time

_START = time.perf_counter()
# BLAS must be pinned before numpy is first imported, here and in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_PROBES = 4  # extra fresh processes timed for setup_s
MAX_MEASURE_S = 100.0  # cap on measuring, keeps a run inside its time limit
PROBE_TIMEOUT_S = 120.0
# Fixed so that a faster program does not move it; every run takes enough
# calls to leave ten samples beyond it.
TAIL_PCT = 75


def setup(workload_name: str, seed: int):
    """Import pdint, build the workload's models and inputs, warm up once.

    This is what ``setup_s`` times, from interpreter start.
    """
    if not (SRC / "pdint" / "__init__.py").is_file():
        sys.exit(f"error: pdint sources not found in {SRC}")
    sys.path.insert(0, str(SRC))
    import pdint
    import workloads

    try:
        build = workloads.WORKLOADS[workload_name]
    except KeyError:
        sys.exit(f"error: unknown workload {workload_name!r}; choose from {sorted(workloads.WORKLOADS)}")
    cases = build(seed)
    for case in cases:
        if case.variant > 0:
            break
        warm = case.warm_up_case()
        pdint.integrate(warm.model, warm.config(), *warm.span, warm.y0)
    return cases


def probe(kind: str, args) -> object:
    """Run this script as a child process and return its JSON answer."""
    cmd = [sys.executable, __file__, "--probe", kind, "--workload", args.workload,
           "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        sys.exit(f"error: {kind} probe failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def environment() -> dict:
    import scipy

    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def same_trajectory(a, b) -> bool:
    """Bit-for-bit equality of everything a trajectory records."""
    arrays = ("times", "states", "min_components", "h_used", "clip_counts")
    if a.status != b.status or len(a.attempts) != len(b.attempts):
        return False
    if (a.steps_accepted, a.steps_rejected) != (b.steps_accepted, b.steps_rejected):
        return False
    pairs = [(getattr(a, f), getattr(b, f)) for f in arrays]
    pairs += [(a.invariant_values[k], b.invariant_values[k]) for k in a.invariant_values]
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in pairs)


def fingerprint(traj) -> tuple:
    return (hashlib.sha256(traj.states.tobytes()).hexdigest(), len(traj.attempts),
            traj.steps_accepted)


def timed_call(integrate, model, case):
    """One integrate call: (trajectory, or the exception it raised; seconds)."""
    config = case.config()
    t = time.perf_counter()
    try:
        out = integrate(model, config, *case.span, case.y0)
    except Exception as exc:  # an escaped solver error fails the call, not the run
        out = exc
    return out, time.perf_counter() - t


class Checker:
    """Gates every result and tracks what must repeat between passes."""

    def __init__(self, cases, refs):
        self.cases, self.refs = cases, refs
        self.attempted = 0
        self.failures = []
        self.errors = {}  # case index -> final-state error; repeats are identical
        self.nondeterministic = []
        self._first = {}

    def gate(self, i, out) -> bool:
        """Check one call's outcome; True when it returned a trajectory."""
        import workloads

        self.attempted += 1
        if isinstance(out, Exception):
            self.failures.append(f"{self.cases[i].label}: raised {type(out).__name__}: {out}")
            return False
        err, reasons = workloads.gate(self.cases[i], out, self.refs[i])
        self.errors.setdefault(i, err)
        if reasons:
            self.failures.append(f"{self.cases[i].label}: {', '.join(reasons)}")
        return True

    def counts_digest(self) -> str:
        """Short hash of every repeated value, to compare runs by eye."""
        blob = json.dumps(sorted(self._first.items(), key=str), default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def repeat(self, i, key, value):
        """Record ``value`` for case ``i``; later calls must match the first."""
        first = self._first.setdefault((i, key), value)
        if first != value:
            self.nondeterministic.append(f"{self.cases[i].label}: {key} {first} then {value}")


def geometric_mean(values) -> float:
    """Typical size of the per-case errors; steadier across seeds than the max."""
    return float(np.exp(np.mean(np.log(values)))) if values else float("nan")


def passes_for(seconds, first_pass_s):
    """Whole passes that fill ``seconds`` best, judged by the first pass."""
    fit = round(seconds / max(first_pass_s, 1e-9))
    return max(1, min(fit, int(MAX_MEASURE_S / max(first_pass_s, 1e-9))))


def measure(cases, checker, seconds, block):
    """Untraced closed loop over the pool until ``seconds`` have passed.

    The loop stops only where one input set ends and the next begins, and
    only once it has the calls the tail needs, so every case kind is timed
    equally often.  A last partial pass covers the first input sets of the
    pool, which are a random subset of its strata.  Returns per-call
    seconds and the calibration block times: one before the first call
    and one after each call.
    """
    from pdint import integrate

    import workloads

    min_calls = workloads.min_calls(TAIL_PCT)
    deadline = min(seconds, MAX_MEASURE_S)
    times, blocks = [], [block()]
    start = time.perf_counter()
    for n in itertools.count():
        i = n % len(cases)
        case = cases[i]
        if (i == 0 or case.variant != cases[i - 1].variant) and len(times) >= min_calls \
                and time.perf_counter() - start >= deadline:
            break
        if i == 0:
            gc.collect()
        traj, elapsed = timed_call(integrate, case.model, case)
        times.append(elapsed)
        blocks.append(block())
        if checker.gate(i, traj):
            checker.repeat(i, "trajectory", fingerprint(traj))
    return times, blocks


def measure_traced(cases, checker, seconds):
    """Each case plain, then traced; returns per-layer metrics for one pass.

    After the timed passes the first input set is integrated traced once
    more, so the per-layer counts are seen to repeat in every run.
    """
    import layers
    import pdint.correction
    import pdint.sdirk
    from tracer import Profile, Tracer, patched

    tracer = Tracer()
    targets = layers.targets(pdint.sdirk, pdint.correction)
    models = [layers.traced_model(case.model, tracer) for case in cases]
    traced_integrate = tracer.wrap(layers.INTEGRATE, pdint.sdirk.integrate)
    installed = {layers.INTEGRATE} | {f"problems.{f}" for f in layers.CALLBACKS}

    def traced(i):
        with patched(tracer, targets) as names:
            installed.update(names)
            traj, elapsed = timed_call(traced_integrate, models[i], cases[i])
        profile = tracer.take()
        if checker.gate(i, traj):
            checker.repeat(i, "counts", layers.determinism_counts(profile, traj))
        return traj, profile, elapsed

    total = Profile()
    trajectories = []
    lu_flop = untraced_s = traced_s = 0.0
    passes = done = 0
    start = time.perf_counter()
    while done < max(passes, 1):
        gc.collect()
        for i, case in enumerate(cases):
            plain, elapsed = timed_call(pdint.sdirk.integrate, case.model, case)
            untraced_s += elapsed
            checker.gate(i, plain)
            traj, profile, elapsed = traced(i)
            traced_s += elapsed
            if type(plain) is not type(traj) or (
                not isinstance(traj, Exception) and not same_trajectory(plain, traj)
            ):
                checker.nondeterministic.append(f"{case.label}: traced result differs")
            lu_flop += layers.lu_gflop(profile.total(layers.LU).calls, case.model.dim)
            total.merge(profile)
            if not isinstance(traj, Exception):
                trajectories.append(traj)
        done += 1
        if done == 1:
            passes = passes_for(seconds, time.perf_counter() - start)
    for i, case in enumerate(cases):
        if case.variant == 0:
            traced(i)
    steps = layers.attempt_counts(trajectories)
    metrics = layers.per_layer(total, installed, steps, lu_flop, passes, untraced_s, traced_s)
    metrics["src.lines"] = (layers.src_lines(ROOT), "lines")
    return metrics, passes


def report(name, value, unit, note=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "reference"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    cases = setup(args.workload, args.seed)
    setup_self = time.perf_counter() - _START
    import calibration
    import workloads

    block, ref_s = calibration.BLOCKS[workloads.CALIBRATION[args.workload]]
    if args.probe == "setup":
        print(json.dumps([setup_self, block()]))
        return 0

    if args.probe == "reference":
        print(json.dumps([ref.tolist() for ref in workloads.references(cases)]))
        return 0

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    refs = [np.array(r) for r in probe("reference", args)]
    checker = Checker(cases, refs)
    metrics = {}
    if args.trace == 0:
        setups = [(setup_self, block())] + [probe("setup", args) for _ in range(SETUP_PROBES)]
        setup_raw = statistics.median(s for s, _ in setups)
        setup_s = statistics.median(s * ref_s / b for s, b in setups)
        raw, blocks = measure(cases, checker, args.seconds, block)
        times = calibration.scaled(raw, blocks, ref_s)
        n = len(times)
        p50 = statistics.median(times)
        tail = float(np.percentile(times, TAIL_PCT))
        beyond = sum(t > tail for t in times)
        failed = len(checker.failures)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{args.workload} seed={args.seed}: {n} calls over a pool of {len(cases)}; "
              f"times scaled to the reference machine speed by the "
              f"{workloads.CALIBRATION[args.workload]} calibration block next to each")
        rows = [
            ("solve_s_p50", p50, "s",
             f"median, n={n}, raw {statistics.median(raw):.4g} s"),
            ("solve_s_tail", tail, "s",
             f"p{TAIL_PCT}, n={n}, {beyond} beyond, raw {np.percentile(raw, TAIL_PCT):.4g} s"),
            ("final_err", geometric_mean(list(checker.errors.values())), "rel",
             f"geometric mean over {len(checker.errors)} cases"),
            ("final_err_max", max(checker.errors.values(), default=float("nan")), "rel",
             f"largest, not gated; gate {workloads.ERR_TOL:g} per call"),
            ("failed_frac", failed / checker.attempted, "ratio", f"{failed}/{checker.attempted}, not gated"),
            ("peak_rss_mb", peak, "MiB", ""),
            ("setup_s", setup_s, "s",
             f"median of {len(setups)} processes, raw {setup_raw:.4g} s"),
        ]
        for name, value, unit, note in rows:
            report(name, value, unit, note)
            if name not in ("failed_frac", "final_err_max"):
                metrics[name] = {"value": value, "unit": unit}
    else:
        per_layer, passes = measure_traced(cases, checker, args.seconds)
        print(f"{args.workload} seed={args.seed}: {passes} traced passes of {len(cases)} calls, "
              "per-layer values are per pass")
        for name, (value, unit) in per_layer.items():
            report(name, value, unit)
            metrics[name] = {"value": value, "unit": unit}
        print(f"counts digest {checker.counts_digest()}")

    for line in checker.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for line in checker.nondeterministic:
        print(f"NONDETERMINISTIC {line}", file=sys.stderr)
    correct = not checker.failures and not checker.nondeterministic
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
