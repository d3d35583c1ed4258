"""Run the benchmark of two checkouts in alternating pairs and record every run.

Usage: python tools/bench_record.py PARENT CHANGE --out BENCH_<n>.json
           [--pairs 10] [--first-seed 1]

PARENT and CHANGE are checkout roots.  Each root runs its own
``perfbench/run.py --trace 0`` on every workload that BENCHMARK.json
declares, for its ``run_seconds``.  Pair k uses seed first-seed + k on
both sides, and which side runs first alternates from one pair to the
next, so that slow drift of the host's speed weighs on both sides alike.  The tool refuses to run when ``perfbench/`` or
BENCHMARK.json differ between the two roots, since then the two sides
would not be measured alike.

The output file holds every run's end-to-end metrics, each side's median
and quartiles per metric, the number of pairs in which the change read
better (ties count for neither side) and a verdict (see ``verdict``).  A
pair counts only when both of its runs reported ``"correct": true``; each
side's number of incorrect runs is recorded with the metrics.  It is
rewritten after every pair, so an interrupted recording keeps the pairs
it finished.  At the end the tool prints one line per workload and
metric: both medians, the wins and the verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def tree_digest(root: Path, rel: str) -> str:
    """sha256 over the names and contents of the files under ``root/rel``."""
    h = hashlib.sha256()
    base = root / rel
    files = [base] if base.is_file() else sorted(base.rglob("*"))
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``root``; returns its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"error: {' '.join(cmd)} in {root} printed no result\n{proc.stderr}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "exit": proc.returncode,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]} if values else {}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list, change: list, wins: int, lower: bool, bound: float) -> str:
    """Judge one metric from its paired values, ``parent[k]`` against ``change[k]``.

    ``wins`` counts the pairs in which the change read better.

    - ``gain``: the change wins at least nine pairs in ten, and its median
      is better than the parent's by more than the parent's quartile distance
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` times the parent's median
    - ``unresolved``: neither, and either side's quartile distance exceeds
      that allowance, unless every change run reads better than every
      parent run; also when no pair counted
    - ``same``: otherwise
    """
    if not parent:
        return "unresolved"
    p, c = quartiles(parent), quartiles(change)
    gap = (p["median"] - c["median"]) * (1.0 if lower else -1.0)  # > 0: the change is better
    if 10 * wins >= 9 * len(parent) and gap > p["q3"] - p["q1"]:
        return "gain"
    allowance = bound * abs(p["median"])
    if -gap > allowance:
        return "worse"
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if max(p["q3"] - p["q1"], c["q3"] - c["q1"]) > allowance and not all_better:
        return "unresolved"
    return "same"


def summarize(runs: list, declared: list) -> dict:
    """Per metric: each side's median and quartiles, the change's wins over pairs, a verdict.

    Only pairs in which both runs were correct count; each side's number
    of incorrect runs is recorded beside them.
    """
    incorrect = {side: sum(not r["correct"] for r in runs if r["side"] == side) for side in SIDES}
    spoiled = {r["pair"] for r in runs if not r["correct"]}
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = {}
        for run in runs:
            if name in run["metrics"] and run["pair"] not in spoiled:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"][name]
        complete = [p for p in pairs.values() if len(p) == 2]
        wins = sum((p["change"] < p["parent"]) if lower else (p["change"] > p["parent"])
                   for p in complete)
        values = {side: [p[side] for p in complete] for side in SIDES}
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **{side: quartiles(values[side]) for side in SIDES},
            "change_wins": wins,
            "pairs": len(complete),
            "incorrect_runs": incorrect,
            "verdict": verdict(values["parent"], values["change"], wins, lower, metric["bound"]),
        }
    return out


def print_table(record: dict) -> None:
    """One line per workload and metric: both medians, the change's wins, the verdict."""
    print(f"{'workload':<20} {'metric':<14} {'parent':>12} {'change':>12} {'wins':>6}  verdict")
    for workload, entry in record["workloads"].items():
        for name, m in entry.get("summary", {}).items():
            medians = [f"{m[side]['median']:12.6g}" if m[side] else f"{'-':>12}" for side in SIDES]
            print(f"{workload:<20} {name:<14} {medians[0]} {medians[1]} "
                  f"{m['change_wins']:>3}/{m['pairs']:<2}  {m['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for rel in ("BENCHMARK.json", "perfbench"):
        if tree_digest(roots["parent"], rel) != tree_digest(roots["change"], rel):
            print(f"error: {rel} differs between the two roots; refusing to compare",
                  file=sys.stderr)
            return 2
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = float(declared["run_seconds"])

    record = {
        "benchmark": declared["command"],
        "seconds": seconds,
        "pairs": args.pairs,
        "src_sha256": {side: tree_digest(root, "src") for side, root in roots.items()},
        "workloads": {},
    }
    for workload in [w["name"] for w in declared["workloads"]]:
        runs = []
        entry = record["workloads"][workload] = {"runs": runs}
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = run_once(roots[side], workload, seed, seconds)
                runs.append({"pair": k, "seed": seed, "side": side, "position": position, **result})
                print(f"{workload} pair {k} seed {seed} {side}: "
                      f"{json.dumps(result['metrics'], sort_keys=True)}", flush=True)
            entry["summary"] = summarize(runs, declared["end_to_end"])
            args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_table(record)
    failed = [r for w in record["workloads"].values() for r in w["runs"] if not r["correct"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
