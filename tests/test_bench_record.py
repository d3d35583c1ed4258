import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

# a stand-in benchmark: solve_s_p50 is the number in src/speed times the seed
FAKE_RUN = """
import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
value = float(Path("src/speed").read_text()) * seed
bad = Path("src/incorrect_seed")  # a seed whose run fails its correctness gate
correct = not bad.exists() or int(bad.read_text()) != seed
print("some text first")
print(json.dumps({"correct": correct, "attempted": 4, "failed": 0,
                  "metrics": {"solve_s_p50": {"value": value, "unit": "s"}}}))
"""
DECLARED = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 1,
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "solve_s_p50", "unit": "s", "better": "lower", "bound": 0.25}],
}


def make_root(tmp_path, name, speed, run=FAKE_RUN):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "perfbench" / "run.py").write_text(run)
    (root / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    (root / "src" / "speed").write_text(str(speed))
    return root


def test_records_alternating_pairs_with_quartiles_and_wins(tmp_path):
    parent, change = make_root(tmp_path, "parent", 2.0), make_root(tmp_path, "change", 1.0)
    out = tmp_path / "bench.json"
    assert bench_record.main([str(parent), str(change), "--out", str(out), "--pairs", "3"]) == 0
    record = json.loads(out.read_text())
    runs = record["workloads"]["w"]["runs"]
    assert [(r["seed"], r["side"]) for r in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"), (3, "parent"), (3, "change"),
    ]
    summary = record["workloads"]["w"]["summary"]["solve_s_p50"]
    assert summary["parent"] == {"median": 4.0, "q1": 3.0, "q3": 5.0}
    assert summary["change"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert (summary["change_wins"], summary["pairs"]) == (3, 3)
    assert summary["incorrect_runs"] == {"parent": 0, "change": 0}


def test_pairs_with_an_incorrect_run_are_left_out(tmp_path):
    parent, change = make_root(tmp_path, "parent", 2.0), make_root(tmp_path, "change", 1.0)
    (change / "src" / "incorrect_seed").write_text("2")
    out = tmp_path / "bench.json"
    assert bench_record.main([str(parent), str(change), "--out", str(out), "--pairs", "3"]) == 1
    record = json.loads(out.read_text())
    assert [r["correct"] for r in record["workloads"]["w"]["runs"]] == [
        True, True, False, True, True, True,
    ]
    summary = record["workloads"]["w"]["summary"]["solve_s_p50"]
    # seeds 1 and 3 only: parent 2 and 6, change 1 and 3
    assert summary["parent"] == {"median": 4.0, "q1": 3.0, "q3": 5.0}
    assert summary["change"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert (summary["change_wins"], summary["pairs"]) == (2, 2)
    assert summary["incorrect_runs"] == {"parent": 0, "change": 1}


def test_refuses_when_the_benchmarks_differ(tmp_path, capsys):
    parent = make_root(tmp_path, "parent", 1.0)
    change = make_root(tmp_path, "change", 1.0, run=FAKE_RUN + "\n# edited\n")
    out = tmp_path / "bench.json"
    assert bench_record.main([str(parent), str(change), "--out", str(out)]) == 2
    assert not out.exists()
    assert "perfbench differs" in capsys.readouterr().err


def test_ties_count_for_neither_side():
    runs = [
        {"pair": k, "side": side, "correct": True, "metrics": {"solve_s_p50": value}}
        for k, (p, c) in enumerate([(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
        for side, value in (("parent", p), ("change", c))
    ]
    summary = bench_record.summarize(runs, DECLARED["end_to_end"])["solve_s_p50"]
    assert (summary["change_wins"], summary["pairs"]) == (1, 3)



def _verdict(parent, change, better="lower", bound=0.25):
    runs = [
        {"pair": k, "side": side, "correct": True, "metrics": {"m": value}}
        for k, (p, c) in enumerate(zip(parent, change))
        for side, value in (("parent", p), ("change", c))
    ]
    declared = [{"name": "m", "unit": "s", "better": better, "bound": bound}]
    return bench_record.summarize(runs, declared)["m"]["verdict"]


def test_verdict_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_quartiles():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    assert _verdict(parent, [v - 0.2 for v in parent]) == "gain"
    # nine of ten pairs won is enough, eight is not
    assert _verdict(parent, [v - 0.2 for v in parent[:9]] + [1.2]) == "gain"
    assert _verdict(parent, [v - 0.2 for v in parent[:8]] + [1.2, 1.2]) == "same"
    # every pair won, but by less than the parent's quartile distance (0.045)
    assert _verdict(parent, [v - 0.04 for v in parent]) == "same"
    # for a metric where higher is better the gap runs the other way
    assert _verdict(parent, [v + 0.2 for v in parent], better="higher") == "gain"
    assert _verdict(parent, [v - 0.2 for v in parent], better="higher") == "same"


def test_verdict_worse_is_a_median_beyond_the_bound():
    parent = [1.0] * 10
    assert _verdict(parent, [1.3] * 10) == "worse"
    assert _verdict(parent, [1.2] * 10) == "same"
    assert _verdict(parent, [0.7] * 10, better="higher") == "worse"
    assert _verdict(parent, [0.7] * 10, bound=0.5, better="higher") == "same"


def test_verdict_unresolved_when_the_spread_exceeds_the_bound():
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]  # quartile distance 1 against an allowance of 0.375
    assert _verdict(parent, [1.5] * 6) == "unresolved"
    # unless every change run reads better than every parent run
    assert _verdict(parent, [0.9] * 6) == "same"
    assert _verdict([], []) == "unresolved"


def test_prints_one_line_per_workload_and_metric(tmp_path, capsys):
    parent, change = make_root(tmp_path, "parent", 2.0), make_root(tmp_path, "change", 1.0)
    out = tmp_path / "bench.json"
    assert bench_record.main([str(parent), str(change), "--out", str(out), "--pairs", "3"]) == 0
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]["solve_s_p50"]
    assert summary["verdict"] == "unresolved"  # parent runs 2, 4, 6: too spread for the bound
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split() == ["workload", "metric", "parent", "change", "wins", "verdict"]
    assert lines[-1].split() == ["w", "solve_s_p50", "4", "2", "3/3", "unresolved"]
