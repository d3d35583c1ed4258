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

