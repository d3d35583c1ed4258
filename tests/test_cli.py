import numpy as np
import pytest

from pdint import cli
from pdint.cli import main


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_integrate_writes_trajectory_csv(tmp_path, capsys):
    out = tmp_path / "rob.csv"
    rc = main(
        [
            "integrate",
            "--problem", "robertson",
            "--method", "sdirk21",
            "--correction", "final",
            "--atol", "1e-5",
            "--rtol", "1e-5",
            "--t0", "0",
            "--tf", "100",
            "--out", str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "status: completed" in captured
    assert "E_I[total_mass]:" in captured
    header, rows = read_csv(out)
    assert header == ["t", "y1", "y2", "y3", "min_component", "h_used", "clip_count"]
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 100.0
    # summary min equals the csv column minimum
    csv_min = min(float(r[4]) for r in rows)
    line = next(l for l in captured.splitlines() if l.startswith("min_component"))
    assert float(line.split(":")[1]) == csv_min


def test_integrate_csv_deterministic(tmp_path):
    args = [
        "integrate", "--problem", "robertson", "--method", "sdirk21",
        "--correction", "none", "--atol", "1e-5", "--rtol", "1e-5",
        "--t0", "0", "--tf", "50",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_invariants_csv(tmp_path, capsys):
    out = tmp_path / "inv.csv"
    rc = main(
        [
            "invariants", "--problem", "mapk", "--param", "alpha=1",
            "--method", "sdirk21", "--correction", "final",
            "--atol", "1e-5", "--rtol", "1e-5", "--t0", "0", "--tf", "20",
            "--out", str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["invariant", "E_I"]
    table = {r[0]: float(r[1]) for r in rows}
    assert set(table) == {"C1", "C2"}
    assert table["C2"] <= 1e-12


def test_convergence_produces_slope(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    rc = main(
        [
            "convergence", "--problem", "robertson", "--method", "sdirk21",
            "--correction", "final", "--t0", "0", "--tf", "100",
            "--sweep", "1e-4,1e-5,1e-6", "--ref-tol", "1e-10",
            "--out", str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    slope_line = next(l for l in captured.splitlines() if l.startswith("slope:"))
    slope = abs(float(slope_line.split(":")[1]))
    assert 1.0 < slope < 3.5
    header, rows = read_csv(out)
    assert header == ["control", "h_avg", "error"]
    assert len(rows) == 3


def test_steptrace_schema(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(
        [
            "steptrace", "--problem", "robertson", "--method", "sdirk21",
            "--correction", "none", "--atol", "1e-5", "--rtol", "1e-5",
            "--t0", "0", "--tf", "10", "--guard", "--out", str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "status: completed" in captured
    header, rows = read_csv(out)
    assert header == ["attempt", "t", "h", "accepted", "min_predictor"]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))


def test_invalid_problem_exits_2(tmp_path):
    assert main(["integrate", "--problem", "robertson", "--t0", "5", "--tf", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["integrate", "--problem", "mapk", "--param", "alpha=2",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["integrate", "--problem", "kdv", "--mode", "fixed",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["integrate", "--problem", "robertson", "--param", "bogus",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_kdv_all_stages_warns(tmp_path, capsys):
    rc = main(
        [
            "integrate", "--problem", "kdv", "--param", "n_cells=32",
            "--method", "sdirk21", "--correction", "all",
            "--mode", "fixed", "--h", "0.01", "--t0", "0", "--tf", "0.05",
            "--out", str(tmp_path / "k.csv"),
        ]
    )
    assert rc == 0
    assert "warning" in capsys.readouterr().err


def test_timing_reports_ratio(tmp_path, capsys):
    rc = main(
        [
            "timing", "--problem", "robertson", "--method", "sdirk21",
            "--correction", "final", "--atol", "1e-5", "--rtol", "1e-5",
            "--t0", "0", "--tf", "50", "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "overhead_ratio:" in captured


@pytest.mark.parametrize(
    "mode_args,sweep",
    [
        (["--mode", "fixed", "--h", "100"], "100,-50,25"),
        (["--mode", "fixed", "--h", "100"], "100,0,25"),
        (["--mode", "adaptive"], "1e-4,-1e-5,1e-6"),
    ],
)
def test_convergence_rejects_bad_sweep_before_any_run(tmp_path, monkeypatch, mode_args, sweep):
    def no_run(*args, **kwargs):
        raise AssertionError("integrate ran before every sweep point was validated")

    monkeypatch.setattr(cli, "integrate", no_run)
    out = tmp_path / "conv.csv"
    rc = main(
        ["convergence", "--problem", "robertson", "--method", "sdirk21", *mode_args,
         "--t0", "0", "--tf", "100", "--sweep", sweep, "--out", str(out)]
    )
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("eps", ["0", "-1"])
def test_nonpositive_eps_exits_2(tmp_path, eps):
    assert main(["integrate", "--problem", "robertson", "--t0", "0", "--tf", "1",
                 "--correction", "final", "--eps", eps, "--out", str(tmp_path / "x.csv")]) == 2
