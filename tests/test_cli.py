import numpy as np
import pytest

from pdint import SolverConfig, cli, integrate, robertson
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


def test_convergence_with_a_failed_reference_run_exits_1(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    rc = main(["convergence", "--problem", "robertson", "--ref-tol", "1e-300", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().out == "status: step_too_small\n"
    assert not out.exists()


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


def test_steptrace_of_an_incomplete_run_exits_1(tmp_path, capsys):
    # the README's guard example: the guard halves the step until it is too small
    out = tmp_path / "trace.csv"
    rc = main(
        [
            "steptrace", "--problem", "kdv", "--param", "n_cells=64", "--method", "sdirk21",
            "--correction", "none", "--guard", "--h0", "0.0035", "--out", str(out),
        ]
    )
    assert rc == 1
    assert "status: step_too_small" in capsys.readouterr().out
    _header, rows = read_csv(out)
    assert rows and rows[-1][3] == "0"


def test_invalid_problem_exits_2(tmp_path):
    assert main(["integrate", "--problem", "robertson", "--t0", "5", "--tf", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["integrate", "--problem", "mapk", "--param", "alpha=2",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["integrate", "--problem", "kdv", "--mode", "fixed",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["integrate", "--problem", "robertson", "--param", "bogus",
                 "--out", str(tmp_path / "x.csv")]) == 2
    # SolverConfig rejects fixed mode without a step before the default sweep reads --h
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--problem", "robertson", "--mode", "fixed", "--out", str(out)]) == 2
    assert not out.exists()


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


@pytest.mark.parametrize("command,tf", [("convergence", "0.04"), ("timing", "0.05")])
def test_convergence_and_timing_warn_once_on_kdv_all_stages(tmp_path, capsys, command, tf):
    rc = main(
        [
            command, "--problem", "kdv", "--param", "n_cells=32", "--correction", "all",
            "--mode", "fixed", "--h", "0.01", "--tf", tf, "--out", str(tmp_path / "k.csv"),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().err.count("warning") == 1


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
    header, *rows = [line.split(",") for line in (tmp_path / "t.csv").read_text().splitlines()]
    assert header == ["correction", "seconds"]
    assert [r[0] for r in rows] == ["none", "final"]
    assert all(float(r[1]) > 0.0 for r in rows)


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


@pytest.mark.parametrize(
    "args",
    [
        ["--tf", "nan"],
        ["--tf", "inf"],
        ["--t0", "nan"],
        ["--eps", "nan", "--correction", "final"],
        ["--mode", "fixed", "--h", "1", "--tf", "2", "--guard"],
    ],
    ids=" ".join,
)
def test_non_finite_or_contradictory_settings_exit_2(tmp_path, args):
    out = tmp_path / "x.csv"
    assert main(["integrate", "--problem", "robertson", *args, "--out", str(out)]) == 2
    assert not out.exists()


def test_eps_reaches_the_corrector(tmp_path):
    args = ["integrate", "--problem", "robertson", "--mode", "fixed", "--h", "2000",
            "--t0", "0", "--tf", "1e4", "--correction", "final"]
    floored, default = tmp_path / "floored.csv", tmp_path / "default.csv"
    assert main([*args, "--eps", "1e-6", "--out", str(floored)]) == 0
    assert main([*args, "--out", str(default)]) == 0
    model = robertson()
    config = SolverConfig(mode="fixed", h_fixed=2000.0, correction="final", eps=1e-6)
    library = tmp_path / "library.csv"
    cli._write_trajectory_csv(library, integrate(model, config, 0.0, 1e4, model.y0))
    assert floored.read_bytes() == library.read_bytes()
    assert floored.read_bytes() != default.read_bytes()


# the README's guard example again: both runs end step_too_small
GUARD_RUN = ["--problem", "kdv", "--param", "n_cells=64", "--correction", "none",
             "--guard", "--h0", "0.0035"]


def test_timing_of_an_incomplete_run_exits_1(tmp_path, capsys):
    assert main(["timing", *GUARD_RUN, "--out", str(tmp_path / "t.csv")]) == 1
    captured = capsys.readouterr().out
    assert "status: step_too_small" in captured
    assert "overhead_ratio" not in captured
    assert not (tmp_path / "t.csv").exists()


def test_invariants_of_an_incomplete_run_names_its_status(tmp_path, capsys):
    assert main(["invariants", *GUARD_RUN, "--out", str(tmp_path / "inv.csv")]) == 1
    assert "status: step_too_small" in capsys.readouterr().out
