import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trajectory_digest.py"
spec = importlib.util.spec_from_file_location("trajectory_digest", TOOL)
trajectory_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory_digest)

README = """
Text with pdint integrate --problem mapk outside a block.

```sh
pdint integrate --problem robertson \\
    --correction final --out run.csv   # trailing comment
pdint timing --problem mapk --correction all
python -m something else
```

```
pdint steptrace --problem kdv --param n_cells=64
```
"""


def test_readme_commands_join_continuations_drop_comments_and_skip_timing(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text(README)
    assert trajectory_digest.readme_commands(readme) == [
        ["integrate", "--problem", "robertson", "--correction", "final", "--out", "run.csv"],
        ["steptrace", "--problem", "kdv", "--param", "n_cells=64"],
    ]


def synthetic(states, status="completed", rejected=0):
    """A hand-made trajectory through ``states``: unit steps, then ``rejected`` rejected attempts."""
    from pdint import Trajectory, TrajectoryStatus
    from pdint.sdirk import ATTEMPT_DTYPE

    states = np.array(states, dtype=float)
    n = len(states)
    rows = [(k, 1.0, True, 0.0, 0) for k in range(n - 1)]
    rows += [(n - 1, 1.0, False, 0.0, 0)] * rejected
    return Trajectory(
        states=states,
        attempts=np.array(rows, dtype=ATTEMPT_DTYPE).view(np.recarray),
        status=TrajectoryStatus(status),
        invariant_values={},
    )


def exchange():
    """Two species with an exact total and an inexact first component."""
    from pdint.pds import GraphLaplacianModel, LinearInvariant

    return GraphLaplacianModel(
        dim=2,
        eval_G=lambda t, y: np.zeros((2, 2)),
        invariants=(
            LinearInvariant(np.ones(2), exact=True, label="mass"),
            LinearInvariant(np.array([1.0, 0.0]), exact=False, label="first"),
        ),
    )


def summary(states, digest="parent", **kwargs):
    """A run's record; ``digest`` stands for the sha256 of its trajectory."""
    traj = synthetic(states, **kwargs)
    return {"digest": digest, **trajectory_digest.run_summary(exchange(), traj)}


def test_run_summary_reads_counts_and_only_exact_drift():
    s = summary([[1.0, 1.0], [1.5, 0.5], [0.5, 1.5 + 2e-12]], rejected=3)
    assert (s["status"], s["accepted"], s["rejected"]) == ("completed", 2, 3)
    assert s["final"] == [0.5, 1.5 + 2e-12]
    assert s["drift"] == pytest.approx(1e-12, rel=1e-3)  # not the 0.5 of the inexact one


def test_identical_runs_compare_clean():
    s = summary([[1.0, 1.0], [0.5, 1.5]])
    line, faults = trajectory_digest.compare_run("run", s, s)
    assert faults == []
    assert line == "run: identical"


def test_runs_with_equal_summaries_but_other_digests_print_both_sides():
    s = summary([[1.0, 1.0], [0.5, 1.5]])
    line, faults = trajectory_digest.compare_run("run", s, dict(s, digest="change"))
    assert faults == []
    assert line == (
        "run: status completed completed  accepted 1 1  rejected 0 0"
        "  final rel diff 0  drift 0 0"
    )


def test_final_state_difference_is_relative_per_component():
    old = summary([[1.0, 1.0], [2.0, 0.0]])
    new = summary([[1.0, 1.0], [2.0 + 4e-12, 0.0]], digest="change")
    line, faults = trajectory_digest.compare_run("run", old, new)
    assert "final rel diff 2e-12" in line
    assert faults == ["drift grew"]  # the change moved the total by 2e-12


def test_status_change_is_a_fault():
    old = summary([[1.0, 1.0], [0.5, 1.5]])
    new = summary([[1.0, 1.0]], digest="change", status="step_too_small", rejected=4)
    line, faults = trajectory_digest.compare_run("run", old, new)
    assert faults == ["status changed"]
    assert "status completed step_too_small  accepted 1 0  rejected 0 4" in line
    assert line.endswith("FAIL status changed")


@pytest.mark.parametrize(
    "old_end,new_end,grew",
    [
        (1.0, 1.0 + 5e-13, False),  # below the tolerance
        (1.0 + 4e-12, 1.0 + 2e-12, False),  # above it, but the parent drifted more
        (1.0 + 2e-12, 1.0 + 4e-12, True),  # above both
        (1.0, math.nan, True),  # a NaN drift counts as drift
    ],
)
def test_drift_fault_needs_both_the_tolerance_and_the_parent(old_end, new_end, grew):
    old = summary([[1.0, 1.0], [1.0, old_end]])
    new = summary([[1.0, 1.0], [1.0, new_end]], digest="change")
    _line, faults = trajectory_digest.compare_run("run", old, new)
    assert faults == (["drift grew"] if grew else [])


def labelled(label, states, **kwargs):
    return {"label": label, **summary(states, **kwargs)}


def test_compare_summary_counts_changed_step_counts_and_names_the_largest_difference():
    same = labelled("same", [[1.0, 1.0], [0.5, 1.5]])
    small = labelled("small", [[1.0, 1.0], [0.5, 1.5]])
    small_new = labelled("small", [[1.0, 1.0], [0.5, 1.5 * (1 + 1e-13)]], digest="change")
    large = labelled("large", [[1.0, 1.0], [0.5, 1.5]])
    large_new = labelled("large", [[1.0, 1.0], [0.5 * (1 + 1e-9), 1.5]],
                         digest="change", rejected=1)
    pairs = [(same, same), (small, small_new), (large, large_new)]
    lines, exit_code = trajectory_digest.compare_sides(pairs)
    assert exit_code == 1  # the 5e-10 move of the total is a drift regression
    assert lines[0] == "same: identical"
    assert len(lines) == 4
    assert lines[-1] == (
        "3 runs: 1 identical, 0 status changes, 1 drift regressions, "
        "0 parent runs with drift above 1e-12, "
        "1 runs with changed step counts, largest final rel diff 1e-09 (large)"
    )


def test_compare_summary_of_identical_runs_exits_zero():
    runs = [labelled(f"run{i}", [[1.0, 1.0], [0.5, 1.5]]) for i in range(2)]
    lines, exit_code = trajectory_digest.compare_sides([(r, r) for r in runs])
    assert exit_code == 0
    assert lines[:2] == ["run0: identical", "run1: identical"]
    assert lines[-1].startswith("2 runs: 2 identical, 0 status changes")
    assert lines[-1].endswith("0 runs with changed step counts, largest final rel diff 0 (none)")


def test_compare_summary_exits_one_on_a_status_change():
    old = labelled("run", [[1.0, 1.0], [0.5, 1.5]])
    new = labelled("run", [[1.0, 1.0]], digest="change", status="step_too_small", rejected=4)
    lines, exit_code = trajectory_digest.compare_sides([(old, new)])
    assert exit_code == 1
    assert lines[-1].startswith("1 runs: 0 identical, 1 status changes, 0 drift regressions")
    assert "1 runs with changed step counts" in lines[-1]


def test_equal_command_outputs_read_identical():
    outputs = {"exit code": "a", "stdout": "b", "stderr": "c", "run.csv": "d"}
    assert trajectory_digest.compare_outputs(outputs, dict(outputs)) == "identical"


def test_differing_command_outputs_are_named():
    old = {"exit code": "a", "stdout": "b", "stderr": "c", "run.csv": "d"}
    new = {"exit code": "a", "stdout": "B", "stderr": "c", "run.csv": "d", "trace.csv": "e"}
    assert trajectory_digest.compare_outputs(old, new) == "stdout, trace.csv"
    assert trajectory_digest.compare_outputs(new, old) == "stdout, trace.csv"


def test_command_digest_names_every_output():
    env = trajectory_digest._env(Path(__file__).resolve().parents[1])
    outputs = trajectory_digest.command_digest(env, ["integrate", "--problem", "nope"])
    assert list(outputs) == ["exit code", "stdout", "stderr"]  # argparse exits 2, writes nothing


def fake_root(tmp_path, name, body):
    """A checkout whose ``pdint`` runs ``body`` when it is imported."""
    package = tmp_path / name / "src" / "pdint"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(body)
    return tmp_path / name


def test_a_failed_side_is_named_with_its_exit_code(tmp_path, capfd):
    parent = fake_root(tmp_path, "parent", "raise SystemExit(0)\n")  # no runs, no failure
    change = fake_root(tmp_path, "change", "raise SystemExit(3)\n")
    assert trajectory_digest.main([str(parent), str(change)]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.splitlines() == ["CHANGE failed with exit code 3"]
