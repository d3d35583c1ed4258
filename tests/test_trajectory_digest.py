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
    """A hand-made trajectory through ``states``, with ``rejected`` extra attempts."""
    from pdint import Trajectory, TrajectoryStatus

    states = np.array(states, dtype=float)
    n = len(states)
    return Trajectory(
        times=np.arange(n, dtype=float),
        states=states,
        h_used=np.ones(n),
        clip_counts=np.zeros(n, dtype=int),
        attempts=[None] * (n - 1 + rejected),
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


def summary(states, **kwargs):
    return trajectory_digest.run_summary(exchange(), synthetic(states, **kwargs))


def test_run_summary_reads_counts_and_only_exact_drift():
    s = summary([[1.0, 1.0], [1.5, 0.5], [0.5, 1.5 + 2e-12]], rejected=3)
    assert (s["status"], s["accepted"], s["rejected"]) == ("completed", 2, 3)
    assert s["final"] == [0.5, 1.5 + 2e-12]
    assert s["drift"] == pytest.approx(1e-12, rel=1e-3)  # not the 0.5 of the inexact one


def test_identical_runs_compare_clean():
    s = summary([[1.0, 1.0], [0.5, 1.5]])
    line, faults = trajectory_digest.compare_run("run", s, s)
    assert faults == []
    assert line == (
        "run: status completed completed  accepted 1 1  rejected 0 0"
        "  final rel diff 0  drift 0 0"
    )


def test_final_state_difference_is_relative_per_component():
    old = summary([[1.0, 1.0], [2.0, 0.0]])
    new = summary([[1.0, 1.0], [2.0 + 4e-12, 0.0]])
    line, faults = trajectory_digest.compare_run("run", old, new)
    assert "final rel diff 2e-12" in line
    assert faults == ["drift grew"]  # the change moved the total by 2e-12


def test_status_change_is_a_fault():
    old = summary([[1.0, 1.0], [0.5, 1.5]])
    new = summary([[1.0, 1.0]], status="step_too_small", rejected=4)
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
    new = summary([[1.0, 1.0], [1.0, new_end]])
    _line, faults = trajectory_digest.compare_run("run", old, new)
    assert faults == (["drift grew"] if grew else [])


def labelled(label, states, **kwargs):
    return {"label": label, **summary(states, **kwargs)}


def test_compare_summary_counts_changed_step_counts_and_names_the_largest_difference():
    same = labelled("same", [[1.0, 1.0], [0.5, 1.5]])
    small = labelled("small", [[1.0, 1.0], [0.5, 1.5]])
    small_new = labelled("small", [[1.0, 1.0], [0.5, 1.5 * (1 + 1e-13)]])
    large = labelled("large", [[1.0, 1.0], [0.5, 1.5]])
    large_new = labelled("large", [[1.0, 1.0], [0.5 * (1 + 1e-9), 1.5]], rejected=1)
    pairs = [(same, same), (small, small_new), (large, large_new)]
    lines, exit_code = trajectory_digest.compare_sides(pairs)
    assert exit_code == 1  # the 5e-10 move of the total is a drift regression
    assert len(lines) == 4
    assert lines[-1] == (
        "3 runs: 0 status changes, 1 drift regressions, 0 parent runs with drift above 1e-12, "
        "1 runs with changed step counts, largest final rel diff 1e-09 (large)"
    )


def test_compare_summary_of_identical_runs_exits_zero():
    runs = [labelled(f"run{i}", [[1.0, 1.0], [0.5, 1.5]]) for i in range(2)]
    lines, exit_code = trajectory_digest.compare_sides([(r, r) for r in runs])
    assert exit_code == 0
    assert lines[-1].endswith("0 runs with changed step counts, largest final rel diff 0 (none)")


def test_compare_summary_exits_one_on_a_status_change():
    old = labelled("run", [[1.0, 1.0], [0.5, 1.5]])
    new = labelled("run", [[1.0, 1.0]], status="step_too_small", rejected=4)
    lines, exit_code = trajectory_digest.compare_sides([(old, new)])
    assert exit_code == 1
    assert lines[-1].startswith("1 runs: 1 status changes, 0 drift regressions")
    assert "1 runs with changed step counts" in lines[-1]
