import importlib.util
from pathlib import Path

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
