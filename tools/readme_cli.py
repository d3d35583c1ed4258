"""Digest the outputs of the README's command-line examples.

Usage: python tools/readme_cli.py [ROOT]

Extracts every ``pdint ...`` command from the fenced code blocks of
ROOT/README.md (default: the checkout holding this script), skipping
``timing``, whose output is wall-clock time.  Each command runs against
ROOT/src in a fresh temporary directory with BLAS pinned to one thread,
and the script prints a sha256 for its exit code, stdout, stderr and
every file it wrote.  Two checkouts give the same CLI outputs exactly
when their printouts are equal, so one ``diff`` compares them.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path


def readme_commands(readme: Path) -> list:
    """Argument lists of the ``pdint`` commands in the README's code blocks."""
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


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(root: Path, args: list) -> list:
    """Digest lines for one command run in a fresh directory."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "pdint.cli", *args], cwd=tmp, env=env, capture_output=True
        )
        lines = [
            f"exit {proc.returncode}",
            f"stdout {sha(proc.stdout)}",
            f"stderr {sha(proc.stderr)}",
        ]
        for path in sorted(Path(tmp).iterdir()):
            lines.append(f"{path.name} {sha(path.read_bytes())}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    for args in readme_commands(root / "README.md"):
        print("$ pdint " + shlex.join(args))
        for line in run(root, args):
            print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
