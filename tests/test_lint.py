"""The repository's lint step: ``ruff check`` over the source, the tests
and the paper-figure benchmarks, with the settings in ``pyproject.toml``.

Runs when ruff is importable or on ``PATH``, and skips otherwise.
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _ruff_command() -> list[str] | None:
    if importlib.util.find_spec("ruff") is not None:
        return [sys.executable, "-m", "ruff"]
    if shutil.which("ruff"):
        return ["ruff"]
    return None


def test_ruff_check_is_clean():
    command = _ruff_command()
    if command is None:
        pytest.skip("ruff is not installed")
    proc = subprocess.run(
        [*command, "check", "src", "tests", "benchmarks"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
