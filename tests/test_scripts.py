"""Smoke tests: the scripts under scripts/ run against the current API."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_worked_example_runs_to_a_verified_identity(capsys: pytest.CaptureFixture[str]) -> None:
    runpy.run_path(str(SCRIPTS / "worked_example.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.rstrip().endswith("identical: True")
