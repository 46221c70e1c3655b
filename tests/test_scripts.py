"""Smoke run of the step-scan script at a toy size."""

import runpy
import sys
from pathlib import Path

import pytest

from ioulab import SCENARIOS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name: str, *argv: str) -> int:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


def test_scan_step_sizes(monkeypatch, capsys):
    code = run_script(
        monkeypatch, "scan_step_sizes.py",
        "--points", "1", "--iterations", "2", "--steps", "0.2", "--threads", "1",
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "343 cases per run, 2 iterations"
    assert [line.split()[2] for line in lines[1:]] == list(SCENARIOS)
    assert all(line.split()[1] == "0.20" for line in lines[1:])
