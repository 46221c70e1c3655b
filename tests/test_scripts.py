"""Smoke run of the step-scan script at a toy size, and its usage errors."""

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


@pytest.mark.parametrize(
    "steps,message",
    [
        ("0", "step_size must be positive and finite, got 0.0"),
        ("0.2,-1", "step_size must be positive and finite, got -1.0"),
        ("", "argument --steps: expected a comma-separated list of numbers"),
        (" , ", "argument --steps: expected a comma-separated list of numbers"),
    ],
    ids=["zero", "negative", "empty", "blank"],
)
def test_scan_step_sizes_rejects_bad_steps(monkeypatch, capsys, steps, message):
    # a usage error before any run: exit 2 and one message, no traceback
    code = run_script(monkeypatch, "scan_step_sizes.py", "--points", "1", "--steps", steps)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"scan_step_sizes.py: error: {message}"


def test_scan_step_sizes_rejects_negative_threads(monkeypatch, capsys):
    # checked with the configs, before the header
    code = run_script(monkeypatch, "scan_step_sizes.py", "--points", "1", "--threads", "-1")
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "scan_step_sizes.py: error: threads must be >= 0, got -1"
