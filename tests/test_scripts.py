"""Smoke runs of the experiment scripts at toy sizes."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from ioulab import SCENARIOS
from ioulab.cli import main as ioulab_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name: str, *argv: str) -> int:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


def test_convergence_experiments(tmp_path, monkeypatch, capsys):
    code = run_script(
        monkeypatch, "run_convergence_experiments.py",
        "--points", "1", "--iterations", "2", "--threads", "1", "--out", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    for name, preset in SCENARIOS.items():
        assert f"{name}: final total error after descent" in out
        cfg = json.loads((tmp_path / name / "config.json").read_text())
        assert cfg["radius"] == list(preset["radius"])
        assert cfg["step_size"] == preset["step_size"]
        assert {s["inner"] for s in cfg["specs"]} == {None, preset["ratio"]}
        lines = (tmp_path / name / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 12 * 3  # 12 specs x (iterations + 1)
        # the written config reproduces the run byte for byte
        rerun = tmp_path / f"{name}-rerun"
        config = str(tmp_path / name / "config.json")
        assert ioulab_main(["sim", "--config", config, "--out", str(rerun)]) == 0
        assert (rerun / "summary.csv").read_bytes() == (tmp_path / name / "summary.csv").read_bytes()


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
