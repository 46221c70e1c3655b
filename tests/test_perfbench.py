"""The benchmark's correctness gate, run as a test.

``perfbench/run.py`` compares what each workload writes at ``DEFAULT_SEED``
with ``perfbench/digests.json``. This test runs the same two commands
through ``cli.main`` in-process and makes the same comparison, so a change
that moves a bit of either output fails ``pytest`` and not only the
benchmark run. It only reads ``perfbench/``. Like the benchmark, it
compares digests only on the numpy version and CPU features they were
recorded with, since numpy's SIMD dispatch may change the last bits of a
float elsewhere.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ioulab import cli

from helpers import skip_off_host

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _recorded() -> dict:
    """digests.json's digests by workload; skips on another numpy or CPU."""
    doc = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    skip_off_host(doc["recorded_with"], "digests.json")
    return doc["workloads"]


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_default_seed_outputs_match_the_recorded_digests(name, tmp_path, capsys):
    expected = _recorded()[name]
    workload = WORKLOADS.WORKLOADS[name]
    seed = WORKLOADS.DEFAULT_SEED
    code = cli.main(workload.argv(tmp_path, seed, 1))
    # the sweep exits 1 when a conclusion fails, which is an output too
    assert code in (0, 1)
    assert workload.check(tmp_path, seed, capsys.readouterr().out) == []
    got = {
        out: hashlib.sha256(path.read_bytes()).hexdigest()
        for out, path in workload.outputs(tmp_path).items()
    }
    assert got == expected
