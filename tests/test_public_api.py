"""The names that code outside the package reaches in ``ioulab``.

The README quick start and the benchmark tooling under ``perfbench/``
import from ``ioulab`` or patch its module attributes. A rename breaks
them without failing any other test, so these checks read those files
(without running them) and resolve every name they use.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import ioulab

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "__version__",
    "BASE_NAMES",
    "LossSpec",
    "eval_batch",
    "SCENARIOS",
    "SimConfig",
    "scenario_config",
    "run_simulation",
    "generate_case_arrays",
]


def imported_from_ioulab(source: str) -> set[str]:
    """Names that ``from ioulab import ...`` statements in ``source`` bind."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "ioulab"
        for alias in node.names
    }


def test_all_is_exactly_the_public_names():
    assert ioulab.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(ioulab, name), name


def test_allocation_pass_imports_resolve():
    # tests/test_scripts.py runs the scripts; the benchmark's allocation
    # pass only runs at benchmark time.
    names = imported_from_ioulab((ROOT / "perfbench/alloc.py").read_text(encoding="utf-8"))
    assert names == {"SimConfig", "eval_batch", "generate_case_arrays"}
    for name in names:
        assert name in PUBLIC and hasattr(ioulab, name), name


def test_readme_quick_start_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set()
    for line in re.findall(r"^from ioulab import .*$", readme, flags=re.M):
        names |= imported_from_ioulab(line)
    assert names, "README has no `from ioulab import` line"
    for name in names:
        assert name in PUBLIC and hasattr(ioulab, name), name


def test_tracer_patch_targets_resolve():
    # Loaded by path and never installed: nothing is patched here.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench/tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module_name, attr, _span in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
