"""Overlap-based box regression losses, analytic gradients, experiments.

:func:`evaluate` runs a :class:`LossSpec` on one validated :class:`Box`
pair and :func:`eval_batch` on whole populations of (n, 4) arrays; both
return the same :class:`~ioulab.batch.BatchEval`. :mod:`ioulab.simlab`
and :mod:`ioulab.sweep` drive the regression-convergence and
gradient-sweep experiments the ``ioulab`` CLI exposes.
"""

__version__ = "0.1.0"

from .batch import eval_batch, iou_batch
from .losses import BASE_NAMES, Box, LossSpec, evaluate
from .simlab import SCENARIOS, SimConfig, generate_case_arrays, run_simulation, scenario_specs

__all__ = [
    "__version__",
    "BASE_NAMES",
    "Box",
    "LossSpec",
    "evaluate",
    "eval_batch",
    "iou_batch",
    "SCENARIOS",
    "SimConfig",
    "scenario_specs",
    "run_simulation",
    "generate_case_arrays",
]
