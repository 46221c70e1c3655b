"""Overlap-based box regression losses, analytic gradients, experiments.

:func:`evaluate` runs a :class:`LossSpec` on one validated :class:`Box`
pair and :func:`eval_batch` on whole populations of (n, 4) arrays; both
return the same :class:`BatchEval`. :mod:`ioulab.simlab` and
:mod:`ioulab.sweep` drive the regression-convergence and gradient-sweep
experiments the ``ioulab`` CLI exposes.
"""

__version__ = "0.1.0"

from .batch import BatchEval, eval_batch, iou_batch
from .gradients import grad_fd_batch
from .losses import BASE_NAMES, BaseLoss, Box, LossSpec, evaluate
from .simlab import (
    SCENARIOS,
    ConvergenceSummary,
    SimConfig,
    generate_case_arrays,
    run_simulation,
    scenario_specs,
)
from .sweep import (
    ConclusionResult,
    ConclusionsReport,
    SweepConfig,
    check_conclusions,
    run_sweep,
)

__all__ = [
    "__version__",
    "BASE_NAMES",
    "BaseLoss",
    "BatchEval",
    "Box",
    "ConclusionResult",
    "ConclusionsReport",
    "ConvergenceSummary",
    "LossSpec",
    "SCENARIOS",
    "SimConfig",
    "SweepConfig",
    "check_conclusions",
    "eval_batch",
    "evaluate",
    "generate_case_arrays",
    "grad_fd_batch",
    "iou_batch",
    "run_simulation",
    "run_sweep",
    "scenario_specs",
]
