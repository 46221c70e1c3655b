"""Overlap-based box regression losses, analytic gradients, experiments.

The scalar API evaluates a :class:`LossSpec` on a :class:`Box` pair through
:func:`evaluate`; :mod:`ioulab.batch` evaluates whole populations as (n, 4)
arrays. :mod:`ioulab.simlab` and :mod:`ioulab.sweep` drive the
regression-convergence and gradient-sweep experiments the ``ioulab`` CLI
exposes.
"""

__version__ = "0.1.0"

from .batch import BatchEval, eval_batch, iou_batch
from .gradients import grad_fd, grad_fd_batch
from .losses import (
    BASE_NAMES,
    BaseLoss,
    Box,
    CiouTerms,
    Grad4,
    LossSpec,
    LossValue,
    SiouTerms,
    evaluate,
)
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
    "CiouTerms",
    "ConclusionResult",
    "ConclusionsReport",
    "ConvergenceSummary",
    "Grad4",
    "LossSpec",
    "LossValue",
    "SCENARIOS",
    "SimConfig",
    "SiouTerms",
    "SweepConfig",
    "check_conclusions",
    "eval_batch",
    "evaluate",
    "generate_case_arrays",
    "grad_fd",
    "grad_fd_batch",
    "iou_batch",
    "run_simulation",
    "run_sweep",
    "scenario_specs",
]
