"""Overlap-based box regression losses, analytic gradients, experiments.

:func:`eval_batch` runs a :class:`LossSpec` on one (x, y, w, h) box pair
or on whole populations of (n, 4) arrays, and :func:`iou_batch` gives their
plain overlap; both check that every box is in the supported domain.
:mod:`ioulab.simlab` and :mod:`ioulab.sweep` drive the
regression-convergence and gradient-sweep experiments the ``ioulab`` CLI
exposes.
"""

__version__ = "0.1.0"

from .batch import eval_batch, iou_batch
from .losses import BASE_NAMES, LossSpec
from .simlab import SCENARIOS, SimConfig, generate_case_arrays, run_simulation, scenario_config

__all__ = [
    "__version__",
    "BASE_NAMES",
    "LossSpec",
    "eval_batch",
    "iou_batch",
    "SCENARIOS",
    "SimConfig",
    "scenario_config",
    "run_simulation",
    "generate_case_arrays",
]
