"""Finite-difference probes of the loss gradients.

The analytic gradient comes from the evaluation kernel together with the
loss value (:func:`ioulab.evaluate`, :func:`ioulab.eval_batch`). The probe
here only reuses the forward evaluation and differences it numerically, so
it is an independent check on every derived derivative expression.
Because the ciou aspect weight is defined as a constant of the evaluation
point, the probe freezes it there.
"""

from __future__ import annotations

import numpy as np

from .batch import eval_batch
from .losses import BaseLoss, Box, Grad4, LossSpec, _box_array

AXES = ("x", "y", "w", "h")


def grad_fd_batch(spec: LossSpec, anchors, gts, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradients over (..., 4) box arrays."""
    step = float(step)
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    anchors = np.asarray(anchors, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    alpha = None  # the ciou aspect weight, held at the center point
    if spec.base == BaseLoss.CIOU:
        alpha = eval_batch(spec, anchors, gts, with_grad=False).terms["alpha"]

    out = np.empty(np.broadcast_shapes(anchors.shape, gts.shape))
    for k in range(4):
        hi = anchors.copy()
        lo = anchors.copy()
        hi[..., k] += step
        lo[..., k] -= step
        if k >= 2 and np.any(lo[..., k] <= 0.0):
            raise ValueError(f"finite-difference step {step} makes the {AXES[k]} side non-positive")
        f_hi = eval_batch(spec, hi, gts, with_grad=False, alpha_override=alpha)
        f_lo = eval_batch(spec, lo, gts, with_grad=False, alpha_override=alpha)
        out[..., k] = (f_hi.loss - f_lo.loss) / (2.0 * step)
    return out


def grad_fd(spec: LossSpec, anchor: Box, gt: Box, step: float = 1e-5) -> Grad4:
    """Central-difference gradient of the loss at one box pair."""
    g = grad_fd_batch(spec, _box_array(anchor), _box_array(gt), step=step)
    return Grad4(*(float(v) for v in g))
