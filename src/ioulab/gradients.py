"""Finite-difference probe of the loss gradients.

The analytic gradient comes from the evaluation kernel together with the
loss value (:func:`ioulab.eval_batch`). The probe here only reuses the
forward evaluation and differences it numerically, so it is an independent
check on every derived derivative expression. Because the ciou aspect
weight is defined as a constant of the evaluation point, the probe holds it
there: it differences ``loss + (alpha0 - alpha) * v``, which swaps each
perturbed point's weight ``alpha`` for the centre point's ``alpha0``.
"""

from __future__ import annotations

import numpy as np

from .batch import eval_batch
from .losses import BaseLoss, LossSpec

AXES = ("x", "y", "w", "h")


def grad_fd_batch(spec: LossSpec, anchors, gts, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradients over (..., 4) box arrays."""
    step = float(step)
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    anchors = np.asarray(anchors, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    alpha0 = None
    if spec.base == BaseLoss.CIOU:
        alpha0 = eval_batch(spec, anchors, gts, with_grad=False).terms["alpha"]

    def loss(boxes):
        ev = eval_batch(spec, boxes, gts, with_grad=False)
        if alpha0 is None:
            return ev.loss
        return ev.loss + (alpha0 - ev.terms["alpha"]) * ev.terms["v"]

    out = np.empty(np.broadcast_shapes(anchors.shape, gts.shape))
    for k in range(4):
        hi = anchors.copy()
        lo = anchors.copy()
        hi[..., k] += step
        lo[..., k] -= step
        if k >= 2 and np.any(lo[..., k] <= 0.0):
            raise ValueError(f"finite-difference step {step} makes the {AXES[k]} side non-positive")
        out[..., k] = (loss(hi) - loss(lo)) / (2.0 * step)
    return out
