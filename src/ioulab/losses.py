"""Box-regression losses built on overlap, enclosure, and center-distance terms.

Every loss maps an (anchor, gt) pair of boxes to a scalar that is zero iff
the boxes coincide. Boxes live in center form (x, y, w, h) with y growing
downward, so ``top`` is the smaller ordinate. A :class:`LossSpec` selects
the base loss and an optional center-scaled auxiliary ("inner") ratio; it is
the one place that validates the ratio. Evaluation returns the loss together
with its analytic gradient with respect to the anchor parameters
(x, y, w, h); the gt box is treated as constant.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

# Inner ratios outside this interval are legal but unusual enough to flag.
RATIO_RANGE = (0.5, 1.5)


class BaseLoss(str, enum.Enum):
    IOU = "iou"
    GIOU = "giou"
    DIOU = "diou"
    CIOU = "ciou"
    EIOU = "eiou"
    SIOU = "siou"


BASE_NAMES: tuple[str, ...] = tuple(b.value for b in BaseLoss)


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in center form with strictly positive sides."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w, self.h)):
            raise ValueError(f"box fields must be finite, got {self!r}")
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")
        # Side lengths must survive the corner round trip; overlap math
        # divides by corner-derived areas.
        if not (self.left < self.right and self.top < self.bottom):
            raise ValueError(
                f"box sides vanish at the center's float resolution, got {self!r}"
            )

    @property
    def left(self) -> float:
        return self.x - self.w / 2.0

    @property
    def right(self) -> float:
        return self.x + self.w / 2.0

    @property
    def top(self) -> float:
        return self.y - self.h / 2.0

    @property
    def bottom(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True)
class LossSpec:
    """Fully resolved description of one loss variant.

    ``inner`` scales both boxes about their centers before the overlap term;
    ``None`` means the plain base loss. The numeric constants of the losses
    (the denominator guard, the siou shape exponent) live in
    :mod:`ioulab.batch`.
    """

    base: BaseLoss
    inner: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", BaseLoss(self.base))
        if self.inner is not None:
            ratio = float(self.inner)
            if not math.isfinite(ratio) or ratio <= 0.0:
                raise ValueError(f"inner ratio must be a positive finite number, got {self.inner}")
            lo, hi = RATIO_RANGE
            if not (lo <= ratio <= hi):
                warnings.warn(
                    f"inner ratio {ratio:g} is outside the typical range [{lo:g}, {hi:g}]",
                    stacklevel=3,
                )
            object.__setattr__(self, "inner", ratio)

    def label(self) -> str:
        """Short stable name, e.g. ``ciou`` or ``inner-ciou(0.8)``."""
        if self.inner is None:
            return self.base.value
        return f"inner-{self.base.value}({self.inner:g})"

    def to_dict(self) -> dict:
        return {"base": self.base.value, "inner": self.inner}

    @classmethod
    def from_dict(cls, data: dict) -> "LossSpec":
        if not isinstance(data, dict):
            raise ValueError(f"loss spec must be an object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(f"unknown loss spec field '{key}'")
        if "base" not in data:
            raise ValueError("loss spec is missing required field 'base'")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid loss spec: {exc}") from exc


@dataclass(frozen=True)
class Grad4:
    """Partial derivatives of a loss with respect to the anchor (x, y, w, h)."""

    dx: float
    dy: float
    dw: float
    dh: float

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dw, self.dh], dtype=np.float64)


@dataclass(frozen=True)
class CiouTerms:
    """Aspect-consistency term and its weight at the evaluation point."""

    v: float
    alpha: float


@dataclass(frozen=True)
class SiouTerms:
    """Intermediate quantities of the angle/distance/shape decomposition.

    ``angle_cost`` is 0 with axis-aligned centers and 1 at a 45-degree
    diagonal; ``gamma = 2 - angle_cost`` steers the distance falloff.
    ``rho_x``/``rho_y`` are squared center offsets normalized by the
    enclosing box, ``omega_w``/``omega_h`` relative side differences.
    """

    angle_cost: float
    gamma: float
    distance_cost: float
    shape_cost: float
    rho_x: float
    rho_y: float
    omega_w: float
    omega_h: float
    theta: float


@dataclass(frozen=True)
class LossValue:
    """Loss with its overlap diagnostics, optional terms, and gradient."""

    loss: float
    iou: float
    inner_iou: float | None
    terms: CiouTerms | SiouTerms | None
    grad: Grad4


def _box_array(box: Box) -> np.ndarray:
    return np.array([box.x, box.y, box.w, box.h], dtype=np.float64)


def evaluate(spec: LossSpec, anchor: Box, gt: Box) -> LossValue:
    """Evaluate ``spec`` on a box pair, including the analytic gradient."""
    from .batch import SIOU_THETA, eval_batch

    res = eval_batch(spec, _box_array(anchor), _box_array(gt), with_grad=True)
    terms: CiouTerms | SiouTerms | None = None
    if spec.base == BaseLoss.CIOU:
        terms = CiouTerms(v=float(res.terms["v"]), alpha=float(res.terms["alpha"]))
    elif spec.base == BaseLoss.SIOU:
        t = res.terms
        terms = SiouTerms(
            angle_cost=float(t["angle_cost"]),
            gamma=float(t["gamma"]),
            distance_cost=float(t["distance_cost"]),
            shape_cost=float(t["shape_cost"]),
            rho_x=float(t["rho_x"]),
            rho_y=float(t["rho_y"]),
            omega_w=float(t["omega_w"]),
            omega_h=float(t["omega_h"]),
            theta=SIOU_THETA,
        )
    assert res.grad is not None
    return LossValue(
        loss=float(res.loss),
        iou=float(res.iou),
        inner_iou=None if res.inner_iou is None else float(res.inner_iou),
        terms=terms,
        grad=Grad4(*(float(g) + 0.0 for g in res.grad)),  # normalizes -0.0
    )
