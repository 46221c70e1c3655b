"""Box-regression losses built on overlap, enclosure, and center-distance terms.

Every loss maps an (anchor, gt) pair of boxes to a scalar that is zero iff
the boxes coincide. Boxes live in center form (x, y, w, h) with y growing
downward, so ``top`` is the smaller ordinate. A :class:`LossSpec` selects
the base loss and an optional center-scaled auxiliary ("inner") ratio; it is
the one place that validates the ratio. :func:`evaluate` runs the one
evaluation kernel, :func:`ioulab.batch.eval_batch`, on a single pair: the
loss comes with its analytic gradient with respect to the anchor parameters
(x, y, w, h); the gt box is treated as constant.
"""

from __future__ import annotations

import enum
import math
import numbers
import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .batch import BatchEval

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


def whole_number(name: str, value, least: int) -> int:
    """``value`` as an int, rejecting fractions, bools and anything below ``least``.

    The count and seed fields of the experiment configs share this rule;
    ``int()`` alone would truncate 1.5 to 1, read true as 1 and parse "5".
    """
    try:
        whole = isinstance(value, numbers.Real) and float(value).is_integer()
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"{name} is out of range: {exc}") from None
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


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


def evaluate(spec: LossSpec, anchor: Box, gt: Box) -> BatchEval:
    """Evaluate ``spec`` on a box pair, including the analytic gradient.

    The result is the kernel's :class:`~ioulab.batch.BatchEval` for one
    pair: ``loss``, ``iou``, ``inner_iou`` and every ``terms`` value are
    scalars, and ``grad`` holds (dx, dy, dw, dh).
    """
    from .batch import eval_batch

    return eval_batch(spec, anchor.as_tuple(), gt.as_tuple())
