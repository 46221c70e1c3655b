"""Box-regression losses built on overlap, enclosure, and center-distance terms.

Every loss maps an (anchor, gt) pair of boxes to a scalar that is zero iff
the boxes coincide. Boxes live in center form (x, y, w, h) with y growing
downward. A :class:`LossSpec` selects the base loss and an optional
center-scaled auxiliary ("inner") ratio; :func:`inner_ratio` is the one
place that validates a ratio, against ``ioulab.batch.RATIO_LIMITS``.
:func:`evaluate` runs the one evaluation kernel,
:func:`ioulab.batch.eval_batch`, on a single pair: the loss comes with its
analytic gradient with respect to the anchor parameters (x, y, w, h); the
gt box is treated as constant.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, fields

from .batch import RATIO_LIMITS, BatchEval, check_boxes, eval_batch

# Inner ratios outside this interval are legal but unusual enough to flag.
RATIO_RANGE = (0.5, 1.5)

BASE_NAMES: tuple[str, ...] = ("iou", "giou", "diou", "ciou", "eiou", "siou")


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


def real_number(name: str, value) -> float:
    """``value`` as a float, rejecting bools and anything that is not a real number.

    ``float()`` alone would parse the string "0.1" and read true as 1.0.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def inner_ratio(value, name: str = "inner ratio") -> float:
    """``value`` as a float in ``RATIO_LIMITS``; ValueError naming ``name`` otherwise."""
    ratio = real_number(name, value)
    lo, hi = RATIO_LIMITS
    if not (lo <= ratio <= hi):  # NaN fails it too
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {value}")
    return ratio


def check_fields(cls, data, what: str, required: str) -> None:
    """Reject ``data`` unless it is a dict of ``cls`` fields that includes ``required``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ValueError(f"unknown {what} field '{key}'")
    if required not in data:
        raise ValueError(f"{what} is missing required field '{required}'")


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in center form, inside the supported box domain.

    The domain is the one :func:`ioulab.batch.check_boxes` enforces.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name, value in zip("xywh", check_boxes(self.as_tuple(), "box").tolist()):
            object.__setattr__(self, name, value)

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

    base: str
    inner: float | None = None

    def __post_init__(self) -> None:
        if self.base not in BASE_NAMES:
            raise ValueError(
                f"unknown base loss {self.base!r} (choose from {', '.join(BASE_NAMES)})"
            )
        if self.inner is not None:
            ratio = inner_ratio(self.inner)
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
            return self.base
        return f"inner-{self.base}({self.inner:g})"

    def to_dict(self) -> dict:
        return {"base": self.base, "inner": self.inner}

    @classmethod
    def from_dict(cls, data: dict) -> "LossSpec":
        check_fields(cls, data, "loss spec", "base")
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
    return eval_batch(spec, anchor.as_tuple(), gt.as_tuple())
