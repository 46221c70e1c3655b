"""Box-regression losses built on overlap, enclosure, and center-distance terms.

Every loss maps an (anchor, gt) pair of boxes to a scalar that is zero iff
the boxes coincide. Boxes live in center form (x, y, w, h) with y growing
downward. A :class:`LossSpec` selects the base loss and an optional
center-scaled auxiliary ("inner") ratio; :func:`inner_ratio` is the one
place that validates a ratio, against ``ioulab.batch.RATIO_LIMITS``.
``SCENARIOS`` is the one table of the regression simulation's presets.
:func:`ioulab.batch.eval_batch` evaluates a spec on boxes, one pair or
many: the loss comes with its analytic gradient with respect to the anchor
parameters (x, y, w, h); the gt box is treated as constant.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, fields

from .batch import RATIO_LIMITS

# Inner ratios outside this interval are legal but unusual enough to flag.
RATIO_RANGE = (0.5, 1.5)

BASE_NAMES: tuple[str, ...] = ("iou", "giou", "diou", "ciou", "eiou", "siou")

# The high- and low-overlap starts of the DIoU paper's regression
# simulation: anchors clustered on the target, where a shrunken auxiliary
# pair should help, versus anchors that mostly miss it, where an enlarged
# one should. ``step_size`` is the largest grid step at which every loss
# variant still descends stably from that start (scripts/scan_step_sizes.py);
# every preset run takes it, through ``simlab.scenario_config``. The
# SimConfig default of 0.1 is the safe setting for arbitrary configs. The
# table lives here, not in simlab, so that the CLI's parser lists the
# presets without loading the simulation.
SCENARIOS = {
    "high": {"radius": (0.0, 3.0), "ratio": 0.8, "step_size": 0.2},
    "low": {"radius": (6.0, 9.0), "ratio": 1.2, "step_size": 0.3},
}


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


def sequence(name: str, value, pair: bool = False) -> tuple:
    """``value`` as a tuple, rejecting anything but a list or tuple (of two items if ``pair``).

    ``tuple()`` alone would split a string into characters and fail on a
    single number or loss spec with a bare TypeError.
    """
    if not isinstance(value, (list, tuple)) or (pair and len(value) != 2):
        raise ValueError(f"{name} must be {'a [lo, hi] pair' if pair else 'a list'}, got {value!r}")
    return tuple(value)


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

