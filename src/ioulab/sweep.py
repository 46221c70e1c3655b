"""Single-axis deviation sweeps of the overlap gradient at several box sizes.

A sweep slides a square anchor along one center axis across an identical
square target and records, at every sampled deviation, the overlap and the
magnitude of its derivative with respect to that deviation. Auxiliary
curves repeat the sweep with both squares resized about their centers,
which is exactly what evaluating the overlap on center-rescaled boxes
computes, so larger or smaller stand-in pairs can be compared against the
actual pair point by point.

A :class:`SweepConfig` is the whole sweep: the pair, its auxiliary sides,
the sampled deviations and the two overlap thresholds of the claims below,
all checked when it is made, so a bad sweep fails before any curve is
computed. ``check_conclusions`` tests three qualitative claims about the
curves of that config:

1. every curve's overlap decays as the deviation grows, so the auxiliary
   trends are consistent with the actual pair,
2. in the high-overlap regime a smaller auxiliary pair has the steeper
   gradient than the actual pair,
3. once the actual pair has (near) zero overlap, a larger auxiliary pair
   that still overlaps keeps a nonzero, steeper gradient.

The zero-deviation sample is skipped in 1 and 2. It is the shared maximum
of every overlap curve, and coincident boxes sit at a symmetric stationary
point under the tie-splitting subgradient convention, so every curve
reports a zero gradient there by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import BLOCK_ROWS, Scratch, check_boxes, prepare_target
# perfbench/tracing.py wraps the kernel under this module attribute name.
from .batch import eval_blocks as eval_batch
from .losses import LossSpec, inner_ratio, real_number, sequence, whole_number

AXES = ("x", "y")

# Slack for the monotone-decay comparisons, float noise only.
_TREND_SLACK = 1e-12


@dataclass(frozen=True)
class SweepConfig:
    """A family of square-box pairs swept along one center axis.

    The target square of side ``box_side`` sits at the origin; the anchor
    is the same square displaced by each sampled deviation along ``axis``.
    Each entry of ``aux_sides`` adds a curve for the pair rescaled to that
    side about both centers; at least one must be smaller than ``box_side``
    and one larger. ``check_conclusions`` compares them with the actual
    curve where its IoU is at least ``high_iou_threshold`` (claim 2) and
    where it is at most ``low_iou_threshold`` (claim 3). Every field is
    checked here, before any curve is computed. The CLI reads its defaults
    off the class.
    """

    box_side: float = 10.0
    aux_sides: tuple[float, ...] = (8.0, 12.0)
    deviation_range: tuple[float, float] = (-15.0, 15.0)
    samples: int = 601
    axis: str = "x"
    high_iou_threshold: float = 0.7
    low_iou_threshold: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "box_side", real_number("box_side", self.box_side))
        aux = tuple(real_number("aux_sides", s) for s in sequence("aux_sides", self.aux_sides))
        if not aux:
            raise ValueError("aux_sides must not be empty")
        object.__setattr__(self, "aux_sides", aux)
        pair = sequence("deviation_range", self.deviation_range, pair=True)
        rng = tuple(real_number("deviation_range", v) for v in pair)
        if not rng[0] < rng[1]:
            raise ValueError(
                f"deviation_range must be an increasing pair, got {self.deviation_range}"
            )
        object.__setattr__(self, "deviation_range", rng)
        object.__setattr__(self, "samples", whole_number("samples", self.samples, 2))
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        # The domain is symmetric in sign, so each curve's square at the
        # deviation farther from 0 stands for both ends of the range.
        at = [0.0, 0.0]
        at[AXES.index(self.axis)] = max(abs(v) for v in rng)
        for side in self.sides():
            kind = "box_side" if side == self.box_side else "aux_sides"
            check_boxes((*at, side, side), f"{kind} square at the deviation range's end")
            # each curve is the pair rescaled by this ratio
            inner_ratio(side / self.box_side, f"aux_sides {side:g} over box_side {self.box_side:g}")
        names = [f"{s:g}" for s in self.sides()]  # the CSV's column names
        if len(set(names)) < len(names):
            raise ValueError(f"aux_sides must give distinct column names, got {names}")
        for name in ("high_iou_threshold", "low_iou_threshold"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        high, low = self.high_iou_threshold, self.low_iou_threshold
        if not (math.isfinite(high) and math.isfinite(low)):
            raise ValueError("thresholds must be finite")
        if low >= high:
            raise ValueError(f"low_iou_threshold must be below high_iou_threshold, got {low} >= {high}")
        if not min(aux) < self.box_side:
            raise ValueError("need an auxiliary side smaller than the actual one")
        if not max(aux) > self.box_side:
            raise ValueError("need an auxiliary side larger than the actual one")

    def sides(self) -> tuple[float, ...]:
        """All curve sides, each once: the actual one first, then the auxiliaries."""
        return tuple(dict.fromkeys((self.box_side,) + self.aux_sides))


def run_sweep(
    cfg: SweepConfig,
) -> tuple[np.ndarray, dict[float, np.ndarray], dict[float, np.ndarray]]:
    """Evaluate every curve of ``cfg`` at every sampled deviation.

    Returns the increasing deviations and, keyed by side in ``cfg.sides()``
    order, the overlap and the |gradient| columns along those deviations.

    The kernel sees at most ``BLOCK_ROWS`` anchors per call, each against
    the one target box, and one scratch holds its temporaries for every
    block. Every output row depends on its own anchor alone, so the block
    size changes no bit of the result, only the size of that scratch.
    """
    n = cfg.samples
    devs = np.linspace(cfg.deviation_range[0], cfg.deviation_range[1], n)
    col = AXES.index(cfg.axis)
    # Each curve is the pair rescaled about its centers by side / box_side:
    # the plain overlap of squares of side box_side * ratio, the side that
    # batch._edges computes, so the bits are the inner-iou loss's. A plain
    # spec has no ratio to warn about; SweepConfig checked each one.
    plain = LossSpec("iou")
    squares = {side: cfg.box_side * (side / cfg.box_side) for side in cfg.sides()}
    targets = {side: prepare_target(np.array([[0.0], [0.0], [q], [q]]), plain) for side, q in squares.items()}
    iou = {side: np.empty(n) for side in squares}
    absgrad = {side: np.empty(n) for side in squares}
    scratch = Scratch()
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        # One anchor per column: the (4, n) block the kernel takes.
        anchors = np.zeros((4, hi - lo))
        anchors[col] = devs[lo:hi]
        for side, q in squares.items():
            anchors[2:] = q
            ev = eval_batch(plain, anchors, targets[side], scratch=scratch)
            iou[side][lo:hi] = ev.iou
            np.abs(ev.grad[:, col], out=absgrad[side][lo:hi])
    return devs, iou, absgrad


def _mask_regions(devs: np.ndarray, mask: np.ndarray) -> tuple[tuple[float, float], ...]:
    # The padded diff is True where each run of True starts and just past
    # where it ends, so the edges come in (start, stop) pairs.
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return tuple((float(devs[i]), float(devs[j - 1])) for i, j in edges.reshape(-1, 2))


def _conclusion(statement: str, checked: int, violations: int, devs, mask) -> dict:
    """One claim's report entry; ``regions`` are the deviation spans of ``mask``."""
    return {
        "statement": statement,
        "passed": checked > 0 and violations == 0,
        "vacuous": checked == 0,  # no sample satisfied the precondition
        "checked": checked,
        "violations": violations,
        "regions": [list(r) for r in _mask_regions(devs, mask)],
    }


def check_conclusions(
    cfg: SweepConfig, devs: np.ndarray, iou: dict[float, np.ndarray], grad: dict[float, np.ndarray]
) -> dict:
    """Test the three gradient-behavior claims against the curves of ``cfg``.

    The curves are what :func:`run_sweep` returns for ``cfg``: increasing
    deviations and per-side overlap and |gradient| columns. The
    ``box_side`` curve is the unscaled pair; every other side is an
    auxiliary curve, compared as smaller or larger than it, at the
    thresholds of ``cfg``. A claim whose precondition never holds is
    reported vacuous, which does not count as passing.

    Returns the report the CLI prints: the two thresholds, each claim's
    entry under ``c1``..``c3`` and ``all_passed``.
    """
    sides = cfg.sides()
    if len(devs) != cfg.samples or not tuple(iou) == tuple(grad) == sides:
        raise ValueError(f"the curves are not this config's: {len(devs)} samples of sides {list(iou)}")
    actual, high, low = cfg.box_side, cfg.high_iou_threshold, cfg.low_iou_threshold
    smaller = tuple(s for s in sides if s < actual)
    larger = tuple(s for s in sides if s > actual)

    nonzero = devs != 0.0

    # 1: every curve's overlap is non-increasing in the deviation size, so
    # the auxiliary trends are consistent with the actual pair. The
    # coincident sample is the shared maximum of all curves and is skipped
    # here as in conclusion 2.
    by_abs = np.argsort(np.abs(devs), kind="stable")
    idx = by_abs[nonzero[by_abs]]
    checked = 0
    violations = 0
    for s in sides:
        seq = iou[s][idx]
        if len(seq) > 1:
            violations += int(((seq[1:] - seq[:-1]) > _TREND_SLACK).sum())
            checked += len(seq) - 1
    c1 = _conclusion(
        "overlap decays consistently with deviation at every scale",
        checked, violations, devs, nonzero,
    )

    # 2: where the actual pair overlaps strongly, every smaller curve is
    # strictly steeper than the actual one.
    mask2 = (iou[actual] >= high) & nonzero
    checked = int(mask2.sum()) * len(smaller)
    violations = sum(int((grad[s][mask2] <= grad[actual][mask2]).sum()) for s in smaller)
    c2 = _conclusion(
        "smaller auxiliary boxes steepen the gradient on high-overlap pairs",
        checked, violations, devs, mask2,
    )

    # 3: where the actual overlap has collapsed but a larger curve still
    # overlaps, that larger curve is strictly steeper.
    checked = 0
    violations = 0
    union = np.zeros(len(devs), dtype=bool)
    for s in larger:
        mask3 = (iou[actual] <= low) & (iou[s] > 0.0)
        checked += int(mask3.sum())
        violations += int((grad[s][mask3] <= grad[actual][mask3]).sum())
        union |= mask3
    c3 = _conclusion(
        "larger auxiliary boxes keep a nonzero gradient after overlap is lost",
        checked, violations, devs, union,
    )

    return {
        "thresholds": {"high_iou": high, "low_iou": low},
        "conclusions": {"c1": c1, "c2": c2, "c3": c3},
        "all_passed": c1["passed"] and c2["passed"] and c3["passed"],
    }
