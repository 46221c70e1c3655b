"""Gradient-descent box regression experiments over seeded populations.

A simulation follows the regression protocol of the DIoU paper: it
scatters anchor boxes of several areas and aspect ratios on points sampled
uniformly over an annulus around a shared target center, then regresses
every anchor onto every unit-area target aspect with gradient descent on a
chosen loss, stepping by ``step_size * (2 - IoU)``. The per-iteration
error is the L1 distance between the four corner coordinates of the
anchor and the target.

Everything is deterministic: case generation is seeded, cases are laid out
in a fixed nested order (target aspect, point, anchor scale, anchor
aspect), and reductions always run in case order over fixed-size chunks,
so results are identical no matter how many worker threads run the chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .batch import eval_batch, iou_batch
from .losses import BASE_NAMES, LossSpec, real_number, whole_number

# Cases per work unit. Fixed so that partial sums (and therefore every
# floating-point reduction) are independent of the thread count.
CHUNK_CASES = 8192

# The fixed population: every target has unit area and sits at CENTER;
# the targets take each of ASPECTS, and the anchors each area in SCALES
# combined with each of ASPECTS.
CENTER = (100.0, 100.0)
ASPECTS = (0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 4.0)
SCALES = (0.5, 0.67, 0.75, 1.0, 1.33, 1.5, 2.0)
# Widths and heights are clamped from below at this size after every step.
MIN_SIZE = 1e-4

# The high- and low-overlap starts of the DIoU paper's regression
# simulation: anchors clustered on the target, where a shrunken auxiliary
# pair should help, versus anchors that mostly miss it, where an enlarged
# one should. ``step_size`` is the largest grid step at which every loss
# variant still descends stably from that start (scripts/scan_step_sizes.py);
# the SimConfig default of 0.1 is the safe setting for arbitrary configs.
SCENARIOS = {
    "high": {"radius": (0.0, 3.0), "ratio": 0.8, "step_size": 0.2},
    "low": {"radius": (6.0, 9.0), "ratio": 1.2, "step_size": 0.3},
}


def scenario_specs(ratio: float, bases=BASE_NAMES) -> tuple[LossSpec, ...]:
    """Each base loss followed by its auxiliary variant at ``ratio``."""
    return tuple(spec for b in bases for spec in (LossSpec(b), LossSpec(b, inner=ratio)))


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one regression experiment.

    ``radius`` bounds the annulus the anchor centers are sampled from
    (uniform over its area); each of the ``n_points`` sampled centers
    carries every anchor of the fixed grid against every target aspect.
    The center, the aspects, the anchor scales, the unit target area, the
    size clamp and the ``step_size * (2 - IoU)`` step rule are the module
    constants above, not fields, and ``from_dict`` rejects a config that
    names them.
    """

    specs: tuple[LossSpec, ...]
    n_points: int = 2000
    radius: tuple[float, float] = (0.0, 3.0)
    iterations: int = 200
    step_size: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for s in self.specs:
            if not isinstance(s, LossSpec):
                raise ValueError(f"specs must contain LossSpec values, got {type(s).__name__}")
        object.__setattr__(self, "n_points", whole_number("n_points", self.n_points, 1))
        object.__setattr__(self, "iterations", whole_number("iterations", self.iterations, 1))
        # numpy seeds must be non-negative
        object.__setattr__(self, "seed", whole_number("seed", self.seed, 0))
        if not isinstance(self.radius, (list, tuple)) or len(self.radius) != 2:
            raise ValueError(f"radius must be a [lo, hi] pair, got {self.radius!r}")
        radius = tuple(real_number("radius", v) for v in self.radius)
        # Case generation draws the squared radius from [lo * lo, hi * hi].
        if not (0.0 <= radius[0] <= radius[1] and math.isfinite(radius[1] * radius[1])):
            raise ValueError(
                f"radius must have 0 <= lo <= hi and hi * hi finite, got {self.radius}"
            )
        object.__setattr__(self, "radius", radius)
        step = real_number("step_size", self.step_size)
        if not math.isfinite(step) or step <= 0.0:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        object.__setattr__(self, "step_size", step)

    @property
    def case_count(self) -> int:
        return len(ASPECTS) * self.n_points * len(SCALES) * len(ASPECTS)

    def to_dict(self) -> dict:
        return {
            "specs": [s.to_dict() for s in self.specs],
            "n_points": self.n_points,
            "radius": list(self.radius),
            "iterations": self.iterations,
            "step_size": self.step_size,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be an object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(f"unknown config field '{key}'")
        if "specs" not in data:
            raise ValueError("config is missing required field 'specs'")
        if not isinstance(data["specs"], (list, tuple)):
            raise ValueError("config field 'specs' must be a list of loss spec objects")
        kwargs = dict(data)
        kwargs["specs"] = tuple(LossSpec.from_dict(d) for d in data["specs"])
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid config: {exc}") from exc


@dataclass
class ConvergenceSummary:
    """Aggregates over all cases for one spec."""

    label: str
    total_error_curve: np.ndarray  # length iterations + 1
    mean_final_error: float
    auc: float  # trapezoidal area under the total error curve
    case_initial_error: np.ndarray | None = None
    case_final_error: np.ndarray | None = None
    case_final_iou: np.ndarray | None = None
    case_clamps: np.ndarray | None = None


def generate_case_arrays(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """All (anchor, target) pairs as two (n, 4) center-form arrays.

    The flat order nests target aspect (outermost), sampled point, anchor
    scale, anchor aspect (innermost); the seeded point sample is shared by
    every target aspect.
    """
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.radius
    # Uniform over the annulus area, so radii are sqrt-uniform.
    r = np.sqrt(rng.uniform(lo * lo, hi * hi, cfg.n_points))
    phi = rng.uniform(0.0, 2.0 * np.pi, cfg.n_points)
    px = CENTER[0] + r * np.cos(phi)
    py = CENTER[1] + r * np.sin(phi)

    aspect = np.asarray(ASPECTS)
    scale = np.asarray(SCALES)
    grid = (len(aspect), cfg.n_points, len(scale), len(aspect))
    ti, pi, si, ai = np.indices(grid).reshape(4, -1)

    # unit target area: w * h == 1
    t_w = np.sqrt(aspect)[ti]
    t_h = np.sqrt(1.0 / aspect)[ti]
    targets = np.stack(
        [np.full(ti.shape, CENTER[0]), np.full(ti.shape, CENTER[1]), t_w, t_h], axis=1
    )

    area = scale[si]
    a_w = np.sqrt(area * aspect[ai])
    a_h = np.sqrt(area / aspect[ai])
    anchors = np.stack([px[pi], py[pi], a_w, a_h], axis=1)
    return anchors, targets


def _corner_l1(state: np.ndarray, targets: np.ndarray) -> np.ndarray:
    sx, sy, sw, sh = state[:, 0], state[:, 1], state[:, 2], state[:, 3]
    tx, ty, tw, th = targets[:, 0], targets[:, 1], targets[:, 2], targets[:, 3]
    return (
        np.abs((sx - sw / 2.0) - (tx - tw / 2.0))
        + np.abs((sx + sw / 2.0) - (tx + tw / 2.0))
        + np.abs((sy - sh / 2.0) - (ty - th / 2.0))
        + np.abs((sy + sh / 2.0) - (ty + th / 2.0))
    )


def _simulate_chunk(
    spec: LossSpec,
    anchors: np.ndarray,
    targets: np.ndarray,
    cfg: SimConfig,
):
    """Descend one chunk of cases under ``spec``.

    Returns the per-iteration total error (the case's own error curve for a
    one-row chunk), then the per-case initial error, final error, final IoU
    and clamp count.
    """
    state = anchors.copy()
    steps = cfg.iterations
    totals = np.empty(steps + 1)
    clamps = np.zeros(state.shape[0], dtype=np.int64)

    err = _corner_l1(state, targets)
    initial = err.copy()
    totals[0] = err.sum()
    for t in range(1, steps + 1):
        ev = eval_batch(spec, state, targets, with_grad=True)
        # Larger steps while the pair barely overlaps, annealing to
        # step_size as the overlap approaches 1.
        eta = cfg.step_size * (2.0 - ev.iou)
        state -= eta[:, None] * ev.grad
        low_w = state[:, 2] < MIN_SIZE
        low_h = state[:, 3] < MIN_SIZE
        # one event per clamped coordinate (bool + bool would OR, not add)
        clamps += low_w
        clamps += low_h
        np.maximum(state[:, 2], MIN_SIZE, out=state[:, 2])
        np.maximum(state[:, 3], MIN_SIZE, out=state[:, 3])
        err = _corner_l1(state, targets)
        totals[t] = err.sum()
    final_iou = iou_batch(state, targets)
    return totals, initial, err, final_iou, clamps


def run_simulation(
    cfg: SimConfig, *, threads: int = 1, per_case: bool = False
) -> list[ConvergenceSummary]:
    """Run every spec over the full case population.

    ``threads`` parallelizes over fixed-size chunks of cases (0 = one per
    CPU this process may run on); the reduction order is by chunk index,
    so summaries are bit-identical for any thread count.
    """
    if not cfg.specs:
        raise ValueError("config needs at least one loss spec")
    threads = int(threads)
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    if threads == 0:
        if hasattr(os, "sched_getaffinity"):
            threads = len(os.sched_getaffinity(0))
        else:
            threads = os.cpu_count() or 1

    anchors, targets = generate_case_arrays(cfg)
    n = anchors.shape[0]
    bounds = [(i, min(i + CHUNK_CASES, n)) for i in range(0, n, CHUNK_CASES)]

    summaries = []
    for spec in cfg.specs:

        def job(span: tuple[int, int]):
            a, b = span
            return _simulate_chunk(spec, anchors[a:b], targets[a:b], cfg)

        if threads > 1 and len(bounds) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(job, bounds))
        else:
            parts = [job(span) for span in bounds]

        totals = parts[0][0].copy()
        for p in parts[1:]:
            totals += p[0]
        final_err = np.concatenate([p[2] for p in parts])
        mean_final = float(final_err.sum() / n)
        # trapezoids; iterations >= 1, so the curve has at least two points
        auc = float(0.5 * (totals[0] + totals[-1]) + totals[1:-1].sum())
        summary = ConvergenceSummary(
            label=spec.label(),
            total_error_curve=totals,
            mean_final_error=mean_final,
            auc=auc,
        )
        if per_case:
            summary.case_initial_error = np.concatenate([p[1] for p in parts])
            summary.case_final_error = final_err
            summary.case_final_iou = np.concatenate([p[3] for p in parts])
            summary.case_clamps = np.concatenate([p[4] for p in parts])
        summaries.append(summary)
    return summaries
