"""Gradient-descent box regression experiments over seeded populations.

A simulation scatters anchor boxes of several areas and aspect ratios on
points sampled uniformly over an annulus around a shared target center,
then regresses every anchor onto every target aspect with plain gradient
descent on a chosen loss. The per-iteration error is the L1 distance
between the four corner coordinates of the anchor and the target.

Everything is deterministic: case generation is seeded, cases are laid out
in a fixed nested order (target aspect, point, anchor scale, anchor
aspect), and reductions always run in case order over fixed-size chunks,
so results are identical no matter how many worker threads run the chunks.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .batch import eval_batch, iou_batch
from .losses import BASE_NAMES, LossSpec

# Cases per work unit. Fixed so that partial sums (and therefore every
# floating-point reduction) are independent of the thread count.
CHUNK_CASES = 8192

_DEFAULT_ASPECTS = (0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 4.0)
_DEFAULT_SCALES = (0.5, 0.67, 0.75, 1.0, 1.33, 1.5, 2.0)

STEP_SCHEDULES = ("constant", "diou_style")

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
    (uniform over its area); ``anchor_scales`` multiply ``target_area``.
    ``step_schedule`` is either a constant step or the overlap-adaptive
    variant that multiplies the step by ``2 - IoU`` of the current pair.
    Widths and heights are clamped from below at ``min_size`` after every
    update and clamp events are counted.
    """

    specs: tuple[LossSpec, ...]
    center: tuple[float, float] = (100.0, 100.0)
    target_aspects: tuple[float, ...] = _DEFAULT_ASPECTS
    anchor_scales: tuple[float, ...] = _DEFAULT_SCALES
    anchor_aspects: tuple[float, ...] = _DEFAULT_ASPECTS
    n_points: int = 2000
    radius: tuple[float, float] = (0.0, 3.0)
    iterations: int = 200
    step_size: float = 0.1
    step_schedule: str = "diou_style"
    seed: int = 0
    target_area: float = 1.0
    min_size: float = 1e-4

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for s in self.specs:
            if not isinstance(s, LossSpec):
                raise ValueError(f"specs must contain LossSpec values, got {type(s).__name__}")
        object.__setattr__(self, "center", self._pair("center", self.center))
        for name in ("target_aspects", "anchor_scales", "anchor_aspects"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must not be empty")
            if any(not math.isfinite(v) or v <= 0.0 for v in vals):
                raise ValueError(f"{name} must be positive finite numbers, got {vals}")
            object.__setattr__(self, name, vals)
        for name in ("n_points", "iterations", "seed"):
            value = getattr(self, name)
            # int() alone would truncate 1.5 to 1 and read true as 1
            whole = isinstance(value, numbers.Real) and float(value).is_integer()
            if isinstance(value, bool) or not whole:
                raise ValueError(f"{name} must be a whole number, got {value!r}")
            least = 0 if name == "seed" else 1  # numpy seeds must be non-negative
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, int(value))
        lo, hi = self._pair("radius", self.radius)
        if not (0.0 <= lo <= hi):
            raise ValueError(f"radius must satisfy 0 <= lo <= hi, got {self.radius}")
        object.__setattr__(self, "radius", (lo, hi))
        step = float(self.step_size)
        if not math.isfinite(step) or step <= 0.0:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        object.__setattr__(self, "step_size", step)
        if self.step_schedule not in STEP_SCHEDULES:
            raise ValueError(
                f"step_schedule must be one of {STEP_SCHEDULES}, got {self.step_schedule!r}"
            )
        area = float(self.target_area)
        if not math.isfinite(area) or area <= 0.0:
            raise ValueError(f"target_area must be positive and finite, got {self.target_area}")
        object.__setattr__(self, "target_area", area)
        min_size = float(self.min_size)
        if not math.isfinite(min_size) or min_size <= 0.0:
            raise ValueError(f"min_size must be positive and finite, got {self.min_size}")
        object.__setattr__(self, "min_size", min_size)

    @staticmethod
    def _pair(name: str, value) -> tuple[float, float]:
        vals = tuple(float(v) for v in value)
        if len(vals) != 2 or any(not math.isfinite(v) for v in vals):
            raise ValueError(f"{name} must be a pair of finite numbers, got {value}")
        return vals

    @property
    def case_count(self) -> int:
        return (
            len(self.target_aspects)
            * self.n_points
            * len(self.anchor_scales)
            * len(self.anchor_aspects)
        )

    def to_dict(self) -> dict:
        return {
            "specs": [s.to_dict() for s in self.specs],
            "center": list(self.center),
            "target_aspects": list(self.target_aspects),
            "anchor_scales": list(self.anchor_scales),
            "anchor_aspects": list(self.anchor_aspects),
            "n_points": self.n_points,
            "radius": list(self.radius),
            "iterations": self.iterations,
            "step_size": self.step_size,
            "step_schedule": self.step_schedule,
            "seed": self.seed,
            "target_area": self.target_area,
            "min_size": self.min_size,
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

    spec_id: int
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
    px = cfg.center[0] + r * np.cos(phi)
    py = cfg.center[1] + r * np.sin(phi)

    t_aspect = np.asarray(cfg.target_aspects)
    scale = np.asarray(cfg.anchor_scales)
    a_aspect = np.asarray(cfg.anchor_aspects)
    nt, np_, ns, na = len(t_aspect), cfg.n_points, len(scale), len(a_aspect)

    ti, pi, si, ai = np.meshgrid(
        np.arange(nt), np.arange(np_), np.arange(ns), np.arange(na), indexing="ij"
    )
    ti, pi, si, ai = ti.ravel(), pi.ravel(), si.ravel(), ai.ravel()

    t_w = np.sqrt(cfg.target_area * t_aspect)[ti]
    t_h = np.sqrt(cfg.target_area / t_aspect)[ti]
    targets = np.stack(
        [np.full(ti.shape, cfg.center[0]), np.full(ti.shape, cfg.center[1]), t_w, t_h], axis=1
    )

    area = (cfg.target_area * scale)[si]
    a_w = np.sqrt(area * a_aspect[ai])
    a_h = np.sqrt(area / a_aspect[ai])
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
    adaptive = cfg.step_schedule == "diou_style"
    for t in range(1, steps + 1):
        ev = eval_batch(spec, state, targets, with_grad=True)
        if adaptive:
            # Larger steps while the pair barely overlaps, annealing to
            # step_size as the overlap approaches 1.
            eta = cfg.step_size * (2.0 - ev.iou)
            state -= eta[:, None] * ev.grad
        else:
            state -= cfg.step_size * ev.grad
        low_w = state[:, 2] < cfg.min_size
        low_h = state[:, 3] < cfg.min_size
        # one event per clamped coordinate (bool + bool would OR, not add)
        clamps += low_w
        clamps += low_h
        np.maximum(state[:, 2], cfg.min_size, out=state[:, 2])
        np.maximum(state[:, 3], cfg.min_size, out=state[:, 3])
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
    for spec_id, spec in enumerate(cfg.specs):

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
        auc = float(0.5 * (totals[0] + totals[-1]) + totals[1:-1].sum()) if len(totals) > 1 else float(totals[0])
        summary = ConvergenceSummary(
            spec_id=spec_id,
            label=cfg.specs[spec_id].label(),
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
