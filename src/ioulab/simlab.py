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

A chunk descends as a (4, n) block, one row per coordinate (x, y, w, h),
which the unchecked kernel ``batch.eval_blocks`` takes as it is, against
the chunk's target prepared once; only the final state is checked against
the box domain. A case whose step is exactly zero and whose sides need no
clamp has the same state at the next iteration, and since every output of
the kernel is computed case by case from that case's boxes alone, it stays
frozen for good. Such cases retire: later iterations evaluate, step and
measure only the cases still moving, with their columns of the target,
and skip the kernel once none are. A retired case keeps its last error in
the chunk's full per-case error array, so every total sums the same values
in the same order as an every-case loop.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .batch import BLOCK_ROWS, Scratch, Target, check_boxes, prepare_target
# perfbench/tracing.py wraps the kernels under these module attribute names.
from .batch import eval_blocks as eval_batch, iou_blocks as iou_batch
from .losses import BASE_NAMES, LossSpec, check_fields, real_number, sequence, whole_number

# Cases per work unit. Fixed so that partial sums (and therefore every
# floating-point reduction) are independent of the thread count.
CHUNK_CASES = BLOCK_ROWS

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
# every preset run takes it, through ``scenario_config``. The SimConfig
# default of 0.1 is the safe setting for arbitrary configs.
SCENARIOS = {
    "high": {"radius": (0.0, 3.0), "ratio": 0.8, "step_size": 0.2},
    "low": {"radius": (6.0, 9.0), "ratio": 1.2, "step_size": 0.3},
}


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
        object.__setattr__(self, "specs", sequence("specs", self.specs))
        for s in self.specs:
            if not isinstance(s, LossSpec):
                raise ValueError(f"specs must contain LossSpec values, got {type(s).__name__}")
        object.__setattr__(self, "n_points", whole_number("n_points", self.n_points, 1))
        object.__setattr__(self, "iterations", whole_number("iterations", self.iterations, 1))
        # numpy seeds must be non-negative
        object.__setattr__(self, "seed", whole_number("seed", self.seed, 0))
        radius = tuple(real_number("radius", v) for v in sequence("radius", self.radius, pair=True))
        if not 0.0 <= radius[0] <= radius[1]:
            raise ValueError(f"radius must have 0 <= lo <= hi, got {self.radius}")
        # The farthest anchor the annulus can start, clamped to the least size.
        far = (CENTER[0] + radius[1], CENTER[1] + radius[1], MIN_SIZE, MIN_SIZE)
        check_boxes(far, "radius: the farthest anchor")
        object.__setattr__(self, "radius", radius)
        labels = [s.label() for s in self.specs]
        if len(set(labels)) < len(labels):
            raise ValueError(f"specs must have distinct labels, got {labels}")
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
        check_fields(cls, data, "config", "specs")
        if not isinstance(data["specs"], (list, tuple)):
            raise ValueError("config field 'specs' must be a list of loss spec objects")
        kwargs = dict(data)
        kwargs["specs"] = tuple(LossSpec.from_dict(d) for d in data["specs"])
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid config: {exc}") from exc


def scenario_config(name: str, bases=BASE_NAMES, **fields) -> SimConfig:
    """The run of preset ``name``: its radius and tuned step, and each of
    ``bases`` followed by its auxiliary variant at the preset's ratio.

    Any keyword in ``fields`` overrides the SimConfig field of that name.
    """
    preset = SCENARIOS[name]
    ratio = preset["ratio"]
    specs = tuple(spec for b in bases for spec in (LossSpec(b), LossSpec(b, inner=ratio)))
    return SimConfig(
        **{"specs": specs, "radius": preset["radius"], "step_size": preset["step_size"], **fields}
    )


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
    # Each output is written in place through its (target aspect, point,
    # anchor scale, anchor aspect, coordinate) shape, so the run holds no
    # index grid and no gathered copies, only the two outputs.
    shape = (len(aspect), cfg.n_points, len(scale), len(aspect), 4)
    targets = np.empty(shape)
    targets[..., 0] = CENTER[0]
    targets[..., 1] = CENTER[1]
    # unit target area: w * h == 1
    targets[..., 2] = np.sqrt(aspect)[:, None, None, None]
    targets[..., 3] = np.sqrt(1.0 / aspect)[:, None, None, None]

    anchors = np.empty(shape)
    anchors[..., 0] = px[:, None, None]
    anchors[..., 1] = py[:, None, None]
    area = scale[:, None]
    anchors[..., 2] = np.sqrt(area * aspect)
    anchors[..., 3] = np.sqrt(area / aspect)
    return anchors.reshape(-1, 4), targets.reshape(-1, 4)


def _corner_l1(state: np.ndarray, goal: Target, s: Scratch, out: np.ndarray) -> np.ndarray:
    """Per-case L1 distance from a (4, n) state's corners to the prepared target's, into ``out``.

    The temporaries are slots of the started scratch ``s``:
    ``abs((c - w / 2) - lo) + abs((c + w / 2) - hi)``, x then y, in place.
    """
    half = np.divide(state[2:], 2.0, out=s.take())
    d_lo = np.subtract(state[:2], half, out=s.take())
    d_lo -= goal.plain[:2]
    np.abs(d_lo, out=d_lo)
    d_hi = np.add(state[:2], half, out=half)
    d_hi -= goal.plain[2:4]
    np.abs(d_hi, out=d_hi)
    # d_lo[0] + d_hi[0] + d_lo[1] + d_hi[1]
    np.add(d_lo[0], d_hi[0], out=out)
    out += d_lo[1]
    out += d_hi[1]
    s.give(d_lo, d_hi)
    return out


def _simulate_chunk(
    spec: LossSpec,
    anchors: np.ndarray,
    targets: np.ndarray,
    cfg: SimConfig,
    first_case: int = 0,
    *,
    per_case: bool = False,
    scratch: Scratch | None = None,
):
    """Descend one chunk of (n, 4) cases under ``spec``.

    Returns the per-iteration total error (the case's own error curve for a
    one-row chunk), then the per-case initial error, final error, final IoU
    and clamp count; without ``per_case``, None in place of all but the
    totals and the final error. A final state outside the box domain raises
    ValueError naming the spec and the case id, ``first_case`` plus its row.
    The kernel's temporaries, the step, the clamp test and the corner error
    live in ``scratch`` (a new one if None); nothing returned shares it.
    """
    s = Scratch() if scratch is None else scratch
    state = anchors.T.copy()
    goal = prepare_target(np.ascontiguousarray(targets.T), spec)
    n = state.shape[1]
    steps = cfg.iterations
    totals = np.empty(steps + 1)
    clamps = np.zeros(n, dtype=np.int64)

    err = _corner_l1(state, goal, s.start((n,)), np.empty(n))
    initial = err.copy() if per_case else None
    totals[0] = err.sum()
    # The cases that can still move (chunk rows), and their columns of
    # state, goal and clamps.
    rows = slice(None)
    live = (state, goal, clamps)
    for t in range(1, steps + 1):
        x, g, c = live
        if not x.shape[1]:
            totals[t:] = totals[t - 1]
            break
        ev = eval_batch(spec, x, g, with_grad=True, scratch=s)
        # Larger steps while the pair barely overlaps, annealing to
        # step_size as the overlap approaches 1:
        # move = cfg.step_size * (2.0 - ev.iou) * ev.grad.T, in the kernel's
        # iou and grad slots (the product commutes bit for bit).
        rate = np.subtract(2.0, ev.iou, out=ev.iou)
        rate *= cfg.step_size
        move = np.multiply(rate, ev.grad.T, out=ev.grad.T)
        x -= move
        low = np.less(x[2:], MIN_SIZE, out=s.mask())
        # one event per clamped coordinate (bool + bool would OR, not add)
        c += low[0]
        c += low[1]
        np.maximum(x[2:], MIN_SIZE, out=x[2:])
        err[rows] = _corner_l1(x, g, s, s.take(1))
        totals[t] = err.sum()
        # Retire the cases the step left in place and the clamp did not touch.
        moving = np.any(move, axis=0, out=s.mask(1))
        moving |= low[0]
        moving |= low[1]
        keep = np.flatnonzero(moving)
        if keep.size < x.shape[1]:
            state[:, rows], clamps[rows] = x, c
            rows = np.arange(n)[rows][keep]
            live = (np.take(x, keep, axis=-1), g.take(keep), np.take(c, keep))
    state[:, rows], clamps[rows] = live[0], live[2]
    check_boxes(state.T, f"{spec.label()}: the descent's final state of case", first_row=first_case)
    if not per_case:
        return totals, None, err, None, None
    return totals, initial, err, iou_batch(state, goal), clamps


def run_simulation(
    cfg: SimConfig, *, threads: int = 1, per_case: bool = False
) -> list[ConvergenceSummary]:
    """Run every spec over the full case population.

    ``threads`` parallelizes over the (spec, chunk) jobs, each a fixed-size
    chunk of cases (0 = one worker per CPU this process may run on); the
    reduction order is by chunk index, so summaries are bit-identical for any
    thread count. Only with
    ``per_case`` do the summaries carry each case's initial error, final
    error, final IoU and clamp count, and only then is the final IoU computed.
    """
    if not cfg.specs:
        raise ValueError("config needs at least one loss spec")
    threads = whole_number("threads", threads, 0)
    if threads == 0:
        if hasattr(os, "sched_getaffinity"):
            threads = len(os.sched_getaffinity(0))
        else:
            threads = os.cpu_count() or 1

    anchors, targets = generate_case_arrays(cfg)
    n = anchors.shape[0]
    bounds = [(i, min(i + CHUNK_CASES, n)) for i in range(0, n, CHUNK_CASES)]
    jobs = [(spec, span) for spec in cfg.specs for span in bounds]
    # One scratch per worker for the whole run: a job takes one and puts it back.
    scratches = queue.SimpleQueue()
    for _ in range(min(threads, len(jobs))):
        scratches.put(Scratch())

    def job(item):
        spec, (a, b) = item
        scratch = scratches.get()
        try:
            return _simulate_chunk(
                spec, anchors[a:b], targets[a:b], cfg, a, per_case=per_case, scratch=scratch
            )
        finally:
            scratches.put(scratch)

    # One pool for every (spec, chunk) job; its map yields them in job order.
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 and len(jobs) > 1 else None
    try:
        results = pool.map(job, jobs) if pool is not None else map(job, jobs)
        return [_summary(spec, [next(results) for _ in bounds], per_case) for spec in cfg.specs]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _summary(spec: LossSpec, parts: list[tuple], per_case: bool) -> ConvergenceSummary:
    """The summary of ``spec`` from its chunks' ``_simulate_chunk`` results, in chunk order."""
    totals = parts[0][0].copy()
    for p in parts[1:]:
        totals += p[0]
    final_err = np.concatenate([p[2] for p in parts])
    mean_final = float(final_err.sum() / final_err.size)
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
    return summary
