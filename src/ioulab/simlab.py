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
so results are identical no matter how many worker processes run the chunks.
A run draws only its sampled points; each chunk's job builds that chunk's
cases from them and descends them in place, and without per-case output
returns only its totals, so memory grows with the chunk, not the population.
A spec's mean final error is its final total over the case count.

A chunk descends as a (4, n) block, one row per coordinate (x, y, w, h),
which the unchecked kernel ``batch.eval_blocks`` takes as it is, against
the chunk's target prepared once; only the final state is checked against
the box domain. A case whose step is exactly zero and whose sides need no
clamp has the same state at the next iteration, and since every output of
the kernel is computed case by case from that case's boxes alone, it stays
frozen for good. Such cases retire: later iterations evaluate, step and
measure only the cases still moving, with their columns of the target,
and skip the kernel once none are. A retired case keeps its last error and
its clamp count in the chunk's full per-case arrays, so every total sums
the same values in the same order as an every-case loop.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .batch import BLOCK_ROWS, Scratch, Target, _edges, check_boxes, prepare_target
# perfbench/tracing.py wraps the kernels under these module attribute names.
from .batch import eval_blocks as eval_batch, iou_blocks as iou_batch
from .losses import BASE_NAMES, LossSpec, check_fields, real_number, sequence, whole_number

# Cases per work unit. Fixed so that partial sums (and therefore every
# floating-point reduction) are independent of the worker count.
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
        if not self.specs:
            raise ValueError("specs must hold at least one loss spec")
        for s in self.specs:
            if not isinstance(s, LossSpec):
                raise ValueError(f"specs must contain LossSpec values, got {type(s).__name__}")
        object.__setattr__(self, "n_points", whole_number("n_points", self.n_points, 1))
        object.__setattr__(self, "iterations", whole_number("iterations", self.iterations, 1))
        # numpy's seeds, which _pcg64_draws follows, are non-negative
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
    mean_final_error: float  # the final total over the case count
    auc: float  # trapezoidal area under the total error curve
    case_initial_error: np.ndarray | None = None
    case_final_error: np.ndarray | None = None
    case_final_iou: np.ndarray | None = None
    case_clamps: np.ndarray | None = None


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _pcg64_draws(seed: int):
    """The 53-bit integers behind ``numpy.random.default_rng(seed).random()``, in order.

    numpy's ``SeedSequence(seed)`` hashes the seed's 32-bit words into the
    state of a ``PCG64`` generator, whose every 64-bit output keeps its top
    53 bits. This is that stream in Python integers, bit for bit, so that
    generating a population loads no ``numpy.random``, whose seeding maps
    OpenSSL through ``secrets``. All word arithmetic is mod 2**32.
    """

    def hasher(h: int, mult: int):
        # SeedSequence's word hash, whose constant h steps at every call
        def hash_word(v: int) -> int:
            nonlocal h
            v ^= h
            h = h * mult & _M32
            v = v * h & _M32
            return v ^ v >> 16

        return hash_word

    def mix(x: int, y: int) -> int:
        v = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return v ^ v >> 16

    # The entropy pool of 4 words, least significant seed word first; the
    # words past the fourth mix into each.
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 words, each pair one uint64, low word first
    out = hasher(0x8B51F9DD, 0x58F38DED)
    state = [out(pool[i % 4]) for i in range(8)]
    v0, v1, v2, v3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))

    # PCG64 (XSL-RR 128/64) on the state (v0, v1) and the stream (v2, v3)
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((v2 << 64 | v3) << 1 | 1) & _M128
    s = ((inc + (v0 << 64 | v1)) * mult + inc) & _M128
    while True:
        s = (s * mult + inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        yield ((x >> rot | x << (64 - rot)) & _M64) >> 11


def _uniform(draws, lo: float, hi: float, n: int) -> np.ndarray:
    """``Generator.uniform(lo, hi, n)`` on the stream ``draws`` of :func:`_pcg64_draws`."""
    span = hi - lo
    return np.array([lo + span * (next(draws) * 2.0**-53) for _ in range(n)])


def _points(cfg: SimConfig) -> np.ndarray:
    """The run's seeded anchor centers, (2, n_points): x, then y."""
    draws = _pcg64_draws(cfg.seed)
    lo, hi = cfg.radius
    # Uniform over the annulus area, so radii are sqrt-uniform.
    r = np.sqrt(_uniform(draws, lo * lo, hi * hi, cfg.n_points))
    phi = _uniform(draws, 0.0, 2.0 * np.pi, cfg.n_points)
    return np.stack((CENTER[0] + r * np.cos(phi), CENTER[1] + r * np.sin(phi)))


def _fill_cases(points: np.ndarray, first: int, anchors: np.ndarray, targets: np.ndarray) -> None:
    """Write cases ``first``, ``first + 1``, ... into the (4, m) blocks ``anchors`` and ``targets``.

    The flat case order nests target aspect (outermost), sampled point of
    ``points`` (from :func:`_points`), anchor scale, anchor aspect
    (innermost), so each (target aspect, point) pair is a group of 49
    consecutive cases that differ only in the anchor's sides. The values are
    gathered per group, repeated over the whole groups the block touches,
    then cut to the block, so no per-case index is ever built.
    """
    aspect, scale = np.asarray(ASPECTS), np.asarray(SCALES)[:, None]
    per = scale.size * aspect.size
    g0, off = divmod(first, per)
    cut = slice(off, off + anchors.shape[1])
    # the (target aspect, point) of each group the block touches, whole or in part
    t, p = np.divmod(g0 + np.arange(-(-cut.stop // per)), points.shape[1])
    anchors[:2] = np.repeat(points[:, p], per, axis=1)[:, cut]
    anchors[2:] = np.tile(np.sqrt((scale * aspect, scale / aspect)).reshape(2, per), t.size)[:, cut]
    targets[:2] = np.array(CENTER)[:, None]
    # unit target area: w * h == 1
    targets[2:] = np.repeat(np.sqrt((aspect, 1.0 / aspect))[:, t], per, axis=1)[:, cut]


def generate_case_arrays(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """All (anchor, target) pairs as two (n, 4) center-form arrays.

    The flat order nests target aspect (outermost), sampled point, anchor
    scale, anchor aspect (innermost); the seeded point sample is shared by
    every target aspect. These are the cases a run's jobs build chunk by
    chunk, written here one chunk at a time, so the call holds only the
    two outputs and one chunk's temporaries.
    """
    points = _points(cfg)
    anchors, targets = np.empty((cfg.case_count, 4)), np.empty((cfg.case_count, 4))
    for a in range(0, cfg.case_count, CHUNK_CASES):
        _fill_cases(points, a, anchors[a : a + CHUNK_CASES].T, targets[a : a + CHUNK_CASES].T)
    return anchors, targets


def _corner_l1(state: np.ndarray, goal: Target, s: Scratch, out: np.ndarray) -> np.ndarray:
    """Per-case L1 distance from a (4, n) state's corners to the prepared target's, into ``out``.

    The corners are ``batch._edges`` of the state, in a slot of the started
    scratch ``s``: ``abs(lo - g_lo) + abs(hi - g_hi)``, x then y, in place.
    """
    d = _edges(state, 1.0, s.take(2))
    d -= goal.plain[:4].reshape(d.shape)
    np.abs(d, out=d)
    # d[lo, x] + d[hi, x] + d[lo, y] + d[hi, y], in that order
    np.add(d[0, 0], d[1, 0], out=out)
    out += d[0, 1]
    out += d[1, 1]
    s.give(d)
    return out


def _simulate_chunk(
    spec: LossSpec,
    state: np.ndarray,
    targets: np.ndarray,
    cfg: SimConfig,
    first_case: int = 0,
    *,
    per_case: bool = False,
    scratch: Scratch,
):
    """Descend one chunk under ``spec``, moving its (4, n) anchor block ``state`` in place.

    Returns the per-iteration total error (the case's own error curve for a
    one-row chunk), then the per-case initial error, final error, final IoU
    and clamp count; without ``per_case``, None in place of all but the
    totals. ``state`` ends as the final state; ``targets`` is not written. A
    final state outside the box domain raises ValueError naming the spec and
    the case id, ``first_case`` plus its row. A case that retires keeps its
    last error and its clamp count, as they stood at its retirement, in the
    chunk's full per-case arrays. The kernel's temporaries, the step and the
    errors live in ``scratch``; nothing returned shares it.
    """
    goal = prepare_target(targets, spec)
    n = state.shape[1]
    steps = cfg.iterations
    totals = np.empty(steps + 1)
    # clamp events are counted only where they are returned
    clamps = np.zeros(n, dtype=np.int64) if per_case else None

    err = _corner_l1(state, goal, scratch.start(n), np.empty(n))
    initial = err.copy() if per_case else None
    totals[0] = err.sum()
    # The cases that can still move (chunk rows), and their columns of state
    # and goal. err and clamps are written at these rows only, so a retired
    # case keeps its last error and its clamp count in the full arrays.
    rows, x, g = slice(None), state, goal
    for t in range(1, steps + 1):
        if not x.shape[1]:
            totals[t:] = totals[t - 1]
            break
        ev = eval_batch(spec, x, g, with_grad=True, scratch=scratch)
        # Larger steps while the pair barely overlaps, annealing to
        # step_size as the overlap approaches 1:
        # move = cfg.step_size * (2.0 - ev.iou) * ev.grad.T, in the kernel's
        # iou and grad slots (the product commutes bit for bit).
        rate = np.subtract(2.0, ev.iou, out=ev.iou)
        rate *= cfg.step_size
        move = np.multiply(rate, ev.grad.T, out=ev.grad.T)
        x -= move
        low = np.less(x[2:], MIN_SIZE, out=scratch.take(1, np.bool_))
        if per_case:
            # one event per clamped coordinate (bool + bool would OR, not add)
            clamps[rows] += low[0]
            clamps[rows] += low[1]
        np.maximum(x[2:], MIN_SIZE, out=x[2:])
        err[rows] = _corner_l1(x, g, scratch, scratch.take(0))
        totals[t] = err.sum()
        # Retire the cases the step left in place and the clamp did not touch.
        moving = np.any(move, axis=0, out=scratch.take(0, np.bool_))
        moving |= low[0]
        moving |= low[1]
        keep = np.flatnonzero(moving)
        if keep.size < x.shape[1]:
            state[:, rows] = x
            rows = np.arange(n)[rows][keep]
            x, g = np.take(x, keep, axis=-1), g.take(keep)
    state[:, rows] = x
    check_boxes(state.T, f"{spec.label()}: the descent's final state of case", first_row=first_case)
    if not per_case:
        return totals, None, None, None, None
    return totals, initial, err, iou_batch(state, goal), clamps


def run_simulation(
    cfg: SimConfig, *, threads: int = 1, per_case: bool = False
) -> list[ConvergenceSummary]:
    """Run every spec over the full case population.

    ``threads`` is the number of worker processes that run the (spec, chunk)
    jobs, each a fixed-size chunk of cases that the job builds from the run's
    seeded points (0 = one per CPU this process may run on). There are never
    more workers than full chunks of work, ``CHUNK_CASES`` pairs of case and
    spec each, rounded up, so a run of one chunk's work or less needs no
    pool. The reduction order is by chunk index, so summaries are
    bit-identical for any worker count. One worker runs the jobs in this
    process, as does every platform but Linux, the one where the fork pool
    was measured (macOS has spawned by default since Python 3.8, as a fork
    can crash there). Only with ``per_case`` do
    the summaries carry each case's initial error, final error, final IoU
    and clamp count, and only then is the final IoU computed.
    """
    threads = whole_number("threads", threads, 0)
    if sys.platform != "linux":
        threads = 1

    n = cfg.case_count
    bounds = [(i, min(i + CHUNK_CASES, n)) for i in range(0, n, CHUNK_CASES)]
    jobs = [(spec, span) for spec in cfg.specs for span in bounds]
    run = (cfg, _points(cfg), per_case)
    # at least one full chunk of work per worker, and so never more workers than
    # jobs; 0 threads count the CPUs this process may run on, which Linux reports
    workers = min(threads or len(os.sched_getaffinity(0)), -(-n * len(cfg.specs) // CHUNK_CASES))
    pool = None
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Fork, on purpose: a forked worker sees this module as it is, the
        # tests' patches of eval_batch, CHUNK_CASES and Scratch included. A
        # spawn or forkserver worker (the default from Python 3.14) does not.
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, run)
    try:
        # One pool for every (spec, chunk) job; its map yields them in job order.
        results = pool.map(_pooled_job, jobs) if pool else map(partial(_run_job, *run, Scratch()), jobs)
        return [_summary(spec, [next(results) for _ in bounds], n, per_case) for spec in cfg.specs]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _start_worker(*run) -> None:
    """Keep ``run`` and one Scratch, for the life of this pool worker, as ``_worker``."""
    global _worker
    _worker = (*run, Scratch())


def _pooled_job(job):
    return _run_job(*_worker, job)


def _run_job(cfg, points, per_case, scratch, job):
    """``_simulate_chunk`` on one (spec, (first, end)) job of ``run_simulation``.

    The job builds its chunk's cases from the run's ``points`` as (4, m)
    blocks, and the descent moves the anchor block in place.
    """
    spec, (a, b) = job
    anchors, targets = np.empty((4, b - a)), np.empty((4, b - a))
    _fill_cases(points, a, anchors, targets)
    return _simulate_chunk(spec, anchors, targets, cfg, a, per_case=per_case, scratch=scratch)


def _summary(spec: LossSpec, parts: list[tuple], cases: int, per_case: bool) -> ConvergenceSummary:
    """The summary of ``spec`` over ``cases`` cases from its chunks' results, in chunk order."""
    totals = parts[0][0].copy()
    for p in parts[1:]:
        totals += p[0]
    # trapezoids; iterations >= 1, so the curve has at least two points
    auc = float(0.5 * (totals[0] + totals[-1]) + totals[1:-1].sum())
    summary = ConvergenceSummary(
        label=spec.label(),
        total_error_curve=totals,
        mean_final_error=float(totals[-1] / cases),
        auc=auc,
    )
    if per_case:
        summary.case_initial_error = np.concatenate([p[1] for p in parts])
        summary.case_final_error = np.concatenate([p[2] for p in parts])
        summary.case_final_iou = np.concatenate([p[3] for p in parts])
        summary.case_clamps = np.concatenate([p[4] for p in parts])
    return summary
