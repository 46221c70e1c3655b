"""Shared oracles and generators for the test suite.

The rasterization oracle recounts overlap on an integer grid, fully
independent of the library's arithmetic. The smooth-pair generator
rejects box pairs near any non-differentiable configuration (edge ties,
overlap clamp boundaries, equal sides, diagonal center offsets) so that
central finite differences are a valid reference for the analytic
gradients. The finite-difference probe differences the forward
evaluation numerically, so it is an independent check on every derived
derivative expression. The CSV reference formats each value on its own
with ``format`` and lets ``csv.writer`` join and quote the fields, the
way the CLI wrote its CSV files before it built one format per row.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from ioulab import BASE_NAMES, Box, LossSpec, eval_batch

AXES = ("x", "y", "w", "h")

# Ratios exercised by the auxiliary-box tests; 1.0 is the degeneration case.
TEST_RATIOS = (0.5, 0.8, 1.2, 1.5)

# Width of the exclusion zone around non-smooth configurations. Central
# differences use steps of 1e-5, so 1e-3 keeps every probe well inside a
# single smooth branch.
SMOOTH_MARGIN = 1e-3


def raster_iou(a: Box, b: Box, grid: int = 64) -> float:
    """IoU recomputed by counting covered unit cells on an integer grid.

    Valid only for boxes with integer corners inside [0, grid]^2. The
    quotient is formed exactly like intersection-cells / union-cells, so
    for such boxes the library value must match bit for bit.
    """
    cells = np.arange(grid, dtype=np.float64)
    lo = cells[:, None]  # cell [i, i+1) x [j, j+1)
    hi = lo + 1.0

    def covered(box: Box) -> np.ndarray:
        cols = (box.left <= lo) & (hi <= box.right)
        rows = (box.top <= lo.T) & (hi.T <= box.bottom)
        return cols & rows

    ca, cb = covered(a), covered(b)
    inter = float(np.count_nonzero(ca & cb))
    union = float(np.count_nonzero(ca | cb))
    return inter / union


def random_box(rng: np.random.Generator, *, span: float = 40.0, side: tuple[float, float] = (1.0, 15.0)) -> Box:
    return Box(
        rng.uniform(-span, span),
        rng.uniform(-span, span),
        rng.uniform(*side),
        rng.uniform(*side),
    )


def random_integer_box(rng: np.random.Generator, grid: int = 64) -> Box:
    left, top = rng.integers(0, grid - 1, size=2)
    right = rng.integers(left + 1, grid + 1)
    bottom = rng.integers(top + 1, grid + 1)
    w = float(right - left)
    h = float(bottom - top)
    return Box(left + w / 2.0, top + h / 2.0, w, h)


def _edges(x, y, w, h, r):
    hw = (w * r) / 2.0
    hh = (h * r) / 2.0
    return x - hw, x + hw, y - hh, y + hh


def smooth_mask(anchors: np.ndarray, gts: np.ndarray, ratios=TEST_RATIOS, margin: float = SMOOTH_MARGIN) -> np.ndarray:
    """True where a pair is at least ``margin`` away from every kink.

    Checked per scaling ratio (including 1): corner-coordinate ties, the
    zero crossings of both raw overlap extents, equal sides, axis-aligned
    or exactly diagonal center offsets.
    """
    ax, ay, aw, ah = (anchors[:, i] for i in range(4))
    gx, gy, gw, gh = (gts[:, i] for i in range(4))
    dx = np.abs(ax - gx)
    dy = np.abs(ay - gy)
    ok = (
        (dx > margin)
        & (dy > margin)
        & (np.abs(dx - dy) > margin)
        & (np.abs(aw - gw) > margin)
        & (np.abs(ah - gh) > margin)
    )
    for r in (1.0,) + tuple(ratios):
        al, ar, at, ab = _edges(ax, ay, aw, ah, r)
        gl, gr, gt, gb = _edges(gx, gy, gw, gh, r)
        iw_raw = np.minimum(ar, gr) - np.maximum(al, gl)
        ih_raw = np.minimum(ab, gb) - np.maximum(at, gt)
        ok &= np.abs(iw_raw) > margin
        ok &= np.abs(ih_raw) > margin
        for u, v in ((al, gl), (ar, gr), (at, gt), (ab, gb)):
            ok &= np.abs(u - v) > margin
    return ok


def random_smooth_pairs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n box pairs, rejection-sampled away from non-smooth configurations."""
    got_a, got_g = [], []
    remaining = n
    while remaining > 0:
        m = max(64, 2 * remaining)
        anchors = np.column_stack(
            [
                rng.uniform(-20, 20, m),
                rng.uniform(-20, 20, m),
                rng.uniform(1, 15, m),
                rng.uniform(1, 15, m),
            ]
        )
        gts = np.column_stack(
            [
                rng.uniform(-20, 20, m),
                rng.uniform(-20, 20, m),
                rng.uniform(1, 15, m),
                rng.uniform(1, 15, m),
            ]
        )
        keep = smooth_mask(anchors, gts)
        got_a.append(anchors[keep][:remaining])
        got_g.append(gts[keep][:remaining])
        remaining -= len(got_a[-1])
    return np.concatenate(got_a), np.concatenate(got_g)


def spec_matrix() -> list[LossSpec]:
    """Every base, plain and wrapped at each test ratio and at the degenerate ratio 1."""
    specs = []
    for base in BASE_NAMES:
        specs.append(LossSpec(base))
        for r in TEST_RATIOS + (1.0,):
            specs.append(LossSpec(base, inner=r))
    return specs


def grad_fd_batch(spec: LossSpec, anchors, gts, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradients over (..., 4) box arrays.

    Because the ciou aspect weight is defined as a constant of the
    evaluation point, the probe holds it there: it differences
    ``loss + (alpha0 - alpha) * v``, which swaps each perturbed point's
    weight ``alpha`` for the centre point's ``alpha0``.
    """
    step = float(step)
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    anchors = np.asarray(anchors, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    alpha0 = None
    if spec.base == "ciou":
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


def csv_reference(header, blocks) -> bytes:
    """The CLI's CSV bytes for ``header`` and ``(lead, columns)`` blocks, one value at a time."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for lead, columns in blocks:
        for i in range(len(columns[0])):
            values = [
                format(float(col[i]), ".17g") if col.dtype.kind == "f" else str(int(col[i]))
                for col in columns
            ]
            w.writerow([*lead, *values])
    return buf.getvalue().encode("utf-8")
