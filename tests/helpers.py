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
The every-row descent is the simulation's chunk loop as it was before
cases retired: it evaluates and steps every case of an (n, 4) chunk on
every iteration, so it is the reference the retiring loop must match bit
for bit. The whole-array sweep is the deviation sweep as it was before it
ran in blocks: one kernel call per curve over every sample, against a full
array of copies of the target, so it is the reference the block loop must
match bit for bit. Both call the unchecked block kernels on transposes of
their (n, 4) arrays, as the loops they stand for do: a descent state may
leave the box domain before its final step. Both build the prepared target
afresh for every call, so they also judge the loops that build it once and
take its columns. The sign-based tie weight is the kernel's weight as it was
before it became a comparison, so it is the reference that one must match
byte for byte. The index-grid case generator is the population as it was
built before it was written in place: it gathers every column through
``np.indices``, so it is the reference the in-place generator must match
byte for byte. The reference kernel is the loss kernel as it was before it
wrote into a reused scratch: each value one plain numpy expression on fresh
arrays, with the sign-based tie weight, so it states every float operation
the scratch kernel must perform and is the reference it must match byte for
byte, for every output of both passes.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from ioulab import BASE_NAMES, LossSpec, SimConfig, eval_batch
from ioulab.batch import (
    _K_ASPECT,
    EPSILON,
    SIOU_THETA,
    BatchEval,
    check_boxes,
    eval_blocks,
    iou_blocks,
    prepare_target,
)
from ioulab.simlab import ASPECTS, CENTER, MIN_SIZE, SCALES
from ioulab.sweep import SweepConfig

AXES = ("x", "y", "w", "h")

# Ratios exercised by the auxiliary-box tests; 1.0 is the degeneration case.
TEST_RATIOS = (0.5, 0.8, 1.2, 1.5)

# Width of the exclusion zone around non-smooth configurations. Central
# differences use steps of 1e-5, so 1e-3 keeps every probe well inside a
# single smooth branch.
SMOOTH_MARGIN = 1e-3


def raster_iou(a, b, grid: int = 64) -> float:
    """IoU recomputed by counting covered unit cells on an integer grid.

    Valid only for boxes with integer corners inside [0, grid]^2. The
    quotient is formed exactly like intersection-cells / union-cells, so
    for such boxes the library value must match bit for bit.
    """
    cells = np.arange(grid, dtype=np.float64)
    lo = cells[:, None]  # cell [i, i+1) x [j, j+1)
    hi = lo + 1.0

    def covered(box) -> np.ndarray:
        x, y, w, h = box
        cols = (x - w / 2.0 <= lo) & (hi <= x + w / 2.0)
        rows = (y - h / 2.0 <= lo.T) & (hi.T <= y + h / 2.0)
        return cols & rows

    ca, cb = covered(a), covered(b)
    inter = float(np.count_nonzero(ca & cb))
    union = float(np.count_nonzero(ca | cb))
    return inter / union


def random_box(rng: np.random.Generator, *, span: float = 40.0, side: tuple[float, float] = (1.0, 15.0)) -> tuple:
    """An (x, y, w, h) tuple of floats."""
    return (
        float(rng.uniform(-span, span)),
        float(rng.uniform(-span, span)),
        float(rng.uniform(*side)),
        float(rng.uniform(*side)),
    )


def random_integer_box(rng: np.random.Generator, grid: int = 64) -> tuple:
    left, top = rng.integers(0, grid - 1, size=2)
    right = rng.integers(left + 1, grid + 1)
    bottom = rng.integers(top + 1, grid + 1)
    w = float(right - left)
    h = float(bottom - top)
    return (left + w / 2.0, top + h / 2.0, w, h)


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


def pick_reference(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Derivative weight of min(u, v) w.r.t. u, 1/2 at ties: ``0.5 * (sign(v - u) + 1)``."""
    return 0.5 * (np.sign(v - u) + 1.0)


def _reference_overlap(a, gt, r, with_grad):
    """``(union, iou, d_union, d_iou, (a_lo, a_hi), (w_hi, w_lo))`` of the anchor
    block ``a`` and a target's (5, ...) edges and area ``gt`` at ratio ``r``."""
    g_lo, g_hi, g_area = gt[:2], gt[2:4], gt[4]
    half = (a[2:] * r) / 2.0
    a_lo, a_hi = a[:2] - half, a[:2] + half
    raw = np.minimum(a_hi, g_hi) - np.maximum(a_lo, g_lo)
    ov = np.maximum(raw, 0.0)
    inter = ov[0] * ov[1]
    a_side = a_hi - a_lo
    union = a_side[0] * a_side[1] + g_area - inter
    iou = inter / union
    if not with_grad:
        return union, iou, None, None, (a_lo, a_hi), None
    w_hi = pick_reference(a_hi, g_hi)
    w_lo = pick_reference(g_lo, a_lo)
    is_open = (raw > 0.0).astype(np.float64)
    d_inter = ((w_hi - w_lo) * is_open * ov[::-1], (w_hi + w_lo) * is_open * (r / 2.0) * ov[::-1])
    d_union = (-d_inter[0], a_side[::-1] * r - d_inter[1])
    d_iou = tuple((di * union - inter * du) / (union * union) for di, du in zip(d_inter, d_union))
    return union, iou, d_union, d_iou, (a_lo, a_hi), (w_hi, w_lo)


def reference_blocks(spec: LossSpec, a: np.ndarray, target, *, with_grad: bool = True) -> BatchEval:
    """What ``batch.eval_blocks`` returns for one pass, from plain expressions on fresh arrays."""
    base, g = spec.base, target.box
    inner = d_inner = None
    if spec.inner is not None:
        _, inner, _, d_inner, _, _ = _reference_overlap(a, target.inner, spec.inner, with_grad)
    union, iou, d_union, d_iou, (a_lo, a_hi), weights = _reference_overlap(a, target.plain, 1.0, with_grad)
    if base != "iou":
        ext = np.maximum(a_hi, target.plain[2:4]) - np.minimum(a_lo, target.plain[:2])
        if with_grad:
            w_hi, w_lo = weights
            d_ext = (w_lo - w_hi, 1.0 - (w_hi + w_lo) * 0.5)

    loss = None
    terms = {}
    if base == "iou":
        ov_iou, ov_d = (iou, d_iou) if inner is None else (inner, d_inner)
        if with_grad:
            dc, ds = -ov_d[0], -ov_d[1]
        else:
            loss = 1.0 - ov_iou
    elif base == "giou":
        c_area = ext[0] * ext[1]
        if with_grad:
            dc, ds = (
                -di - (du * c_area - union * (d * ext[::-1])) / (c_area * c_area)
                for di, du, d in zip(d_iou, d_union, d_ext)
            )
        else:
            loss = 1.0 - iou + (c_area - union) / c_area
    elif base in ("diou", "ciou", "eiou"):
        off = a[:2] - g[:2]
        rho2 = off[0] * off[0] + off[1] * off[1]
        c_diag = ext[0] * ext[0] + ext[1] * ext[1]
        if with_grad:
            d_c_diag = [2.0 * (ext * d) for d in d_ext]
            cd2 = c_diag * c_diag
            dc = -d_iou[0] + (2.0 * off * c_diag - rho2 * d_c_diag[0]) / cd2
            ds = -d_iou[1] - rho2 * d_c_diag[1] / cd2
        else:
            loss = 1.0 - iou + rho2 / c_diag
        if base == "ciou":
            aw, ah = a[2], a[3]
            q = target.aspect - np.arctan(aw / ah)
            v = _K_ASPECT * q * q
            alpha = v / np.maximum((1.0 - iou) + v, EPSILON)
            if with_grad:
                ds = ds + alpha * (2.0 * _K_ASPECT * q * np.stack((-ah, aw)) / (aw * aw + ah * ah))
            else:
                loss = loss + alpha * v
                terms.update(v=v, alpha=alpha)
        elif base == "eiou":
            side_off = a[2:] - g[2:]
            ext2 = ext * ext
            t = (side_off * side_off) / ext2
            if with_grad:
                k = 2.0 * t / ext
                dc = dc - k * d_ext[0]
                ds = ds + (2.0 * side_off / ext2 - k * d_ext[1])
            else:
                loss = loss + t[0] + t[1]
    else:  # siou
        off = a[:2] - g[:2]
        absx, absy = np.abs(off)
        dist = np.sqrt(off[0] * off[0] + off[1] * off[1])
        m = np.minimum(absx, absy)
        den = dist + EPSILON
        z = m / den
        root = np.sqrt(1.0 - z * z)
        angle = 2.0 * z * root
        gamma = 2.0 - angle
        rho = (off / ext) ** 2
        e = np.exp(-gamma * rho)
        sa, sg = a[2:], g[2:]
        omega = np.abs(sa - sg) / np.maximum(sa, sg)
        e_omega = np.exp(-omega)
        shape_base = 1.0 - e_omega
        if with_grad:
            use_x = absx <= absy
            pick = np.stack((use_x, ~use_x))
            d_m = ((off > 0.0) & pick).astype(np.float64) - ((off < 0.0) & pick)
            pos = dist > 0.0
            d_dist = np.divide(off, dist, out=np.zeros_like(off), where=pos)
            d_z = np.divide(d_m * den - m * d_dist, den * den, out=np.zeros_like(d_m), where=pos)
            d_gamma = -((2.0 * (1.0 - 2.0 * z * z) / root) * d_z)
            k = 2.0 * rho / ext
            d_rho_c = 2.0 * off / (ext * ext) - k * d_ext[0]
            d_rho_s = -(k * d_ext[1])
            d_dist_cost_c = 0.5 * (
                e * (gamma * d_rho_c + rho * d_gamma) + e[::-1] * (rho[::-1] * d_gamma)
            )
            d_dist_cost_s = 0.5 * (e * (gamma * d_rho_s))
            d_omega = np.where(sa >= sg, sg / (sa * sa), -1.0 / sg)
            df = SIOU_THETA * shape_base ** (SIOU_THETA - 1.0) * e_omega
            dc = -d_iou[0] + d_dist_cost_c / 2.0
            ds = -d_iou[1] + (d_dist_cost_s + 0.5 * (df * d_omega)) / 2.0
        else:
            dist_cost = 0.5 * ((1.0 - e[0]) + (1.0 - e[1]))
            f = shape_base ** SIOU_THETA
            shape_cost = 0.5 * (f[0] + f[1])
            loss = 1.0 - iou + (dist_cost + shape_cost) / 2.0
            terms.update(
                angle_cost=angle, gamma=gamma, distance_cost=dist_cost, shape_cost=shape_cost,
                rho_x=rho[0], rho_y=rho[1], omega_w=omega[0], omega_h=omega[1], theta=SIOU_THETA,
            )

    if inner is not None and base != "iou":
        if with_grad:
            dc, ds = dc + d_iou[0] - d_inner[0], ds + d_iou[1] - d_inner[1]
        else:
            loss = loss + iou - inner
    grad = np.moveaxis(np.concatenate((dc, ds)), 0, -1) if with_grad else None
    return BatchEval(loss=loss, iou=iou, inner_iou=inner, terms=terms, grad=grad)


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


def _corner_l1_rows(state: np.ndarray, targets: np.ndarray) -> np.ndarray:
    sx, sy, sw, sh = state[:, 0], state[:, 1], state[:, 2], state[:, 3]
    tx, ty, tw, th = targets[:, 0], targets[:, 1], targets[:, 2], targets[:, 3]
    return (
        np.abs((sx - sw / 2.0) - (tx - tw / 2.0))
        + np.abs((sx + sw / 2.0) - (tx + tw / 2.0))
        + np.abs((sy - sh / 2.0) - (ty - th / 2.0))
        + np.abs((sy + sh / 2.0) - (ty + th / 2.0))
    )


def descend_every_row(
    spec: LossSpec,
    anchors: np.ndarray,
    targets: np.ndarray,
    cfg: SimConfig,
    first_case: int = 0,
):
    """Descend one chunk of cases under ``spec``, evaluating every case every iteration.

    Returns what ``simlab._simulate_chunk`` returns: the per-iteration total
    error, then the per-case initial error, final error, final IoU and
    clamp count.
    """
    state = anchors.copy()
    steps = cfg.iterations
    totals = np.empty(steps + 1)
    clamps = np.zeros(state.shape[0], dtype=np.int64)

    err = _corner_l1_rows(state, targets)
    initial = err.copy()
    totals[0] = err.sum()
    for t in range(1, steps + 1):
        ev = eval_blocks(spec, state.T, prepare_target(targets.T, spec), with_grad=True)
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
        err = _corner_l1_rows(state, targets)
        totals[t] = err.sum()
    check_boxes(state, f"{spec.label()}: the descent's final state of case", first_row=first_case)
    final_iou = iou_blocks(state.T, prepare_target(targets.T))
    return totals, initial, err, final_iou, clamps


def sweep_whole_array(cfg: SweepConfig):
    """What ``sweep.run_sweep`` returns, from one kernel call per curve over every sample."""
    devs = np.linspace(cfg.deviation_range[0], cfg.deviation_range[1], cfg.samples)
    targets = np.zeros((cfg.samples, 4))
    targets[:, 2] = cfg.box_side
    targets[:, 3] = cfg.box_side
    anchors = targets.copy()
    col = 0 if cfg.axis == "x" else 1
    anchors[:, col] = devs

    iou = {}
    absgrad = {}
    for side in cfg.sides():
        spec = LossSpec("iou", inner=side / cfg.box_side)
        ev = eval_blocks(spec, anchors.T, prepare_target(targets.T, spec))
        iou[side] = ev.inner_iou
        absgrad[side] = np.abs(ev.grad[:, col])
    return devs, iou, absgrad


def cases_by_index(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """What ``simlab.generate_case_arrays`` returns, gathered through an index grid."""
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.radius
    r = np.sqrt(rng.uniform(lo * lo, hi * hi, cfg.n_points))
    phi = rng.uniform(0.0, 2.0 * np.pi, cfg.n_points)
    px = CENTER[0] + r * np.cos(phi)
    py = CENTER[1] + r * np.sin(phi)

    aspect = np.asarray(ASPECTS)
    scale = np.asarray(SCALES)
    grid = (len(aspect), cfg.n_points, len(scale), len(aspect))
    ti, pi, si, ai = np.indices(grid).reshape(4, -1)

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
