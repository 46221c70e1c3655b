"""Vectorized loss evaluation with hand-derived analytic gradients.

Boxes are in center form (x, y, w, h). The public entries :func:`eval_batch`
and :func:`iou_batch` take broadcastable (..., 4) arrays, check every box
with :func:`check_boxes` and copy each into a contiguous (4, ...) block for
the unchecked kernels :func:`eval_blocks` and :func:`iou_blocks`, which take
the gt block's :class:`Target`. The descent and the sweep prepare each target
once and call the kernels directly: a descent state may leave the domain.

Per-axis layout: ``block[:2]`` holds the centers (x, y) and ``block[2:]``
the sides (w, h). Every overlap, enclosure and offset quantity splits into
an x and a y factor that depends only on that axis's center and side, so it
is one (2, ...) array over both axes. A derivative is a pair ``(dc, ds)`` of
(2, ...) arrays: the partials with respect to the anchor's center (x, y)
and to its sides (w, h). The partial of an x factor with respect to y or h
is zero and is never stored; products of the two axes (areas, the squared
diagonal) pick up the other axis's factor through ``[::-1]``.

Subgradient conventions at the non-smooth points:

* a clamped overlap contributes zero gradient on the clamped side
  (``max(0, raw)`` with ``raw <= 0``);
* min/max ties average the two one-sided derivatives (weight 1/2), which
  makes coincident boxes exact stationary points of every loss;
* the center-angle term has zero gradient at coincident centers.

The aspect-weight ``alpha`` of the ciou loss is treated as a constant at the
evaluation point, so gradients do not differentiate through it; a
finite-difference check must hold it fixed the same way, as the test
suite's probe ``grad_fd_batch`` in ``tests/helpers.py`` does.

Supported inputs: boxes in the domain :func:`check_boxes` enforces and inner
ratios in ``RATIO_LIMITS``. There every loss and gradient is finite and
``0 <= iou <= 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .losses import LossSpec

# Guards the denominators that can vanish: the center-angle term of siou
# and the aspect-weight denominator of ciou.
EPSILON = 1e-7
# Exponent of the siou shape cost, (1 - exp(-omega)) ** SIOU_THETA.
SIOU_THETA = 4.0

_K_ASPECT = 4.0 / np.pi**2

# The supported box domain: every |x|, |y|, w, h is at most BOX_LIMIT, and
# each side is at least 1 / BOX_LIMIT and SIDE_REL times its centre's offset,
# so it survives the corner round trip at every ratio in RATIO_LIMITS.
BOX_LIMIT = 1e40
SIDE_REL = 1e-9
RATIO_LIMITS = (1e-3, 1e3)

# Rows per kernel call for the callers that split their work: timed in the
# descent loop (high preset, 12 specs, 2 shared Xeon vCPUs), a gradient call
# costs 95 ns a pair on 8,192-row chunks, 120 on 2,048, 110-130 on 32,768-65,536.
BLOCK_ROWS = 8192


def check_boxes(boxes, name: str, *, first_row: int = 0) -> np.ndarray:
    """``boxes`` as a float64 (..., 4) array; ValueError if one is outside the domain.

    NaN fails every comparison. The message names ``name`` and, for more
    than one box, the first bad one's flat index plus ``first_row``.
    """
    arr = np.asarray(boxes, dtype=np.float64)
    flat = arr.reshape(-1, 4)
    # Column by column: `.all(axis=1)` over rows of 4 costs about five times more.
    x, y, w, h = flat.T
    ax, ay = np.abs(x), np.abs(y)
    big = ~(
        (ax <= BOX_LIMIT) & (ay <= BOX_LIMIT) & (np.abs(w) <= BOX_LIMIT) & (np.abs(h) <= BOX_LIMIT)
    )
    least = 1.0 / BOX_LIMIT
    small = ~((w >= np.maximum(SIDE_REL * ax, least)) & (h >= np.maximum(SIDE_REL * ay, least)))
    bad = np.flatnonzero(big | small)
    if bad.size:
        i = bad[0]
        why = (
            f"every |x|, |y|, w, h must be finite and at most {BOX_LIMIT:g}" if big[i] else
            f"sides must be positive, at least {least:g} and {SIDE_REL:g} times"
            " their centre's offset, so they do not vanish at its float resolution"
        )
        at = f" {first_row + i}" if arr.ndim > 1 else ""
        box = tuple(flat[i].tolist())
        raise ValueError(f"{name}{at} is outside the supported box domain: {why}; got {box}")
    return arr


@dataclass
class BatchEval:
    """Arrays produced by :func:`eval_batch`; gradient axes are (..., 4).

    A pass of :func:`eval_blocks` fills part of it: the forward pass leaves
    ``grad`` None, the gradient pass leaves ``loss`` None and ``terms`` empty.
    ``terms`` holds the ciou aspect term and weight (``v``, ``alpha``) or the
    siou decomposition, and is empty for the other bases. Of the siou terms,
    ``angle_cost`` is 0 with axis-aligned centers and 1 at a 45-degree
    diagonal, ``gamma = 2 - angle_cost`` steers the distance falloff,
    ``rho_x``/``rho_y`` are squared center offsets normalized by the
    enclosing box, ``omega_w``/``omega_h`` relative side differences, and
    ``theta`` is the constant shape exponent. On a single (4,) pair
    ``loss``, ``iou``, ``inner_iou`` and the ``terms`` values are scalars.
    """

    loss: np.ndarray | None
    iou: np.ndarray
    inner_iou: np.ndarray | None
    terms: dict[str, np.ndarray | float]
    grad: np.ndarray | None


class Target(NamedTuple):
    """What the kernels read of a (4, ...) gt block (:func:`prepare_target`).

    ``plain`` and ``inner`` stack the (x, y) low and high edges and the area, (5, ...),
    at ratio 1 and at the spec's inner ratio; ``aspect`` is ciou's arctan(w / h).
    """

    box: np.ndarray
    plain: np.ndarray
    inner: np.ndarray | None
    aspect: np.ndarray | None

    def take(self, cols) -> "Target":
        """The target of the columns ``cols`` of the gt block."""
        return Target._make(None if f is None else np.take(f, cols, axis=-1) for f in self)


def _pick(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Derivative weight of min(u, v) w.r.t. u, and of max(v, u) w.r.t. v:
    # 1, 1/2 or 0 as u <, == or > v, so ties get the averaged value.
    w = np.add(u < v, u <= v, dtype=np.float64)
    w *= 0.5
    return w


def _ext_weights(w_hi: np.ndarray, w_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The enclosing box's (center, side) weights: max(a_hi, g_hi) picks the
    # anchor edge with weight 1 - w_hi, min(a_lo, g_lo) with 1 - w_lo, exactly.
    return w_lo - w_hi, 1.0 - (w_hi + w_lo) * 0.5


def _blocks(anchors, gts) -> tuple[np.ndarray, np.ndarray]:
    """Both box arrays, checked by :func:`check_boxes`, as contiguous (4, ...) blocks of equal rank."""
    arrs = []
    for name, boxes in (("anchors", anchors), ("gts", gts)):
        arr = np.asarray(boxes, dtype=np.float64)
        if arr.shape[-1:] != (4,):
            raise ValueError(f"{name} must have a trailing axis of size 4, got shape {arr.shape}")
        arrs.append(check_boxes(arr, name))
    # Pad the leading dimensions first: with the box axis in front, a
    # (3, 4) gt would otherwise not broadcast against (2, 3, 4) anchors.
    nd = max(arr.ndim for arr in arrs)
    return tuple(
        np.ascontiguousarray(np.moveaxis(arr.reshape((1,) * (nd - arr.ndim) + arr.shape), -1, 0))
        for arr in arrs
    )


def _edges(box: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    # c -+ (w * r) / 2 for a (4, ...) block; c -+ w / 2 at r == 1, as w * 1.0 == w
    half = box[2:] / 2.0 if r == 1.0 else np.divide(t := box[2:] * r, 2.0, out=t)
    return box[:2] - half, box[:2] + half


def prepare_target(g: np.ndarray, spec: "LossSpec | None" = None) -> Target:
    """The :class:`Target` of the (4, ...) gt block ``g`` under ``spec``, or for
    :func:`iou_blocks` without one (unchecked). A target does not move: build it once."""
    def scaled(r):
        lo, hi = _edges(g, r)
        side = hi - lo  # corner-derived, as the anchor's in _overlap
        return np.concatenate((lo, hi, (side[0] * side[1])[None]))

    inner = None if spec is None or spec.inner is None else scaled(spec.inner)
    aspect = np.arctan(g[2] / g[3]) if spec is not None and spec.base == "ciou" else None
    return Target(g, scaled(1.0), inner, aspect)


def _overlap(a: np.ndarray, gt, r: float, with_grad: bool, enclose: bool = False) -> tuple:
    """IoU of the (4, ...) anchor block ``a`` and a target's (5, ...) edges and area ``gt`` at ratio ``r``.

    This is the one overlap computation: the plain overlap is ``r == 1``,
    and since ``w * 1.0 == w`` an auxiliary ratio of 1 reproduces it bit for
    bit. Returns ``(union, iou, d_union, d_iou, edges, weights)``: the
    derivatives with ``with_grad``, the anchor's (low, high) ``edges`` and the
    tie ``weights`` (w_hi, w_lo) with ``enclose``, for the enclosing box.

    The in-place operations below are the same float operations in the
    same order as the plain expressions in their comments, so they give the
    same bits with fewer temporaries.
    """
    g_lo, g_hi, g_area = gt[:2], gt[2:4], gt[4]
    a_lo, a_hi = _edges(a, r)
    raw = np.minimum(a_hi, g_hi)
    raw -= np.maximum(a_lo, g_lo)
    ov = np.maximum(raw, 0.0)
    inter = ov[0] * ov[1]
    # Corner-derived side lengths; using them for the areas keeps
    # inter <= union in floats (so iou <= 1, and exactly 1 on
    # bitwise-identical boxes) and makes bitwise-coincident pairs exact
    # stationary points of every loss.
    a_side = a_hi - a_lo
    union = a_side[0] * a_side[1]
    union += g_area
    union -= inter  # a_area + g_area - inter
    iou = inter / union
    edges = (a_lo, a_hi) if enclose else None
    if not with_grad:
        return union, iou, None, None, edges, None

    w_hi = _pick(a_hi, g_hi)  # min(a_hi, g_hi) picks the anchor edge
    w_lo = _pick(g_lo, a_lo)  # max(a_lo, g_lo) picks the anchor edge
    # np.where is several times slower than a cast on arrays this size.
    is_open = (raw > 0.0).astype(np.float64)
    # d_inter = (is_open * (w_hi - w_lo) * ov[::-1],
    #            is_open * (w_hi + w_lo) * (r / 2) * ov[::-1])
    d_inter_c = w_hi - w_lo
    d_inter_c *= is_open
    d_inter_c *= ov[::-1]
    d_inter_s = w_hi + w_lo if enclose else np.add(w_hi, w_lo, out=w_hi)
    d_inter_s *= is_open
    d_inter_s *= r / 2.0
    d_inter_s *= ov[::-1]
    if r != 1.0:
        a_side *= r  # d_union_s = a_side[::-1] * r - d_inter_s
    d_union_s = a_side[::-1] - d_inter_s
    d_union = (-d_inter_c, d_union_s)
    # d_iou = (d_inter * union - inter * d_union) / (union * union)
    union2 = union * union
    for di, du in zip((d_inter_c, d_inter_s), d_union):
        di *= union
        di -= inter * du
        di /= union2
    weights = (w_hi, w_lo) if enclose else None
    return union, iou, d_union, (d_inter_c, d_inter_s), edges, weights


def iou_batch(anchors, gts) -> np.ndarray:
    """Plain IoU over broadcastable (..., 4) center-form arrays; ValueError outside the domain."""
    a, g = _blocks(anchors, gts)
    return iou_blocks(a, prepare_target(g))


def eval_batch(spec: "LossSpec", anchors, gts, *, with_grad: bool = True) -> BatchEval:
    """Evaluate ``spec`` over broadcastable (..., 4) box arrays; ValueError outside the domain.

    Every field is filled: ``with_grad`` adds the gradient pass's ``grad`` to
    the forward pass's outputs.
    """
    a, g = _blocks(anchors, gts)
    target = prepare_target(g, spec)
    ev = eval_blocks(spec, a, target, with_grad=False)
    if with_grad:
        ev.grad = eval_blocks(spec, a, target, with_grad=True).grad
    return ev


def iou_blocks(a: np.ndarray, target: Target) -> np.ndarray:
    """Plain IoU of the (4, ...) anchor block ``a`` and a prepared target (unchecked)."""
    return _overlap(a, target.plain, 1.0, False)[1]


def eval_blocks(spec: "LossSpec", a: np.ndarray, target: Target, *, with_grad: bool = True) -> BatchEval:
    """One pass of ``spec`` on the (4, ...) anchor block ``a`` and ``prepare_target(g, spec)`` (unchecked).

    The forward pass (``with_grad=False``) gives ``loss``, ``iou``,
    ``inner_iou`` and ``terms``; the gradient pass gives ``iou``,
    ``inner_iou`` and ``grad``, with ``loss`` None and ``terms`` empty.
    """
    base, g, enclose = spec.base, target.box, spec.base != "iou"

    # --- overlap -----------------------------------------------------------
    inner = d_inner = None
    if spec.inner is not None:
        _, inner, _, d_inner, _, _ = _overlap(a, target.inner, spec.inner, with_grad)
    # The iou base with a ratio is 1 - (auxiliary overlap), so its plain
    # overlap only reports ``iou`` and needs no gradient.
    union, iou, d_union, d_iou, edges, weights = _overlap(
        a, target.plain, 1.0, with_grad and (enclose or inner is None), enclose
    )

    # --- enclosing box (every base but iou) ----------------------------------
    if enclose:
        ext = np.maximum(edges[1], target.plain[2:4]) - np.minimum(edges[0], target.plain[:2])
        if with_grad:
            d_ext = _ext_weights(*weights)
        # Not read again: freed before the loss builds its temporaries.
        del edges, weights

    # --- base loss: partials dc (center) and ds (sides) ----------------------
    # The gradient pass builds only what the partials read; the loss and its
    # terms are the forward pass's.
    loss = None
    terms: dict[str, np.ndarray | float] = {}

    if base == "iou":
        ov_iou, ov_d = (iou, d_iou) if inner is None else (inner, d_inner)
        if with_grad:
            dc, ds = -ov_d[0], -ov_d[1]
        else:
            loss = 1.0 - ov_iou
    elif base == "giou":
        c_area = ext[0] * ext[1]
        if with_grad:
            d_c_area = [d * ext[::-1] for d in d_ext]
            dc, ds = (
                -di - (du * c_area - union * dca) / (c_area * c_area)
                for di, du, dca in zip(d_iou, d_union, d_c_area)
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
                d_v = 2.0 * _K_ASPECT * q * np.stack((-ah, aw)) / (aw * aw + ah * ah)
                ds = ds + alpha * d_v
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
    elif base == "siou":
        off = a[:2] - g[:2]
        absx, absy = np.abs(off)
        dist = np.sqrt(off[0] * off[0] + off[1] * off[1])
        m = np.minimum(absx, absy)
        den = dist + EPSILON
        z = m / den
        root = np.sqrt(1.0 - z * z)
        angle = 2.0 * z * root  # sin of twice the elevation angle
        gamma = 2.0 - angle
        rho = (off / ext) ** 2
        e = np.exp(-gamma * rho)
        sa, sg = a[2:], g[2:]
        omega = np.abs(sa - sg) / np.maximum(sa, sg)
        e_omega = np.exp(-omega)
        shape_base = 1.0 - e_omega
        if with_grad:
            # m, dist and so gamma depend on the centers only.
            # d_m = sign(off) on the axis that gives m, else 0; the comparisons
            # give the same bits as a masked np.sign in a sixth of its time.
            use_x = absx <= absy
            pick = np.stack((use_x, ~use_x))
            d_m = ((off > 0.0) & pick).astype(np.float64)
            d_m -= (off < 0.0) & pick
            pos = dist > 0.0
            # A ufunc's where= leaves the zeros of out where the condition
            # fails, as np.where(cond, value, 0.0) would, and is faster.
            d_dist = np.divide(off, dist, out=np.zeros_like(off), where=pos)
            d_z = np.divide(
                d_m * den - m * d_dist, den * den, out=np.zeros_like(d_m), where=pos
            )
            d_gamma = -((2.0 * (1.0 - 2.0 * z * z) / root) * d_z)
            k = 2.0 * rho / ext
            d_rho_c = 2.0 * off / (ext * ext) - k * d_ext[0]
            d_rho_s = -(k * d_ext[1])
            # each axis's distance term also moves with gamma, which both
            # center partials reach
            d_dist_cost_c = 0.5 * (
                e * (gamma * d_rho_c + rho * d_gamma) + e[::-1] * (rho[::-1] * d_gamma)
            )
            d_dist_cost_s = 0.5 * (e * (gamma * d_rho_s))
            # Unlike the where= calls above, both branches are used here:
            # two where= divides measure about 1.5x slower than np.where
            # on an 8,192-case chunk.
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
                angle_cost=angle,
                gamma=gamma,
                distance_cost=dist_cost,
                shape_cost=shape_cost,
                rho_x=rho[0],
                rho_y=rho[1],
                omega_w=omega[0],
                omega_h=omega[1],
                theta=SIOU_THETA,
            )
    else:  # pragma: no cover - LossSpec validates the base name
        raise ValueError(f"unknown base loss {base!r}")

    # --- auxiliary (inner) composition: every base but iou ---------------------
    if inner is not None and base != "iou":
        if with_grad:
            dc, ds = dc + d_iou[0] - d_inner[0], ds + d_iou[1] - d_inner[1]
        else:
            loss = loss + iou - inner

    grad = np.moveaxis(np.concatenate((dc, ds)), 0, -1) if with_grad else None
    return BatchEval(loss=loss, iou=iou, inner_iou=inner, terms=terms, grad=grad)
