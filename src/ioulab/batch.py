"""Vectorized loss evaluation with hand-derived analytic gradients.

Inputs are float64 arrays of shape (..., 4) holding boxes in center form
(x, y, w, h); outputs broadcast over the leading dimensions. This module is
the single implementation behind both the scalar API in :mod:`ioulab.losses`
and the bulk simulation loop, so the two can never drift apart.

Per-axis layout: each input is copied once into a contiguous (4, ...)
block, so ``block[:2]`` holds the centers (x, y) and ``block[2:]`` the sides
(w, h). Every overlap, enclosure and offset quantity splits into an x and a
y factor that depends only on that axis's center and side, so it is one
(2, ...) array over both axes. A derivative is a pair ``(dc, ds)`` of
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
finite-difference check must hold it fixed the same way, as
:func:`ioulab.gradients.grad_fd_batch` does.
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


@dataclass
class BatchEval:
    """Arrays produced by :func:`eval_batch`; gradient axes are (..., 4).

    ``terms`` holds the ciou aspect term and weight (``v``, ``alpha``) or the
    siou decomposition, and is empty for the other bases. Of the siou terms,
    ``angle_cost`` is 0 with axis-aligned centers and 1 at a 45-degree
    diagonal, ``gamma = 2 - angle_cost`` steers the distance falloff,
    ``rho_x``/``rho_y`` are squared center offsets normalized by the
    enclosing box, ``omega_w``/``omega_h`` relative side differences, and
    ``theta`` is the constant shape exponent. On a single (4,) pair
    ``loss``, ``iou``, ``inner_iou`` and the ``terms`` values are scalars.
    """

    loss: np.ndarray
    iou: np.ndarray
    inner_iou: np.ndarray | None
    terms: dict[str, np.ndarray | float]
    grad: np.ndarray | None


class _Overlap(NamedTuple):
    """Overlap of both boxes scaled about their centers by one ratio.

    ``edges`` are the scaled (anchor low, anchor high, gt low, gt high)
    edges, each (2, ...) over the axes; ``d_union`` and ``d_iou`` are None
    without the gradient.
    """

    edges: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    union: np.ndarray
    iou: np.ndarray
    d_union: tuple[np.ndarray, np.ndarray] | None
    d_iou: tuple[np.ndarray, np.ndarray] | None


def _pick(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Derivative weight of min(u, v) w.r.t. u; ties get the averaged value.
    # The same expression with swapped arguments serves max(u, v) w.r.t. v.
    return 0.5 * (np.sign(v - u) + 1.0)


def _blocks(anchors, gts) -> tuple[np.ndarray, np.ndarray]:
    """Both box arrays as contiguous (4, ...) blocks of equal rank."""
    arrs = [np.asarray(boxes, dtype=np.float64) for boxes in (anchors, gts)]
    for arr in arrs:
        if arr.shape[-1] != 4:
            raise ValueError(f"boxes must have a trailing axis of size 4, got shape {arr.shape}")
    # Pad the leading dimensions first: with the box axis in front, a
    # (3, 4) gt would otherwise not broadcast against (2, 3, 4) anchors.
    nd = max(arr.ndim for arr in arrs)
    return tuple(
        np.ascontiguousarray(np.moveaxis(arr.reshape((1,) * (nd - arr.ndim) + arr.shape), -1, 0))
        for arr in arrs
    )


def _overlap(a: np.ndarray, g: np.ndarray, r: float, with_grad: bool) -> _Overlap:
    """IoU of the (4, ...) anchor and gt blocks ``a``/``g`` scaled by ``r``.

    This is the one overlap computation: the plain overlap is ``r == 1``,
    and since ``w * 1.0 == w`` an auxiliary ratio of 1 reproduces it bit for
    bit.
    """
    def edges(box):
        half = (box[2:] * r) / 2.0
        return box[:2] - half, box[:2] + half

    a_lo, a_hi = edges(a)
    g_lo, g_hi = edges(g)
    raw = np.minimum(a_hi, g_hi) - np.maximum(a_lo, g_lo)
    ov = np.maximum(raw, 0.0)
    inter = ov[0] * ov[1]
    # Corner-derived side lengths; using them for the areas keeps
    # inter <= union in floats (so iou <= 1, and exactly 1 on
    # bitwise-identical boxes) and makes bitwise-coincident pairs exact
    # stationary points of every loss.
    a_side = a_hi - a_lo
    g_side = g_hi - g_lo
    union = a_side[0] * a_side[1] + g_side[0] * g_side[1] - inter
    iou = inter / union
    edges4 = (a_lo, a_hi, g_lo, g_hi)
    if not with_grad:
        return _Overlap(edges4, union, iou, None, None)

    w_hi = _pick(a_hi, g_hi)  # min(a_hi, g_hi) picks the anchor edge
    w_lo = _pick(g_lo, a_lo)  # max(a_lo, g_lo) picks the anchor edge
    is_open = np.where(raw > 0.0, 1.0, 0.0)
    d_ov = (is_open * (w_hi - w_lo), is_open * (w_hi + w_lo) * (r / 2.0))
    d_inter = [d * ov[::-1] for d in d_ov]
    d_union = (-d_inter[0], a_side[::-1] * r - d_inter[1])
    d_iou = tuple(
        (di * union - inter * du) / (union * union) for di, du in zip(d_inter, d_union)
    )
    return _Overlap(edges4, union, iou, d_union, d_iou)


def iou_batch(anchors, gts) -> np.ndarray:
    """Plain IoU over broadcastable (..., 4) center-form arrays."""
    return _overlap(*_blocks(anchors, gts), 1.0, False).iou


def eval_batch(spec: "LossSpec", anchors, gts, *, with_grad: bool = True) -> BatchEval:
    """Evaluate ``spec`` over broadcastable box arrays."""
    a, g = _blocks(anchors, gts)
    base = spec.base

    # --- overlap -----------------------------------------------------------
    aux = None if spec.inner is None else _overlap(a, g, spec.inner, with_grad)
    # The iou base with a ratio is 1 - (auxiliary overlap), so its plain
    # overlap only reports ``iou`` and needs no gradient.
    plain = _overlap(a, g, 1.0, with_grad and (base != "iou" or aux is None))
    a_lo, a_hi, g_lo, g_hi = plain.edges
    union, iou, d_union, d_iou = plain.union, plain.iou, plain.d_union, plain.d_iou

    # --- enclosing box (every base but iou) ----------------------------------
    if base != "iou":
        ext = np.maximum(a_hi, g_hi) - np.minimum(a_lo, g_lo)  # (cw, ch)
        c_area = ext[0] * ext[1]
        c_diag = ext[0] * ext[0] + ext[1] * ext[1]
        if with_grad:
            u_hi = _pick(g_hi, a_hi)  # max(a_hi, g_hi) picks the anchor edge
            u_lo = _pick(a_lo, g_lo)  # min(a_lo, g_lo) picks the anchor edge
            d_ext = (u_hi - u_lo, (u_hi + u_lo) * 0.5)

    # --- base loss: partials dc (center) and ds (sides) ----------------------
    terms: dict[str, np.ndarray | float] = {}

    if base == "iou":
        ov = plain if aux is None else aux
        loss = 1.0 - ov.iou
        if with_grad:
            dc, ds = -ov.d_iou[0], -ov.d_iou[1]
    elif base == "giou":
        loss = 1.0 - iou + (c_area - union) / c_area
        if with_grad:
            d_c_area = [d * ext[::-1] for d in d_ext]
            dc, ds = (
                -di - (du * c_area - union * dca) / (c_area * c_area)
                for di, du, dca in zip(d_iou, d_union, d_c_area)
            )
    elif base in ("diou", "ciou", "eiou"):
        off = a[:2] - g[:2]
        rho2 = off[0] * off[0] + off[1] * off[1]
        loss = 1.0 - iou + rho2 / c_diag
        if with_grad:
            d_c_diag = [2.0 * (ext * d) for d in d_ext]
            cd2 = c_diag * c_diag
            dc = -d_iou[0] + (2.0 * off * c_diag - rho2 * d_c_diag[0]) / cd2
            ds = -d_iou[1] - rho2 * d_c_diag[1] / cd2
        if base == "ciou":
            aw, ah = a[2], a[3]
            q = np.arctan(g[2] / g[3]) - np.arctan(aw / ah)
            v = _K_ASPECT * q * q
            alpha = v / np.maximum((1.0 - iou) + v, EPSILON)
            loss = loss + alpha * v
            terms["v"] = v
            terms["alpha"] = alpha
            if with_grad:
                d_v = 2.0 * _K_ASPECT * q * np.stack((-ah, aw)) / (aw * aw + ah * ah)
                ds = ds + alpha * d_v
        elif base == "eiou":
            side_off = a[2:] - g[2:]
            ext2 = ext * ext
            t = (side_off * side_off) / ext2
            loss = loss + t[0] + t[1]
            if with_grad:
                k = 2.0 * t / ext
                dc = dc - k * d_ext[0]
                ds = ds + (2.0 * side_off / ext2 - k * d_ext[1])
    elif base == "siou":
        off = a[:2] - g[:2]
        absx, absy = np.abs(off)
        dist = np.sqrt(off[0] * off[0] + off[1] * off[1])
        m = np.minimum(absx, absy)
        z = m / (dist + EPSILON)
        angle = 2.0 * z * np.sqrt(1.0 - z * z)  # sin of twice the elevation angle
        gamma = 2.0 - angle
        rho = (off / ext) ** 2
        e = np.exp(-gamma * rho)
        dist_cost = 0.5 * ((1.0 - e[0]) + (1.0 - e[1]))
        sa, sg = a[2:], g[2:]
        omega = np.abs(sa - sg) / np.maximum(sa, sg)
        e_omega = np.exp(-omega)
        f = (1.0 - e_omega) ** SIOU_THETA
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
        if with_grad:
            # m, dist and so gamma depend on the centers only.
            use_x = absx <= absy
            d_m = np.where(np.stack((use_x, ~use_x)), np.sign(off), 0.0)
            pos = dist > 0.0
            safe = np.where(pos, dist, 1.0)
            d_dist = np.where(pos, off / safe, 0.0)
            den = dist + EPSILON
            d_z = np.where(pos, (d_m * den - m * d_dist) / (den * den), 0.0)
            d_gamma = -((2.0 * (1.0 - 2.0 * z * z) / np.sqrt(1.0 - z * z)) * d_z)
            k = 2.0 * rho / ext
            d_rho_c = 2.0 * off / (ext * ext) - k * d_ext[0]
            d_rho_s = -(k * d_ext[1])
            # each axis's distance term also moves with gamma, which both
            # center partials reach
            d_dist_cost_c = 0.5 * (
                e * (gamma * d_rho_c + rho * d_gamma) + e[::-1] * (rho[::-1] * d_gamma)
            )
            d_dist_cost_s = 0.5 * (e * (gamma * d_rho_s))
            d_omega = np.where(sa >= sg, sg / (sa * sa), -1.0 / sg)
            df = SIOU_THETA * (1.0 - e_omega) ** (SIOU_THETA - 1.0) * e_omega
            dc = -d_iou[0] + d_dist_cost_c / 2.0
            ds = -d_iou[1] + (d_dist_cost_s + 0.5 * (df * d_omega)) / 2.0
    else:  # pragma: no cover - LossSpec validates the base name
        raise ValueError(f"unknown base loss {base!r}")

    # --- auxiliary (inner) composition: every base but iou ---------------------
    inner = None if aux is None else aux.iou
    if aux is not None and base != "iou":
        loss = loss + iou - inner
        if with_grad:
            dc, ds = dc + d_iou[0] - aux.d_iou[0], ds + d_iou[1] - aux.d_iou[1]

    grad = np.moveaxis(np.concatenate((dc, ds)), 0, -1) if with_grad else None
    return BatchEval(loss=loss, iou=iou, inner_iou=inner, terms=terms, grad=grad)
