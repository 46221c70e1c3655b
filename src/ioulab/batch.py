"""Vectorized loss evaluation with hand-derived analytic gradients.

Inputs are float64 arrays of shape (..., 4) holding boxes in center form
(x, y, w, h); outputs broadcast over the leading dimensions. This module is
the single implementation behind both the scalar API in :mod:`ioulab.losses`
and the bulk simulation loop, so the two can never drift apart.

Subgradient conventions at the non-smooth points:

* a clamped overlap contributes zero gradient on the clamped side
  (``max(0, raw)`` with ``raw <= 0``);
* min/max ties average the two one-sided derivatives (weight 1/2), which
  makes coincident boxes exact stationary points of every loss;
* the center-angle term has zero gradient at coincident centers.

The aspect-weight ``alpha`` of the ciou loss is treated as a constant at the
evaluation point, so gradients do not differentiate through it; callers that
check gradients by finite differences must freeze it the same way (see
``alpha_override``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .losses import LossSpec

_K_ASPECT = 4.0 / np.pi**2


@dataclass
class BatchEval:
    """Arrays produced by :func:`eval_batch`; gradient axes are (..., 4)."""

    loss: np.ndarray
    iou: np.ndarray
    inner_iou: np.ndarray | None
    terms: dict[str, np.ndarray]
    grad: np.ndarray | None


class _Overlap(NamedTuple):
    """Overlap of both boxes scaled about their centers by one ratio.

    ``corners`` are the scaled (al, ar, at, ab, gl, gr, gt, gb) and ``picks``
    the derivative weights of the four clamped edges (see :func:`_pick`);
    ``picks``, ``d_union`` and ``d_iou`` are None without the gradient.
    Derivatives are (4, ...) stacks over the anchor's (x, y, w, h).
    """

    corners: tuple[np.ndarray, ...]
    union: np.ndarray
    iou: np.ndarray
    picks: tuple[np.ndarray, ...] | None
    d_union: np.ndarray | None
    d_iou: np.ndarray | None


def _pick(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Derivative weight of min(u, v) w.r.t. u; ties get the averaged value.
    # The same expression with swapped arguments serves max(u, v) w.r.t. v.
    return 0.5 * (np.sign(v - u) + 1.0)


def _unpack(boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.shape[-1] != 4:
        raise ValueError(f"boxes must have a trailing axis of size 4, got shape {arr.shape}")
    return arr[..., 0], arr[..., 1], arr[..., 2], arr[..., 3]


def _v4(shape, dx=None, dy=None, dw=None, dh=None) -> np.ndarray:
    # Dense (4, *shape) derivative stack; missing components are zero.
    comps = []
    for c in (dx, dy, dw, dh):
        if c is None:
            comps.append(np.zeros(shape))
        else:
            comps.append(np.broadcast_to(np.asarray(c, dtype=np.float64), shape))
    return np.stack(comps)


def _overlap(a, g, shape, r: float, with_grad: bool) -> _Overlap:
    """IoU of the anchor and gt boxes ``a``/``g`` (x, y, w, h) scaled by ``r``.

    This is the one overlap computation: the plain overlap is ``r == 1``,
    and since ``w * 1.0 == w`` an auxiliary ratio of 1 reproduces it bit for
    bit.
    """
    def edges(center, side):
        half = (side * r) / 2.0
        return center - half, center + half

    ax, ay, aw, ah = a
    gx, gy, gw, gh = g
    al, ar = edges(ax, aw)
    at, ab = edges(ay, ah)
    gl, gr = edges(gx, gw)
    gt, gb = edges(gy, gh)
    corners = (al, ar, at, ab, gl, gr, gt, gb)

    iw_raw = np.minimum(ar, gr) - np.maximum(al, gl)
    ih_raw = np.minimum(ab, gb) - np.maximum(at, gt)
    iw = np.maximum(iw_raw, 0.0)
    ih = np.maximum(ih_raw, 0.0)
    inter = iw * ih
    # Corner-derived side lengths; using them for the areas keeps
    # inter <= union in floats (so iou <= 1, and exactly 1 on
    # bitwise-identical boxes) and makes bitwise-coincident pairs exact
    # stationary points of every loss.
    sw, sh = ar - al, ab - at
    union = sw * sh + (gr - gl) * (gb - gt) - inter
    iou = inter / union
    if not with_grad:
        return _Overlap(corners, union, iou, None, None, None)

    w_r = _pick(ar, gr)  # min(ar, gr) picks the anchor edge
    w_l = _pick(gl, al)  # max(al, gl) picks the anchor edge
    w_b = _pick(ab, gb)
    w_t = _pick(gt, at)
    open_w = np.where(iw_raw > 0.0, 1.0, 0.0)
    open_h = np.where(ih_raw > 0.0, 1.0, 0.0)
    d_iw = _v4(shape, dx=open_w * (w_r - w_l), dw=open_w * (w_r + w_l) * (r / 2.0))
    d_ih = _v4(shape, dy=open_h * (w_b - w_t), dh=open_h * (w_b + w_t) * (r / 2.0))
    d_inter = d_iw * ih + iw * d_ih
    d_union = _v4(shape, dw=sh * r, dh=sw * r) - d_inter
    d_iou = (d_inter * union - inter * d_union) / (union * union)
    return _Overlap(corners, union, iou, (w_r, w_l, w_b, w_t), d_union, d_iou)


def iou_batch(anchors, gts) -> np.ndarray:
    """Plain IoU over broadcastable (..., 4) center-form arrays."""
    a, g = _unpack(anchors), _unpack(gts)
    return _overlap(a, g, None, 1.0, False).iou


def eval_batch(
    spec: "LossSpec",
    anchors,
    gts,
    *,
    with_grad: bool = True,
    alpha_override: np.ndarray | float | None = None,
    angle_override: np.ndarray | float | None = None,
) -> BatchEval:
    """Evaluate ``spec`` over broadcastable box arrays.

    ``alpha_override``/``angle_override`` substitute the ciou aspect weight
    and the siou angle cost with fixed values; they exist so that finite
    difference probes can hold those terms at the center point.
    """
    a, g = _unpack(anchors), _unpack(gts)
    ax, ay, aw, ah = a
    gx, gy, gw, gh = g
    shape = np.broadcast_shapes(ax.shape, gx.shape)

    v4 = partial(_v4, shape)

    base = spec.base
    eps = spec.epsilon

    # --- overlap -----------------------------------------------------------
    plain = _overlap(a, g, shape, 1.0, with_grad)
    al, ar, at, ab, gl, gr, gt, gb = plain.corners
    union, iou, d_union, d_iou = plain.union, plain.iou, plain.d_union, plain.d_iou

    # --- enclosing box ------------------------------------------------------
    cw = np.maximum(ar, gr) - np.minimum(al, gl)
    ch = np.maximum(ab, gb) - np.minimum(at, gt)
    c_area = cw * ch
    c_diag = cw * cw + ch * ch

    d_cw = d_ch = None
    if with_grad:
        w_r, w_l, w_b, w_t = plain.picks
        u_r = 1.0 - w_r  # max(ar, gr) picks the anchor edge
        u_l = 1.0 - w_l
        u_b = 1.0 - w_b
        u_t = 1.0 - w_t
        d_cw = v4(dx=u_r - u_l, dw=(u_r + u_l) * 0.5)
        d_ch = v4(dy=u_b - u_t, dh=(u_b + u_t) * 0.5)

    # --- base loss ----------------------------------------------------------
    terms: dict[str, np.ndarray] = {}
    d_base = None

    if base == "iou":
        loss = 1.0 - iou
        if with_grad:
            d_base = -d_iou
    elif base == "giou":
        loss = 1.0 - iou + (c_area - union) / c_area
        if with_grad:
            d_c_area = d_cw * ch + cw * d_ch
            d_pen = -(d_union * c_area - union * d_c_area) / (c_area * c_area)
            d_base = -d_iou + d_pen
    elif base in ("diou", "ciou", "eiou"):
        offx = ax - gx
        offy = ay - gy
        rho2 = offx * offx + offy * offy
        loss = 1.0 - iou + rho2 / c_diag
        if with_grad:
            d_rho2 = v4(dx=2.0 * offx, dy=2.0 * offy)
            d_c_diag = 2.0 * (cw * d_cw + ch * d_ch)
            d_base = -d_iou + (d_rho2 * c_diag - rho2 * d_c_diag) / (c_diag * c_diag)
        if base == "ciou":
            q = np.arctan(gw / gh) - np.arctan(aw / ah)
            v = _K_ASPECT * q * q
            if alpha_override is not None:
                alpha = np.broadcast_to(np.asarray(alpha_override, dtype=np.float64), shape)
            else:
                alpha = v / np.maximum((1.0 - iou) + v, eps)
            loss = loss + alpha * v
            terms["v"] = v
            terms["alpha"] = alpha
            if with_grad:
                s2 = aw * aw + ah * ah
                d_v = v4(dw=-2.0 * _K_ASPECT * q * ah / s2, dh=2.0 * _K_ASPECT * q * aw / s2)
                d_base = d_base + alpha * d_v
        elif base == "eiou":
            dw_off = aw - gw
            dh_off = ah - gh
            cw2 = cw * cw
            ch2 = ch * ch
            tw = (dw_off * dw_off) / cw2
            th = (dh_off * dh_off) / ch2
            loss = loss + tw + th
            if with_grad:
                d_tw = v4(dw=2.0 * dw_off / cw2) - (2.0 * tw / cw) * d_cw
                d_th = v4(dh=2.0 * dh_off / ch2) - (2.0 * th / ch) * d_ch
                d_base = d_base + d_tw + d_th
    elif base == "siou":
        offx = ax - gx
        offy = ay - gy
        absx = np.abs(offx)
        absy = np.abs(offy)
        dist = np.sqrt(offx * offx + offy * offy)
        m = np.minimum(absx, absy)
        z = m / (dist + eps)
        if angle_override is not None:
            angle = np.broadcast_to(np.asarray(angle_override, dtype=np.float64), shape)
        else:
            angle = 2.0 * z * np.sqrt(1.0 - z * z)  # sin of twice the elevation angle
        gamma = 2.0 - angle
        rho_x = (offx / cw) ** 2
        rho_y = (offy / ch) ** 2
        ex = np.exp(-gamma * rho_x)
        ey = np.exp(-gamma * rho_y)
        half = 0.5 if spec.siou_half_terms else 1.0
        dist_cost = half * ((1.0 - ex) + (1.0 - ey))
        omega_w = np.abs(aw - gw) / np.maximum(aw, gw)
        omega_h = np.abs(ah - gh) / np.maximum(ah, gh)
        theta = spec.theta
        if spec.siou_positive_shape_exp:
            fw = (1.0 - np.exp(omega_w)) ** theta
            fh = (1.0 - np.exp(omega_h)) ** theta
        else:
            fw = (1.0 - np.exp(-omega_w)) ** theta
            fh = (1.0 - np.exp(-omega_h)) ** theta
        shape_cost = half * (fw + fh)
        loss = 1.0 - iou + (dist_cost + shape_cost) / 2.0
        terms.update(
            angle_cost=angle,
            gamma=gamma,
            distance_cost=dist_cost,
            shape_cost=shape_cost,
            rho_x=rho_x,
            rho_y=rho_y,
            omega_w=omega_w,
            omega_h=omega_h,
        )
        if with_grad:
            if spec.freeze_angle or angle_override is not None:
                d_gamma = v4()
            else:
                use_x = absx <= absy
                d_m = v4(
                    dx=np.where(use_x, np.sign(offx), 0.0),
                    dy=np.where(use_x, 0.0, np.sign(offy)),
                )
                pos = dist > 0.0
                safe = np.where(pos, dist, 1.0)
                d_dist = v4(dx=np.where(pos, offx / safe, 0.0), dy=np.where(pos, offy / safe, 0.0))
                den = dist + eps
                d_z = np.where(pos, (d_m * den - m * d_dist) / (den * den), 0.0)
                d_angle = (2.0 * (1.0 - 2.0 * z * z) / np.sqrt(1.0 - z * z)) * d_z
                d_gamma = -d_angle
            d_rho_x = v4(dx=2.0 * offx / (cw * cw)) - (2.0 * rho_x / cw) * d_cw
            d_rho_y = v4(dy=2.0 * offy / (ch * ch)) - (2.0 * rho_y / ch) * d_ch
            d_dist_cost = half * (
                ex * (gamma * d_rho_x + rho_x * d_gamma) + ey * (gamma * d_rho_y + rho_y * d_gamma)
            )
            d_omega_w = np.where(aw >= gw, gw / (aw * aw), -1.0 / gw)
            d_omega_h = np.where(ah >= gh, gh / (ah * ah), -1.0 / gh)
            if spec.siou_positive_shape_exp:
                dfw = -theta * (1.0 - np.exp(omega_w)) ** (theta - 1.0) * np.exp(omega_w)
                dfh = -theta * (1.0 - np.exp(omega_h)) ** (theta - 1.0) * np.exp(omega_h)
            else:
                dfw = theta * (1.0 - np.exp(-omega_w)) ** (theta - 1.0) * np.exp(-omega_w)
                dfh = theta * (1.0 - np.exp(-omega_h)) ** (theta - 1.0) * np.exp(-omega_h)
            d_shape_cost = half * v4(dw=dfw * d_omega_w, dh=dfh * d_omega_h)
            d_base = -d_iou + (d_dist_cost + d_shape_cost) / 2.0
    else:  # pragma: no cover - LossSpec validates the base name
        raise ValueError(f"unknown base loss {base!r}")

    # --- auxiliary (inner) composition ---------------------------------------
    inner = None
    d_inner = None
    if spec.inner is not None:
        aux = _overlap(a, g, shape, spec.inner, with_grad)
        inner, d_inner = aux.iou, aux.d_iou
        if base == "iou":
            loss = 1.0 - inner
        else:
            loss = loss + iou - inner

    grad = None
    if with_grad:
        if spec.inner is None:
            d_loss = d_base
        elif base == "iou":
            d_loss = -d_inner
        else:
            d_loss = d_base + d_iou - d_inner
        grad = np.moveaxis(d_loss, 0, -1)

    return BatchEval(loss=loss, iou=iou, inner_iou=inner, terms=terms, grad=grad)
