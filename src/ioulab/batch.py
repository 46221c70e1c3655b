"""Vectorized loss evaluation with hand-derived analytic gradients.

Boxes are in center form (x, y, w, h). The public entry :func:`eval_batch`
takes broadcastable (..., 4) arrays, checks every box with
:func:`check_boxes` and copies each into a contiguous (4, n) block of
columns for the unchecked kernels :func:`eval_blocks` and
:func:`iou_blocks`, which take the gt block's :class:`Target`; it alone
knows the caller's shape, and gives each output back in it. A one-column
block broadcasts against the other. The descent and the sweep prepare each
target once and call the kernels directly: a descent state may leave the
domain.

Per-axis layout: ``block[:2]`` holds the centers (x, y) and ``block[2:]``
the sides (w, h). Every overlap, enclosure and offset quantity splits into
an x and a y factor that depends only on that axis's center and side, so it
is one (2, n) array over both axes. A derivative is one (2, 2, n) array
shaped like the gradient's rows: half 0 holds the partials with respect to
the anchor's center (x, y), half 1 those with respect to its sides (w, h).
The (low, high) edges of a box are one such array too, so an operation that
treats both halves alike runs once. The partial of an x factor with respect
to y or h is zero and is never stored; products of the two axes (areas, the
squared diagonal) pick up the other axis's factor through ``[::-1]``.

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

# Rows per kernel call for the callers that split their work. Timed in the
# descent loop with one reused Scratch (high preset, 12 specs, 49,049 cases,
# 2 shared Xeon vCPUs), a gradient call costs 203 ns a pair on 2,048-row
# chunks, 176 on 4,096, 135 on 8,192 and 131 on 16,384. simlab.CHUNK_CASES
# is this constant and fixes the order of the descent's sums, and so the
# bytes of its totals.
BLOCK_ROWS = 8192
# Byte alignment of every Scratch slot: a cache line, and one AVX-512 vector.
# numpy's AVX-512 add or multiply of two (2, 8,192) slots into a third took
# 11.5-12.0 us at malloc's usual 16 mod 64 against 5.6 us aligned (2 shared
# Xeon vCPUs); divide and sqrt did not move.
ALIGN = 64


def check_boxes(boxes, name: str, *, first_row: int = 0) -> np.ndarray:
    """``boxes`` as a float64 (..., 4) array; ValueError if it is not, or if one is outside the domain.

    NaN fails every comparison. The message names ``name`` and, for more
    than one box, the first bad one's flat index plus ``first_row``.
    """
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.shape[-1:] != (4,):
        raise ValueError(f"{name} must have a trailing axis of size 4, got shape {arr.shape}")
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
    """What the kernels read of a (4, n) gt block (:func:`prepare_target`).

    ``plain`` and ``inner`` stack the (x, y) low and high edges and the area, (5, n),
    at ratio 1 and at the spec's inner ratio; ``aspect`` is ciou's arctan(w / h).
    """

    box: np.ndarray
    plain: np.ndarray
    inner: np.ndarray | None
    aspect: np.ndarray | None

    def take(self, cols) -> "Target":
        """The target of the columns ``cols`` of the gt block."""
        return Target._make(None if f is None else np.take(f, cols, axis=-1) for f in self)


class Scratch:
    """Buffers of any dtype (float64 and bool in the kernel) that calls
    reuse, so that a warm call allocates nothing of the block's size.

    :func:`eval_blocks` takes one as ``scratch``, and the CSV writer
    (``csvtext.block_fields``) builds each block's text in one, its columns
    being the block's values. A call starts by freeing every slot. It writes
    each temporary and each output into a slot, and gives a temporary's slot
    back once its value is dead, so that a later value reuses it. The
    outputs stay valid until the scratch's next call; a gradient pass frees
    the rest when it returns, and the caller may take those slots for its
    own temporaries until then, as the descent's step does.

    A slot is a contiguous view of one flat buffer, its ``base``: the
    block's n columns behind ``lead`` leading axes of size 2, (2,) * lead +
    (n,): none for one value per column, one for an (x, y) pair, two for a
    pair of pairs such as a derivative or the (low, high) edges. The writer
    cuts its other shapes, such as (n, 6) digit groups or a block's bytes,
    from the front of a larger slot. The views are reshaped only when the
    column count changes, and the buffers grow to the largest block seen,
    plus the few items it takes to start every slot on an ``ALIGN``-byte
    boundary. One scratch serves one thread at a time.
    """

    def __init__(self) -> None:
        self._size = 0  # columns each buffer holds
        self._cols: int | None = None
        self._slots: dict[tuple, list[np.ndarray]] = {}  # (lead, dtype) -> every slot
        self._free: dict[tuple, list[np.ndarray]] = {}

    def start(self, cols: int) -> "Scratch":
        """Free every slot and shape the slots to blocks of ``cols`` columns."""
        if cols != self._cols:
            if cols > self._size:
                # an earlier call's outputs keep their old buffers alive
                self._size, self._slots, self._free = cols, {}, {}
            self._cols = cols
            for (lead, _), slots in self._slots.items():
                slots[:] = [_aligned(slot.base, lead, cols) for slot in slots]
        self.release()
        return self

    def _key(self, slot: np.ndarray) -> tuple:
        return slot.ndim - 1, slot.dtype.type

    def release(self, *keep: np.ndarray | None) -> None:
        """Free every slot but those in ``keep``."""
        for key, slots in self._slots.items():
            self._free[key][:] = slots
        for kept in keep:
            if kept is not None:
                free = self._free[self._key(kept)]
                free[:] = [slot for slot in free if slot is not kept]

    def take(self, lead: int = 1, dtype=np.float64) -> np.ndarray:
        """A free float64 slot with ``lead`` leading axes of size 2, or of ``dtype``."""
        free = self._free.setdefault((lead, dtype), [])
        if free:
            return free.pop()
        pad = ALIGN // np.dtype(dtype).itemsize - 1
        slot = _aligned(np.empty((self._size << lead) + pad, dtype), lead, self._cols)
        self._slots.setdefault((lead, dtype), []).append(slot)
        return slot

    def give(self, *slots: np.ndarray | None) -> None:
        """Free ``slots``, each taken since the last start and not given back since; skip None."""
        for slot in slots:
            if slot is not None:
                self._free[self._key(slot)].append(slot)


def _aligned(flat: np.ndarray, lead: int, cols: int) -> np.ndarray:
    """The (2,) * lead + (cols,) view of ``flat`` that starts at its first ``ALIGN``-byte boundary."""
    skip = -flat.__array_interface__["data"][0] % ALIGN // flat.itemsize
    return flat[skip : skip + (cols << lead)].reshape((2,) * lead + (cols,))


def _started(scratch: Scratch | None, a: np.ndarray, g: np.ndarray) -> Scratch:
    # A fresh scratch when the caller passes none, so nothing it returns is
    # shared with another call's results. A one-column block broadcasts, so
    # against one gt column an empty anchor block stays empty.
    cols = a.shape[1] if g.shape[1] == 1 else g.shape[1]
    return (Scratch() if scratch is None else scratch).start(cols)


def _pick(u: np.ndarray, v: np.ndarray, w: np.ndarray, le: np.ndarray) -> np.ndarray:
    # Derivative weight of min(u, v) w.r.t. u, and of max(v, u) w.r.t. v:
    # 1, 1/2 or 0 as u <, == or > v, so ties get the averaged value. Into
    # ``w``, with ``le`` for the bool temporary; the weights are exact.
    np.less(u, v, out=w)
    w += np.less_equal(u, v, out=le)
    w *= 0.5
    return w


def _blocks(anchors, gts) -> tuple:
    """The broadcast leading shape of both box arrays, checked by :func:`check_boxes`,
    then each as a contiguous (4, n) block: one box stays a (4, 1) column for
    the kernel to broadcast, and any other input is broadcast to the shape first."""
    a, g = check_boxes(anchors, "anchors"), check_boxes(gts, "gts")
    try:
        shape = np.broadcast_shapes(a.shape[:-1], g.shape[:-1])
    except ValueError:
        raise ValueError(f"anchors of shape {a.shape} and gts of shape {g.shape} do not broadcast") from None
    return shape, *(
        np.ascontiguousarray((arr if arr.size == 4 else np.broadcast_to(arr, (*shape, 4))).reshape(-1, 4).T)
        for arr in (a, g)
    )


def _edges(box: np.ndarray, r: float, out: np.ndarray | None = None) -> np.ndarray:
    # The (low, high) edges c -+ (w * r) / 2 of a (4, n) block as one (2, 2, n)
    # array, into ``out``; c -+ w / 2 at r == 1, as w * 1.0 == w
    lo, hi = out = np.empty((2, *box[2:].shape)) if out is None else out
    if r == 1.0:
        np.divide(box[2:], 2.0, out=hi)
    else:
        np.multiply(box[2:], r, out=hi)
        hi /= 2.0
    np.subtract(box[:2], hi, out=lo)
    np.add(box[:2], hi, out=hi)
    return out


def prepare_target(g: np.ndarray, spec: "LossSpec") -> Target:
    """The :class:`Target` of the (4, n) gt block ``g`` under ``spec`` (unchecked).
    A target does not move: build it once."""
    def scaled(r):
        edges = _edges(g, r)
        side = edges[1] - edges[0]  # corner-derived, as the anchor's in _overlap
        return np.concatenate((*edges, (side[0] * side[1])[None]))

    inner = None if spec.inner is None else scaled(spec.inner)
    aspect = np.arctan(g[2] / g[3]) if spec.base == "ciou" else None
    return Target(g, scaled(1.0), inner, aspect)


def _overlap(a: np.ndarray, gt, r: float, with_grad: bool, s: Scratch, enclose: bool = False) -> tuple:
    """IoU of the (4, n) anchor block ``a`` and a target's (5, n) edges and area ``gt`` at ratio ``r``.

    This is the one overlap computation: the plain overlap is ``r == 1``,
    and since ``w * 1.0 == w`` an auxiliary ratio of 1 reproduces it bit for
    bit. Returns ``(union, iou, d_union, d_iou, ext, d_ext)``: the
    derivatives with ``with_grad``, and with ``enclose`` the enclosing box's
    sides ``ext`` and, with ``with_grad``, their derivative. Every array it
    returns is a slot of the started scratch ``s``; it gives back the rest.
    Its float operations are those of the reference kernel, as
    :func:`eval_blocks` says.
    """
    take, give = s.take, s.give
    g_lo, g_hi, g_area = gt[:2], gt[2:4], gt[4]
    edges = _edges(a, r, take(2))
    a_lo, a_hi = edges
    raw, ov = extents = take(2)
    np.minimum(a_hi, g_hi, out=raw)
    raw -= np.maximum(a_lo, g_lo, out=ov)
    np.maximum(raw, 0.0, out=ov)
    inter = np.multiply(ov[0], ov[1], out=take(0))
    # Corner-derived side lengths: as the areas' sides they keep inter <= union in
    # floats (so iou <= 1, and exactly 1 on bitwise-identical boxes) and make
    # bitwise-coincident pairs exact stationary points of every loss.
    a_side = np.subtract(a_hi, a_lo, out=take())
    union = np.multiply(a_side[0], a_side[1], out=take(0))
    union += g_area
    union -= inter
    iou = np.divide(inter, union, out=take(0))
    if with_grad:
        # the tie weights (w_lo, w_hi) of max(a_lo, g_lo) and min(a_hi, g_hi)
        le = take(1, np.bool_)
        weights = take(2)
        _pick(g_lo, a_lo, weights[0], le)
        _pick(a_hi, g_hi, weights[1], le)
        give(le)
    ext = None
    if enclose:
        ext = np.maximum(a_hi, g_hi, out=take())
        ext -= np.minimum(a_lo, g_lo, out=a_lo)
    give(edges)
    if not with_grad:
        give(extents, inter, a_side)
        return union, iou, None, None, ext, None

    # d_iou starts as d_inter, from the tie weights and the open (raw > 0) axes
    w_lo, w_hi = weights
    d_iou = take(2)
    np.subtract(w_hi, w_lo, out=d_iou[0])
    np.add(w_hi, w_lo, out=d_iou[1])
    d_ext = None
    if enclose:
        # max(a_hi, g_hi) picks the anchor edge with weight 1 - w_hi, min(a_lo, g_lo) with 1 - w_lo
        d_ext = weights
        np.subtract(w_lo, w_hi, out=w_lo)
        np.multiply(d_iou[1], 0.5, out=w_hi)
        np.subtract(1.0, w_hi, out=w_hi)
    else:
        give(weights)
    # A bool-to-float cast is several times faster than np.where on arrays this size.
    d_iou *= np.greater(raw, 0.0, out=raw)
    d_iou[1] *= r / 2.0
    d_iou *= ov[::-1]
    give(extents)
    if r != 1.0:  # a_side * 1.0 == a_side
        a_side *= r
    d_union = take(2)
    np.negative(d_iou[0], out=d_union[0])
    np.subtract(a_side[::-1], d_iou[1], out=d_union[1])
    union2 = np.multiply(union, union, out=take(0))
    d_iou *= union
    for di, du in zip(d_iou, d_union):
        di -= np.multiply(inter, du, out=a_side)
    d_iou /= union2
    give(a_side, union2, inter)
    return union, iou, d_union, d_iou, ext, d_ext


def eval_batch(spec: "LossSpec", anchors, gts, *, with_grad: bool = True) -> BatchEval:
    """Evaluate ``spec`` over broadcastable (..., 4) box arrays; ValueError outside the domain.

    Every field is filled: ``with_grad`` adds the gradient pass's ``grad`` to
    the forward pass's outputs, each in the inputs' broadcast leading shape.
    Each call returns arrays of its own.
    """
    shape, a, g = _blocks(anchors, gts)
    target = prepare_target(g, spec)
    ev = eval_blocks(spec, a, target, with_grad=False)
    if with_grad:
        ev.grad = eval_blocks(spec, a, target, with_grad=True).grad.reshape(*shape, 4)

    def shaped(v):  # ``[()]`` gives one pair's numpy scalars
        return v.reshape(shape)[()] if isinstance(v, np.ndarray) else v

    ev.loss, ev.iou, ev.inner_iou = shaped(ev.loss), shaped(ev.iou), shaped(ev.inner_iou)
    ev.terms = {k: shaped(v) for k, v in ev.terms.items()}
    return ev


def iou_blocks(a: np.ndarray, target: Target) -> np.ndarray:
    """Plain IoU of the (4, n) anchor block ``a`` and a prepared target (unchecked)."""
    return _overlap(a, target.plain, 1.0, False, _started(None, a, target.box))[1]


def eval_blocks(
    spec: "LossSpec", a: np.ndarray, target: Target, *, with_grad: bool = True,
    scratch: Scratch | None = None,
) -> BatchEval:
    """One pass of ``spec`` on the (4, n) anchor block ``a`` and ``prepare_target(g, spec)`` (unchecked).

    The forward pass (``with_grad=False``) gives ``loss``, ``iou``,
    ``inner_iou`` and ``terms``; the gradient pass gives ``iou``,
    ``inner_iou`` and ``grad``, with ``loss`` None and ``terms`` empty.
    ``grad`` is (n, 4). With a ``scratch``, the arrays are its slots (see
    :class:`Scratch`).

    The gradient pass writes every value of the block's size into a slot.
    ``reference_blocks`` in ``tests/helpers.py`` states each value as one
    plain numpy expression on fresh arrays. Each ``out=`` and in-place
    operation here is the same float operation on the same operands, at most
    a product or a sum with its two operands the other way round, which IEEE
    arithmetic leaves bit for bit; ``tests/test_batch.py::TestReference``
    holds every output byte of both passes to the reference.
    """
    s = _started(scratch, a, target.box)
    take, give = s.take, s.give
    base, g, enclose = spec.base, target.box, spec.base != "iou"

    # --- overlaps, and the enclosing box for every base but iou ---------------
    inner = d_inner = None
    if spec.inner is not None:
        union, inner, d_union, d_inner, _, _ = _overlap(a, target.inner, spec.inner, with_grad, s)
        give(union, d_union)
    # The iou base with a ratio is 1 - (auxiliary overlap), so its plain
    # overlap only reports ``iou`` and needs no gradient.
    union, iou, d_union, d_iou, ext, d_ext = _overlap(
        a, target.plain, 1.0, with_grad and (enclose or inner is None), s, enclose
    )
    if base != "giou":
        give(union, d_union)

    # --- base loss: the gradient pass builds only what its (center, side) ------
    # halves read, starting from minus the base's overlap derivative, in that
    # derivative's slot unless the inner composition reads it again; the loss
    # and its terms are the forward pass's.
    loss = grad = None
    terms: dict[str, np.ndarray | float] = {}
    if with_grad:
        d_ov = d_inner if d_iou is None else d_iou
        grad = np.negative(d_ov, out=take(2) if enclose and inner is not None else d_ov)

    if base not in ("iou", "giou"):
        # the centre offset and its squared length, read by every distance penalty
        off = np.subtract(a[:2], g[:2], out=take())
        t1 = take(0)
        rho2 = np.multiply(off[0], off[0], out=take(0))
        rho2 += np.multiply(off[1], off[1], out=t1)

    if base == "iou":
        if not with_grad:
            loss = 1.0 - (iou if inner is None else inner)
    elif base == "giou":
        c_area = np.multiply(ext[0], ext[1], out=take(0))
        if with_grad:
            d_ext *= ext[::-1]
            d_union *= c_area
            np.multiply(union, d_ext, out=d_ext)
            d_union -= d_ext
            d_union /= np.multiply(c_area, c_area, out=c_area)
            grad -= d_union
        else:
            loss = 1.0 - iou + (c_area - union) / c_area
    elif base in ("diou", "ciou", "eiou"):
        # the center-distance penalty rho2 / c_diag, shared by the three
        c_diag = np.multiply(ext[0], ext[0], out=take(0))
        c_diag += np.multiply(ext[1], ext[1], out=t1)
        if with_grad:
            # eiou reads d_ext again
            d_c_diag = np.multiply(ext, d_ext, out=take(2) if base == "eiou" else d_ext)
            np.multiply(2.0, d_c_diag, out=d_c_diag)
            cd2 = np.multiply(c_diag, c_diag, out=t1)
            np.multiply(2.0, off, out=off)
            off *= c_diag
            d_c_diag *= rho2
            np.subtract(off, d_c_diag[0], out=d_c_diag[0])
            d_c_diag /= cd2
            grad[0] += d_c_diag[0]
            grad[1] -= d_c_diag[1]
            give(off, d_c_diag)
        else:
            loss = 1.0 - iou + rho2 / c_diag
        if base == "ciou":
            # the aspect term alpha * v, with alpha held constant
            aw, ah = a[2], a[3]
            q = np.divide(aw, ah, out=take(0))
            np.arctan(q, out=q)
            np.subtract(target.aspect, q, out=q)
            v = np.multiply(_K_ASPECT, q, out=take(0))
            v *= q
            alpha = np.subtract(1.0, iou, out=take(0))
            alpha += v
            np.maximum(alpha, EPSILON, out=alpha)
            np.divide(v, alpha, out=alpha)
            if with_grad:
                d_v = take()
                np.negative(ah, out=d_v[0])
                d_v[1] = aw
                np.multiply(2.0 * _K_ASPECT, q, out=q)
                d_v *= q
                np.multiply(aw, aw, out=q)
                q += np.multiply(ah, ah, out=v)
                d_v /= q
                d_v *= alpha
                grad[1] += d_v
            else:
                loss = loss + alpha * v
                terms.update(v=v, alpha=alpha)
        elif base == "eiou":
            # the side penalties (side_off / ext) ** 2
            side_off = np.subtract(a[2:], g[2:], out=take())
            ext2 = np.multiply(ext, ext, out=take())
            t = np.multiply(side_off, side_off, out=take())
            t /= ext2
            if with_grad:
                k = np.multiply(2.0, t, out=t)
                k /= ext
                d_ext *= k
                grad[0] -= d_ext[0]
                np.multiply(2.0, side_off, out=side_off)
                side_off /= ext2
                side_off -= d_ext[1]
                grad[1] += side_off
            else:
                loss = loss + t[0] + t[1]
    elif base == "siou":
        # the angle, distance and shape costs
        absoff = np.abs(off, out=take())
        absx, absy = absoff
        dist = np.sqrt(rho2, out=rho2)
        m = np.minimum(absx, absy, out=t1)
        den = np.add(dist, EPSILON, out=take(0))
        z = np.divide(m, den, out=take(0))
        root = np.multiply(z, z, out=take(0))
        np.subtract(1.0, root, out=root)
        np.sqrt(root, out=root)
        angle = np.multiply(2.0, z, out=take(0))  # sin of twice the elevation angle
        angle *= root
        gamma = np.subtract(2.0, angle, out=take(0))
        rho = np.divide(off, ext, out=take())
        np.square(rho, out=rho)
        # past gamma, the gradient pass reads no angle
        neg_gamma = np.negative(gamma, out=angle if with_grad else take(0))
        e = np.multiply(neg_gamma, rho, out=take())
        np.exp(e, out=e)
        sa, sg = a[2:], g[2:]
        omega = np.subtract(sa, sg, out=take())
        np.abs(omega, out=omega)
        e_omega = np.maximum(sa, sg, out=take())
        omega /= e_omega
        np.negative(omega, out=e_omega)
        np.exp(e_omega, out=e_omega)
        shape_base = np.subtract(1.0, e_omega, out=omega if with_grad else take())
        if with_grad:
            df = np.power(shape_base, SIOU_THETA - 1.0, out=shape_base)
            np.multiply(SIOU_THETA, df, out=df)
            df *= e_omega
            give(e_omega)
            # m, dist and so gamma depend on the centers only. d_m is sign(off) on
            # m's axis, else 0: comparisons give a masked np.sign's bits in a sixth of its time.
            pick, sign = take(1, np.bool_), take(1, np.bool_)
            np.less_equal(absx, absy, out=pick[0])
            np.logical_not(pick[0], out=pick[1])
            give(absoff)
            d_m = take()
            np.copyto(d_m, np.logical_and(np.greater(off, 0.0, out=sign), pick, out=sign))
            d_m -= np.logical_and(np.less(off, 0.0, out=sign), pick, out=sign)
            give(pick, sign)
            pos = np.greater(dist, 0.0, out=take(0, np.bool_))
            # A ufunc's where= leaves out untouched where the condition fails, so
            # out starts at zero, as np.where(cond, value, 0.0) would, but faster.
            d_dist = take()
            d_dist.fill(0.0)
            np.divide(off, dist, out=d_dist, where=pos)
            # d_z goes to d_dist's slot: where pos fails, it holds m * d_dist = 0 * 0
            d_m *= den
            d_m -= np.multiply(m, d_dist, out=d_dist)
            np.multiply(den, den, out=den)
            d_z = np.divide(d_m, den, out=d_dist, where=pos)
            give(d_m, m, pos)
            np.multiply(2.0, z, out=den)
            den *= z
            np.subtract(1.0, den, out=den)
            np.multiply(2.0, den, out=den)
            den /= root
            d_gamma = np.multiply(den, d_z, out=d_z)
            np.negative(d_gamma, out=d_gamma)
            give(den, z, root)
            k = np.multiply(2.0, rho, out=take())
            k /= ext
            d_rho = np.multiply(k, d_ext, out=d_ext)
            np.multiply(2.0, off, out=off)
            off /= np.multiply(ext, ext, out=ext)
            np.subtract(off, d_rho[0], out=d_rho[0])
            np.negative(d_rho[1], out=d_rho[1])
            # gamma moves both axes' distance terms, and both center partials reach it
            d_cost = np.multiply(gamma, d_rho, out=d_rho)
            d_cost[0] += np.multiply(rho, d_gamma, out=k)
            d_cost *= e
            np.multiply(rho[::-1], d_gamma, out=k)
            d_cost[0] += np.multiply(e[::-1], k, out=k)
            np.multiply(0.5, d_cost, out=d_cost)
            # d_omega is sg / (sa * sa) where sa >= sg, else -1.0 / sg: as the
            # exact blend a * (sa >= sg) + b * (sa < sg) of a >= 0 and b < 0,
            # which needs no temporary and takes half of np.where's time.
            d_omega = np.multiply(sa, sa, out=off)
            np.divide(sg, d_omega, out=d_omega)
            neg = np.divide(-1.0, sg, out=k)
            sel = np.greater_equal(sa, sg, out=take(1, np.bool_))
            d_omega *= sel
            neg *= np.logical_not(sel, out=sel)
            d_omega += neg
            np.multiply(df, d_omega, out=d_omega)
            np.multiply(0.5, d_omega, out=d_omega)
            d_cost[1] += d_omega
            d_cost /= 2.0
            grad += d_cost
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
            grad += d_iou
            grad -= d_inner
        else:
            loss = loss + iou - inner

    if with_grad:
        s.release(iou, inner, grad)
        grad = grad.reshape(4, -1).T
    return BatchEval(loss, iou, inner, terms, grad)
