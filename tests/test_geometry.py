import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioulab import Box, LossSpec, eval_batch, iou_batch
from ioulab.batch import _blocks, _overlap
from ioulab.losses import BaseLoss

from helpers import random_integer_box, raster_iou

# Coordinates bounded so a 1e-2 side never vanishes at the corner round trip.
coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
sides = st.floats(min_value=1e-2, max_value=1e3, allow_nan=False)
ratios = st.floats(min_value=0.5, max_value=1.5, allow_nan=False)


@st.composite
def boxes(draw):
    return Box(draw(coords), draw(coords), draw(sides), draw(sides))


def iou(a: Box, b: Box) -> float:
    return float(iou_batch(a.as_tuple(), b.as_tuple()))


def inner_iou(a: Box, b: Box, ratio: float) -> float:
    spec = LossSpec("iou", inner=ratio)
    return float(eval_batch(spec, a.as_tuple(), b.as_tuple(), with_grad=False).inner_iou)


def scale_about_center(box: Box, ratio: float) -> Box:
    return Box(box.x, box.y, box.w * ratio, box.h * ratio)


def kernel_corners(box: Box, ratio: float = 1.0) -> tuple[float, ...]:
    """(left, right, top, bottom) of ``box`` as the overlap kernel scales it."""
    block, _ = _blocks(box.as_tuple(), box.as_tuple())
    low, high = _overlap(block, block, ratio, False).edges[:2]
    return tuple(float(v) for v in (low[0], high[0], low[1], high[1]))


def enclosing_losses(a: Box, b: Box) -> tuple[float, float, float]:
    """iou, giou and diou losses; the last two add enclosing-box terms to the first."""
    return tuple(
        float(eval_batch(LossSpec(base), a.as_tuple(), b.as_tuple(), with_grad=False).loss)
        for base in ("iou", "giou", "diou")
    )


class TestBoxValidation:
    def test_fields_coerced_to_float(self):
        b = Box(1, 2, 3, 4)
        assert b.as_tuple() == (1.0, 2.0, 3.0, 4.0)
        assert all(isinstance(v, float) for v in b.as_tuple())

    @pytest.mark.parametrize("w,h", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_nonpositive_sides_rejected(self, w, h):
        with pytest.raises(ValueError, match="positive"):
            Box(0.0, 0.0, w, h)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Box(bad, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Box(0.0, 0.0, bad, 1.0)

    def test_side_below_center_resolution_rejected(self):
        # 1e-20 is far below the float spacing at x = 1e3.
        with pytest.raises(ValueError, match="resolution"):
            Box(1e3, 0.0, 1e-20, 1.0)

    def test_corner_accessors(self):
        b = Box(10.0, 20.0, 4.0, 6.0)
        assert (b.left, b.right, b.top, b.bottom) == (8.0, 12.0, 17.0, 23.0)


class TestCornersAndScaling:
    def test_to_corners_identity_ratio(self):
        left, right, top, bottom = kernel_corners(Box(100.0, 100.0, 8.0, 4.0))
        assert (left, right, top, bottom) == (96.0, 104.0, 98.0, 102.0)
        assert (right - left, bottom - top) == (8.0, 4.0)

    def test_to_corners_scaled(self):
        assert kernel_corners(Box(100.0, 100.0, 8.0, 4.0), 1.5) == (94.0, 106.0, 97.0, 103.0)

    def test_scale_about_center_keeps_center(self):
        left, right, top, bottom = kernel_corners(Box(3.0, -7.0, 10.0, 2.0), 0.5)
        center = ((left + right) / 2.0, (top + bottom) / 2.0)
        assert center + (right - left, bottom - top) == (3.0, -7.0, 5.0, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_bad_ratio_rejected(self, bad):
        # LossSpec is the only way a ratio reaches the kernel, for every base.
        for base in BaseLoss:
            with pytest.raises(ValueError, match="ratio"):
                LossSpec(base, inner=bad)


class TestIou:
    def test_identical_boxes(self):
        b = Box(3.7, -1.2, 5.3, 2.9)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 0, 10, 10)) == 0.0

    def test_touching_edges_count_as_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(10, 0, 10, 10)) == 0.0

    def test_half_overlap_square(self):
        v = iou(Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert v == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_contained_box(self):
        v = iou(Box(0, 0, 10, 10), Box(0, 0, 5, 5))
        assert v == pytest.approx(0.25, abs=1e-15)

    @given(boxes(), boxes())
    @settings(max_examples=300)
    def test_bounds_and_symmetry(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert iou(b, a) == v

    @given(boxes(), boxes(), coords, coords)
    @settings(max_examples=200)
    def test_translation_invariance(self, a, b, dx, dy):
        v0 = iou(a, b)
        v1 = iou(Box(a.x + dx, a.y + dy, a.w, a.h), Box(b.x + dx, b.y + dy, b.w, b.h))
        assert v1 == pytest.approx(v0, abs=1e-9)

    @given(boxes(), boxes(), st.floats(min_value=0.125, max_value=8.0))
    @settings(max_examples=200)
    def test_scale_invariance(self, a, b, k):
        v0 = iou(a, b)
        v1 = iou(Box(a.x * k, a.y * k, a.w * k, a.h * k), Box(b.x * k, b.y * k, b.w * k, b.h * k))
        assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-12)

    def test_matches_cell_counting_on_integer_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = random_integer_box(rng)
            b = random_integer_box(rng)
            assert iou(a, b) == raster_iou(a, b)


class TestEnclosing:
    def test_disjoint_pair(self):
        # enclosing box 30 x 10: area 300, squared diagonal 1000; union 200
        base, giou, diou = enclosing_losses(Box(0, 0, 10, 10), Box(20, 0, 10, 10))
        assert base == 1.0
        assert giou == 1.0 + (300.0 - 200.0) / 300.0
        assert diou == 1.0 + 400.0 / 1000.0

    def test_contained_pair(self):
        # the enclosing box is the outer box itself: area 100 (the union),
        # squared diagonal 200
        base, giou, diou = enclosing_losses(Box(0, 0, 10, 10), Box(1, 1, 2, 2))
        assert giou == base
        assert diou == base + 2.0 / 200.0

    @given(boxes(), boxes())
    @settings(max_examples=200)
    def test_covers_both_boxes(self, a, b):
        # covering both boxes means area >= union and both centers inside
        base, giou, diou = enclosing_losses(a, b)
        assert -1e-9 <= giou - base <= 1.0
        assert -1e-9 <= diou - base <= 1.0 + 1e-9


class TestInnerIou:
    def test_identical_boxes_any_ratio(self):
        b = Box(12.25, -3.5, 7.0, 3.0)
        for r in (0.5, 0.8, 1.0, 1.2, 1.5):
            assert inner_iou(b, b, r) == 1.0

    def test_ratio_one_is_plain_iou(self):
        a, b = Box(0, 0, 10, 10), Box(5, 0.3, 9.0, 10.7)
        assert inner_iou(a, b, 1.0) == iou(a, b)

    def test_shrinking_can_break_overlap(self):
        a, b = Box(0, 0, 10, 10), Box(5, 0, 10, 10)
        assert inner_iou(a, b, 0.5) == 0.0
        assert iou(a, b) > 0.0

    def test_growing_can_create_overlap(self):
        a, b = Box(0, 0, 10, 10), Box(11, 0, 10, 10)
        assert iou(a, b) == 0.0
        assert inner_iou(a, b, 1.5) > 0.0

    @given(boxes(), boxes(), ratios)
    @settings(max_examples=300)
    def test_equals_iou_of_scaled_boxes(self, a, b, r):
        expected = iou(scale_about_center(a, r), scale_about_center(b, r))
        assert inner_iou(a, b, r) == expected

    @given(boxes(), boxes(), ratios)
    @settings(max_examples=200)
    def test_bounds(self, a, b, r):
        v = inner_iou(a, b, r)
        assert 0.0 <= v <= 1.0
