import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioulab import (
    BASE_NAMES,
    SCENARIOS,
    LossSpec,
    eval_batch,
    generate_case_arrays,
    iou_batch,
    scenario_config,
)
from ioulab.simlab import CHUNK_CASES
from ioulab.batch import _blocks, _overlap, eval_blocks

from helpers import TEST_RATIOS, random_box, random_integer_box, raster_iou, spec_matrix


def _random_arrays(seed, n):
    rng = np.random.default_rng(seed)
    def draw():
        return np.column_stack(
            [
                rng.uniform(-40, 40, n),
                rng.uniform(-40, 40, n),
                rng.uniform(0.5, 15, n),
                rng.uniform(0.5, 15, n),
            ]
        )
    return draw(), draw()


def _assert_matches(got, want, spec):
    # numpy's vectorized exp/atan kernels may differ from the scalar path
    # by an ulp depending on array size, so the transcendental bases get a
    # few-ulp allowance; the purely arithmetic ones must match bitwise
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if spec.base in ("ciou", "siou"):
        assert np.allclose(got, want, rtol=5e-15, atol=5e-18), (spec.label(), got, want)
    else:
        assert np.array_equal(got, want), (spec.label(), got, want)


class TestOverlapKernels:
    def test_iou_batch_matches_scalar_bitwise(self):
        anchors, gts = _random_arrays(50, 2000)
        batched = iou_batch(anchors, gts)
        for i in range(0, 2000, 37):
            assert batched[i] == iou_batch(anchors[i], gts[i])

    @pytest.mark.parametrize("ratio", TEST_RATIOS)
    def test_inner_iou_batch_matches_scalar_bitwise(self, ratio):
        anchors, gts = _random_arrays(51, 500)
        batched = eval_batch(LossSpec("iou", inner=ratio), anchors, gts, with_grad=False).inner_iou
        scale = np.array([1.0, 1.0, ratio, ratio])
        for i in range(0, 500, 11):
            # the auxiliary overlap is the plain overlap of the rescaled boxes
            assert batched[i] == iou_batch(anchors[i] * scale, gts[i] * scale)

    def test_iou_never_exceeds_one_on_near_coincident_pairs(self):
        rng = np.random.default_rng(52)
        anchors, _ = _random_arrays(53, 20000)
        # adversarial: perturb by a few ulps so the quotient is as close
        # to 1 as float arithmetic allows
        gts = anchors * (1.0 + rng.integers(-4, 5, anchors.shape) * np.finfo(float).eps)
        v = iou_batch(anchors, gts)
        assert np.all(v <= 1.0)
        assert np.all(v >= 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="trailing axis"):
            iou_batch(np.zeros((5, 3)), np.zeros((5, 4)))


class TestEvalBatch:
    def test_matches_single_pair_calls_bitwise(self):
        rng = np.random.default_rng(54)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(40)]
        anchors = np.array([a for a, _ in pairs])
        gts = np.array([g for _, g in pairs])
        for spec in spec_matrix():
            res = eval_batch(spec, anchors, gts, with_grad=True)
            for i in (0, 7, 23, 39):
                single = eval_batch(spec, *pairs[i])
                _assert_matches(res.loss[i], single.loss, spec)
                assert res.iou[i] == single.iou
                if spec.inner is None:
                    assert res.inner_iou is None
                else:
                    assert res.inner_iou[i] == single.inner_iou
                _assert_matches(res.grad[i], single.grad, spec)

    def test_batched_equals_per_row_loop(self):
        anchors, gts = _random_arrays(55, 64)
        for spec in (LossSpec("siou"), LossSpec("ciou", inner=0.8), LossSpec("eiou", inner=1.2)):
            full = eval_batch(spec, anchors, gts, with_grad=True)
            for i in range(0, 64, 9):
                row = eval_batch(spec, anchors[i], gts[i], with_grad=True)
                _assert_matches(full.loss[i], row.loss, spec)
                _assert_matches(full.grad[i], row.grad, spec)

    def test_broadcasting_single_gt(self):
        anchors, gts = _random_arrays(56, 30)
        one_gt = gts[0]
        res = eval_batch(LossSpec("diou"), anchors, one_gt, with_grad=True)
        assert res.loss.shape == (30,)
        assert res.grad.shape == (30, 4)
        explicit = eval_batch(LossSpec("diou"), anchors, np.tile(one_gt, (30, 1)))
        assert np.array_equal(res.loss, explicit.loss)

    def test_nested_shapes(self):
        anchors = np.stack([_random_arrays(57, 3)[0] for _ in range(2)])  # (2, 3, 4)
        gts = np.stack([_random_arrays(58, 3)[1] for _ in range(2)])
        res = eval_batch(LossSpec("giou"), anchors, gts, with_grad=True)
        assert res.loss.shape == (2, 3)
        assert res.grad.shape == (2, 3, 4)
        flat = eval_batch(LossSpec("giou"), anchors.reshape(-1, 4), gts.reshape(-1, 4))
        assert np.array_equal(res.loss.ravel(), flat.loss)
        # lower-rank gts broadcast over the anchors' leading dimensions
        for gt in (gts[0], gts[0, 1]):  # (3, 4) and (4,)
            res = eval_batch(LossSpec("giou"), anchors, gt, with_grad=True)
            assert res.loss.shape == (2, 3)
            assert res.grad.shape == (2, 3, 4)
            tiled = np.broadcast_to(gt, anchors.shape).reshape(-1, 4)
            flat = eval_batch(LossSpec("giou"), anchors.reshape(-1, 4), tiled)
            assert np.array_equal(res.loss.ravel(), flat.loss)
            assert np.array_equal(res.grad.reshape(-1, 4), flat.grad)

    @pytest.mark.parametrize("base", BASE_NAMES)
    def test_strided_and_fortran_inputs_match_contiguous(self, base):
        # Inputs are copied once into contiguous per-axis blocks, so the
        # memory layout of the caller's arrays must not change any byte.
        anchors, gts = _random_arrays(60, 40)
        spec = LossSpec(base, inner=0.8)
        ref = eval_batch(spec, anchors, gts, with_grad=True)
        wide = np.zeros((40, 8))
        wide[:, ::2] = anchors
        for a in (wide[:, ::2], np.asfortranarray(anchors)):
            res = eval_batch(spec, a, np.asfortranarray(gts), with_grad=True)
            assert np.array_equal(res.loss, ref.loss)
            assert np.array_equal(res.inner_iou, ref.inner_iou)
            assert np.array_equal(res.grad, ref.grad)

    def test_without_grad(self):
        anchors, gts = _random_arrays(59, 8)
        res = eval_batch(LossSpec("ciou"), anchors, gts, with_grad=False)
        assert res.grad is None

    @pytest.mark.parametrize("spec", spec_matrix(), ids=str)
    def test_coincident_rows_are_exact_fixed_points(self, spec):
        # messy, non-representable coordinates; identity must still be exact
        anchors = np.array(
            [
                [0.1, 0.2, 0.3, 0.7],
                [-17.3, 9.99, 3.33, 1.07],
                [1e3 / 3.0, -1e2 / 7.0, 11.1, 0.9],
            ]
        )
        res = eval_batch(spec, anchors, anchors.copy(), with_grad=True)
        assert np.all(res.loss == 0.0)
        assert np.all(res.iou == 1.0)
        if res.inner_iou is not None:
            assert np.all(res.inner_iou == 1.0)
        assert np.all(res.grad == 0.0)


class TestRowSubsets:
    """The descent retires frozen cases because the kernel is row-wise bit for bit."""

    @pytest.mark.parametrize(
        "scenario,spec",
        [(name, spec) for name in sorted(SCENARIOS) for spec in scenario_config(name).specs],
        ids=str,
    )
    def test_gathered_rows_match_the_full_chunk(self, scenario, spec):
        # the population reads the preset's radius, n_points and seed, not its step
        anchors, targets = generate_case_arrays(scenario_config(scenario, n_points=24))
        # (4, n) blocks, passed to the kernel the way the descent does
        a, g = anchors[:CHUNK_CASES].T.copy(), targets[:CHUNK_CASES].T.copy()
        rows = np.flatnonzero(np.random.default_rng(7).random(CHUNK_CASES) < 0.15)
        full = eval_blocks(spec, a, g)
        part = eval_blocks(spec, a[:, rows], g[:, rows])
        for name in ("loss", "iou", "inner_iou", "grad"):
            want, got = getattr(full, name), getattr(part, name)
            if want is None:
                assert got is None, name
            else:
                assert got.tobytes() == want[rows].tobytes(), name


# Coordinates bounded so a 1e-2 side never vanishes at the corner round trip.
coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
sides = st.floats(min_value=1e-2, max_value=1e3, allow_nan=False)
ratios = st.floats(min_value=0.5, max_value=1.5, allow_nan=False)


@st.composite
def boxes(draw):
    return (draw(coords), draw(coords), draw(sides), draw(sides))


def iou(a, b) -> float:
    return float(iou_batch(a, b))


def inner_iou(a, b, ratio: float) -> float:
    spec = LossSpec("iou", inner=ratio)
    return float(eval_batch(spec, a, b, with_grad=False).inner_iou)


def scale_about_center(box, ratio: float) -> tuple:
    x, y, w, h = box
    return (x, y, w * ratio, h * ratio)


def kernel_corners(box, ratio: float = 1.0) -> tuple[float, ...]:
    """(left, right, top, bottom) of the (x, y, w, h) ``box`` as the overlap kernel scales it."""
    block, _ = _blocks(box, box)
    low, high = _overlap(block, block, ratio, False).edges[:2]
    return tuple(float(v) for v in (low[0], high[0], low[1], high[1]))


def enclosing_losses(a, b) -> tuple[float, float, float]:
    """iou, giou and diou losses; the last two add enclosing-box terms to the first."""
    return tuple(
        float(eval_batch(LossSpec(base), a, b, with_grad=False).loss)
        for base in ("iou", "giou", "diou")
    )


class TestCornersAndScaling:
    def test_to_corners_identity_ratio(self):
        left, right, top, bottom = kernel_corners((100.0, 100.0, 8.0, 4.0))
        assert (left, right, top, bottom) == (96.0, 104.0, 98.0, 102.0)
        assert (right - left, bottom - top) == (8.0, 4.0)

    def test_to_corners_scaled(self):
        assert kernel_corners((100.0, 100.0, 8.0, 4.0), 1.5) == (94.0, 106.0, 97.0, 103.0)

    def test_scale_about_center_keeps_center(self):
        left, right, top, bottom = kernel_corners((3.0, -7.0, 10.0, 2.0), 0.5)
        center = ((left + right) / 2.0, (top + bottom) / 2.0)
        assert center + (right - left, bottom - top) == (3.0, -7.0, 5.0, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_bad_ratio_rejected(self, bad):
        # LossSpec is the only way a ratio reaches the kernel, for every base.
        for base in BASE_NAMES:
            with pytest.raises(ValueError, match="ratio"):
                LossSpec(base, inner=bad)


class TestIou:
    def test_identical_boxes(self):
        b = (3.7, -1.2, 5.3, 2.9)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 10, 10), (20, 0, 10, 10)) == 0.0

    def test_touching_edges_count_as_disjoint(self):
        assert iou((0, 0, 10, 10), (10, 0, 10, 10)) == 0.0

    def test_half_overlap_square(self):
        v = iou((0, 0, 10, 10), (5, 0, 10, 10))
        assert v == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_contained_box(self):
        v = iou((0, 0, 10, 10), (0, 0, 5, 5))
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
        shift = (dx, dy, 0.0, 0.0)
        v1 = iou(np.add(a, shift), np.add(b, shift))
        assert v1 == pytest.approx(v0, abs=1e-9)

    @given(boxes(), boxes(), st.floats(min_value=0.125, max_value=8.0))
    @settings(max_examples=200)
    def test_scale_invariance(self, a, b, k):
        v0 = iou(a, b)
        v1 = iou(np.multiply(a, k), np.multiply(b, k))
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
        base, giou, diou = enclosing_losses((0, 0, 10, 10), (20, 0, 10, 10))
        assert base == 1.0
        assert giou == 1.0 + (300.0 - 200.0) / 300.0
        assert diou == 1.0 + 400.0 / 1000.0

    def test_contained_pair(self):
        # the enclosing box is the outer box itself: area 100 (the union),
        # squared diagonal 200
        base, giou, diou = enclosing_losses((0, 0, 10, 10), (1, 1, 2, 2))
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
        b = (12.25, -3.5, 7.0, 3.0)
        for r in (0.5, 0.8, 1.0, 1.2, 1.5):
            assert inner_iou(b, b, r) == 1.0

    def test_ratio_one_is_plain_iou(self):
        a, b = (0, 0, 10, 10), (5, 0.3, 9.0, 10.7)
        assert inner_iou(a, b, 1.0) == iou(a, b)

    def test_shrinking_can_break_overlap(self):
        a, b = (0, 0, 10, 10), (5, 0, 10, 10)
        assert inner_iou(a, b, 0.5) == 0.0
        assert iou(a, b) > 0.0

    def test_growing_can_create_overlap(self):
        a, b = (0, 0, 10, 10), (11, 0, 10, 10)
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
