"""The supported box domain: its one validator and the losses on its edges."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import smooth_mask, spec_matrix
from ioulab import BASE_NAMES, Box, LossSpec, eval_batch
from ioulab.batch import BOX_LIMIT, EPSILON, RATIO_LIMITS, SIDE_REL, check_boxes

LEAST_SIDE = 1.0 / BOX_LIMIT

with warnings.catch_warnings():
    # the limits lie outside the typical range, which only warns
    warnings.simplefilter("ignore", UserWarning)
    EDGE_SPECS = [
        LossSpec(base, inner=r)
        for base in BASE_NAMES
        for r in (None, *RATIO_LIMITS, 0.5, 1.0, 1.5)
    ]


def above(v):
    return float(np.nextafter(v, math.inf))


def below(v):
    return float(np.nextafter(v, -math.inf))


class TestCheckBoxes:
    def test_returns_float64_array(self):
        got = check_boxes([[1, 2, 3, 4], [0, 0, 1, 1]], "boxes")
        assert got.dtype == np.float64 and got.shape == (2, 4)
        assert got.tolist() == [[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0]]

    @pytest.mark.parametrize(
        "box",
        [
            (BOX_LIMIT, -BOX_LIMIT, BOX_LIMIT, BOX_LIMIT),
            (0.0, 0.0, LEAST_SIDE, LEAST_SIDE),
            (1e6, -1e6, SIDE_REL * 1e6, SIDE_REL * 1e6),
            (BOX_LIMIT, BOX_LIMIT, SIDE_REL * BOX_LIMIT, SIDE_REL * BOX_LIMIT),
        ],
    )
    def test_accepts_the_bounds(self, box):
        assert check_boxes(box, "box").tolist() == list(box)

    @pytest.mark.parametrize(
        "box,match",
        [
            ((above(BOX_LIMIT), 0.0, 1e32, 1.0), "finite and at most"),
            ((below(-BOX_LIMIT), 0.0, 1e32, 1.0), "finite and at most"),
            ((0.0, above(BOX_LIMIT), 1.0, 1e32), "finite and at most"),
            ((0.0, below(-BOX_LIMIT), 1.0, 1e32), "finite and at most"),
            ((0.0, 0.0, above(BOX_LIMIT), 1.0), "finite and at most"),
            ((0.0, 0.0, 1.0, above(BOX_LIMIT)), "finite and at most"),
            ((0.0, 0.0, below(LEAST_SIDE), 1.0), "positive"),
            ((0.0, 0.0, 1.0, below(LEAST_SIDE)), "positive"),
            ((1e6, 0.0, below(SIDE_REL * 1e6), 1.0), "resolution"),
            ((0.0, -1e6, 1.0, below(SIDE_REL * 1e6)), "resolution"),
            ((0.0, 0.0, 0.0, 1.0), "positive"),
            ((0.0, 0.0, 1.0, -1.0), "positive"),
        ],
    )
    def test_rejects_just_outside_each_bound(self, box, match):
        with pytest.raises(ValueError, match=match):
            check_boxes(box, "box")

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        box = [1.0, 2.0, 3.0, 4.0]
        box[field] = bad
        with pytest.raises(ValueError, match="finite"):
            check_boxes(box, "box")

    def test_names_the_first_bad_row(self):
        boxes = np.ones((3, 2, 4))
        boxes[1, 1, 2] = -1.0
        boxes[2, 0, 0] = math.nan
        with pytest.raises(ValueError, match=r"^state 103 is outside the supported box domain"):
            check_boxes(boxes, "state", first_row=100)

    @pytest.mark.parametrize("box", [(1e3, 0.0, 1e-20, 1.0), (0.0, 0.0, 1e-200, 1e-200)])
    def test_box_uses_it(self, box):
        with pytest.raises(ValueError, match=r"^box is outside the supported box domain"):
            Box(*box)


class TestRatioLimits:
    @pytest.mark.parametrize("ratio", [below(RATIO_LIMITS[0]), above(RATIO_LIMITS[1]), 1e-200])
    def test_rejected(self, ratio):
        with pytest.raises(ValueError, match=r"inner ratio must lie in \[0.001, 1000\]"):
            LossSpec("iou", inner=ratio)

    @pytest.mark.parametrize("ratio", RATIO_LIMITS)
    def test_limits_accepted_with_a_warning(self, ratio):
        with pytest.warns(UserWarning, match="typical range"):
            assert LossSpec("iou", inner=ratio).inner == ratio


# Coordinates and sides drawn on the domain's edges as often as inside it.
coords = st.one_of(
    st.sampled_from([0.0, 1.0, -1e-30, 1e20, -1e20, BOX_LIMIT, -BOX_LIMIT]),
    st.floats(min_value=-BOX_LIMIT, max_value=BOX_LIMIT),
)


@st.composite
def domain_boxes(draw):
    x, y = draw(coords), draw(coords)

    def side(c):
        least = max(LEAST_SIDE, SIDE_REL * abs(c))
        return draw(st.one_of(
            st.sampled_from([least, BOX_LIMIT]), st.floats(min_value=least, max_value=BOX_LIMIT)
        ))

    return (x, y, side(x), side(y))


class TestLossesOnTheDomainEdges:
    @given(st.lists(st.tuples(domain_boxes(), domain_boxes()), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_finite_and_bounded(self, pairs):
        anchors, gts = (check_boxes(boxes, "drawn boxes") for boxes in zip(*pairs))
        # warnings are errors, so an overflow or 0/0 anywhere fails too
        for spec in EDGE_SPECS:
            ev = eval_batch(spec, anchors, gts)
            assert np.all(np.isfinite(ev.loss)) and np.all(np.isfinite(ev.grad)), spec.label()
            assert np.all((0.0 <= ev.iou) & (ev.iou <= 1.0)), spec.label()
            if ev.inner_iou is not None:
                assert np.all((0.0 <= ev.inner_iou) & (ev.inner_iou <= 1.0)), spec.label()


# Boxes inside the domain whose centres stay within 50 of the origin and
# whose sides lie in [0.5, 50]: at that spread the rounding of a shift by
# up to 1e3 or a rescale moves a loss by well under LOSS_TOL.
moderate_boxes = st.tuples(
    st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(0.5, 50.0), st.floats(0.5, 50.0)
).map(np.array)
scales = st.floats(min_value=0.125, max_value=8.0)
LOSS_TOL = 1e-10
GRAD_REL = 1e-9
# siou's angle term divides by the centre distance plus EPSILON, which does
# not rescale with the boxes; on moderate boxes that moves a loss or a
# partial by a few EPSILON at most.
SIOU_TOL = 100 * EPSILON


def tolerance(spec: LossSpec) -> float:
    return SIOU_TOL if spec.base == "siou" else LOSS_TOL


class TestSimilarityInvariance:
    """Every loss sees a pair's shape, not where it sits or how large it is.

    Each check evaluates the drawn pair (row 0) and its image (row 1) in
    one call.
    """

    @given(moderate_boxes, moderate_boxes, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_translation_keeps_every_loss(self, a, g, tx, ty):
        shift = np.array([tx, ty, 0.0, 0.0])
        pair = check_boxes([[a, g], [a + shift, g + shift]], "drawn boxes")
        for spec in spec_matrix():
            loss = eval_batch(spec, pair[:, 0], pair[:, 1], with_grad=False).loss
            assert loss[1] == pytest.approx(loss[0], abs=tolerance(spec)), spec.label()

    @given(moderate_boxes, moderate_boxes, scales)
    @settings(max_examples=100, deadline=None)
    def test_scaling_keeps_every_loss(self, a, g, k):
        pair = check_boxes([[a, g], [a * k, g * k]], "drawn boxes")
        for spec in spec_matrix():
            loss = eval_batch(spec, pair[:, 0], pair[:, 1], with_grad=False).loss
            assert loss[1] == pytest.approx(loss[0], abs=tolerance(spec)), spec.label()

    @given(moderate_boxes, moderate_boxes, scales)
    @settings(max_examples=100, deadline=None)
    def test_scaling_divides_every_gradient(self, a, g, k):
        # Away from the kinks, where a rescale's rounding could change which
        # side of a tie an edge lands on.
        assume(smooth_mask(a[None], g[None])[0])
        pair = check_boxes([[a, g], [a * k, g * k]], "drawn boxes")
        for spec in spec_matrix():
            grad = eval_batch(spec, pair[:, 0], pair[:, 1]).grad
            np.testing.assert_allclose(
                k * grad[1], grad[0], rtol=GRAD_REL, atol=tolerance(spec), err_msg=spec.label()
            )
