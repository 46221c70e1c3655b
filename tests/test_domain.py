"""The supported box domain: its one validator and the losses on its edges."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import plain_iou, smooth_mask, spec_matrix
from ioulab import BASE_NAMES, LossSpec, SimConfig, eval_batch, run_simulation, scenario_config
from ioulab import batch
from ioulab.batch import BOX_LIMIT, EPSILON, RATIO_LIMITS, SIDE_REL, check_boxes
from ioulab.sweep import SweepConfig, run_sweep

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
        # the public entries check each argument under its own name
        good = (0.0, 0.0, 1.0, 1.0)
        for name, args in (("anchors", (box, good)), ("gts", (good, box))):
            with pytest.raises(ValueError, match=f"^{name} is outside the supported box domain"):
                eval_batch(LossSpec("iou"), *args)
            with pytest.raises(ValueError, match=f"^{name} is outside the supported box domain"):
                plain_iou(*args)


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


@st.composite
def outside_boxes(draw):
    """A box just off the domain: a NaN, a negative or too small side, or a coordinate too large."""
    box = list(draw(domain_boxes()))
    kind = draw(st.sampled_from(["nan", "side", "far"]))
    if kind == "nan":
        box[draw(st.integers(0, 3))] = math.nan
    elif kind == "side":
        i = draw(st.sampled_from([2, 3]))
        least = max(LEAST_SIDE, SIDE_REL * abs(box[i - 2]))
        box[i] = draw(st.floats(min_value=-BOX_LIMIT, max_value=least, exclude_max=True))
    else:
        far = draw(st.floats(min_value=BOX_LIMIT, exclude_min=True))
        box[draw(st.integers(0, 3))] = far if draw(st.booleans()) else -far
    return tuple(box)


class TestPublicEntries:
    """``eval_batch``'s forward and gradient passes refuse every box outside the domain."""

    @pytest.mark.parametrize(
        "anchor,gt,name",
        [
            ((0, 0, -1, 1), (0, 0, 1, 1), "anchors"),
            ((0, 0, -2, -2), (0, 0, 1, 1), "anchors"),
            ((0, 0, 1, 1), (0, 0, -1, 1), "gts"),
        ],
    )
    def test_negative_sides_raise_instead_of_a_loss(self, anchor, gt, name):
        # ciou gave nan for the first anchor and 1.0 for the second before
        # the entries checked their boxes
        bad = tuple(float(v) for v in (anchor if name == "anchors" else gt))
        for entry in (lambda a, g: eval_batch(LossSpec("ciou"), a, g), plain_iou):
            with pytest.raises(ValueError) as exc:
                entry(anchor, gt)
            assert str(exc.value).startswith(f"{name} is outside the supported box domain: ")
            assert str(exc.value).endswith(f"; got {bad}")

    @given(
        st.lists(domain_boxes(), min_size=2, max_size=8),
        outside_boxes(),
        st.integers(0, 7),
        st.sampled_from(["anchors", "gts"]),
        st.sampled_from(spec_matrix() + [None]),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_box_outside_the_domain_is_named(self, good, bad, row, name, spec):
        row %= len(good)
        boxes = list(good)
        boxes[row] = bad
        args = (boxes, good) if name == "anchors" else (good, boxes)
        with pytest.raises(ValueError) as exc:
            if spec is None:
                plain_iou(*args)
            else:
                eval_batch(spec, *args)
        message = str(exc.value)
        assert message.startswith(f"{name} {row} is outside the supported box domain: "), message
        assert message.endswith(f"; got {bad}"), message


    def test_descent_and_sweep_skip_the_check(self, monkeypatch):
        # Both loops call the unchecked kernels: a check on every iteration
        # would cost a few percent of each kernel call.
        sim = SimConfig(specs=scenario_config("high").specs, n_points=2, iterations=3)
        sweep = SweepConfig(samples=51)
        names = []

        def counting(boxes, name, **kwargs):
            names.append(name)
            return check_boxes(boxes, name, **kwargs)

        monkeypatch.setattr(batch, "check_boxes", counting)
        run_simulation(sim)
        run_sweep(sweep)
        assert names == []
        # the public entry does reach the counter
        eval_batch(LossSpec("iou"), (0, 0, 1, 1), (0, 0, 1, 1))
        assert names == ["anchors", "gts"]


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
