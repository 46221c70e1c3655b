import math

import numpy as np
import pytest

from ioulab import BASE_NAMES, Box, LossSpec, evaluate, iou_batch

from helpers import TEST_RATIOS, random_box


def _pairs(seed, n):
    rng = np.random.default_rng(seed)
    return [(random_box(rng), random_box(rng)) for _ in range(n)]


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


class TestLossSpec:
    def test_base_is_the_name(self):
        assert LossSpec("giou").base == "giou"
        assert type(LossSpec("giou").base) is str
        assert LossSpec("giou") == LossSpec(LossSpec("giou").base)

    def test_base_names_cover_all_variants(self):
        assert BASE_NAMES == ("iou", "giou", "diou", "ciou", "eiou", "siou")

    def test_unknown_base_rejected(self):
        for bad in ("focal", "IOU", None, 1):
            with pytest.raises(ValueError, match=r"unknown base loss .* \(choose from iou, giou"):
                LossSpec(bad)

    # a JSON config's true or "0.8" is not silently read as a number
    @pytest.mark.parametrize("bad", [0.0, -0.8, math.nan, math.inf, True, "0.8"])
    def test_bad_inner_ratio_rejected(self, bad):
        with pytest.raises(ValueError, match="inner ratio"):
            LossSpec("iou", inner=bad)

    @pytest.mark.parametrize("odd", [0.3, 1.7, 1.8])
    def test_unusual_inner_ratio_warns(self, odd):
        with pytest.warns(UserWarning, match="typical range"):
            LossSpec("iou", inner=odd)

    def test_typical_ratio_does_not_warn(self, recwarn):
        LossSpec("iou", inner=0.8)
        assert not recwarn.list

    def test_label(self):
        assert LossSpec("ciou").label() == "ciou"
        assert LossSpec("ciou", inner=0.8).label() == "inner-ciou(0.8)"
        assert LossSpec("iou", inner=1.25).label() == "inner-iou(1.25)"

    def test_dict_round_trip(self):
        spec = LossSpec("siou", inner=1.2)
        assert LossSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "field",
        ["ratio", "epsilon", "theta", "siou_half_terms", "siou_positive_shape_exp", "freeze_angle"],
    )
    def test_from_dict_unknown_field_named(self, field):
        # the last five were numeric knobs of the losses; they are constants now
        with pytest.raises(ValueError, match=f"unknown loss spec field '{field}'"):
            LossSpec.from_dict({"base": "siou", field: 0.8})

    def test_from_dict_missing_base(self):
        with pytest.raises(ValueError, match="base"):
            LossSpec.from_dict({"inner": 0.8})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            LossSpec.from_dict(["iou"])


class TestIouLoss:
    def test_coincident(self):
        b = Box(3.1, -2.7, 6.3, 4.9)
        assert evaluate(LossSpec("iou"), b, b).loss == 0.0

    def test_disjoint(self):
        assert evaluate(LossSpec("iou"), Box(0, 0, 10, 10), Box(20, 0, 10, 10)).loss == 1.0

    def test_half_overlap(self):
        v = evaluate(LossSpec("iou"), Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert v.loss == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert v.iou == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert v.inner_iou is None
        assert v.terms == {}

    def test_range(self):
        for a, g in _pairs(11, 200):
            v = evaluate(LossSpec("iou"), a, g).loss
            assert 0.0 <= v <= 1.0


class TestGiouLoss:
    def test_disjoint_exceeds_one(self):
        v = evaluate(LossSpec("giou"), Box(0, 0, 10, 10), Box(20, 0, 10, 10))
        # union 200, enclosing 300
        assert v.loss == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_contained_pair_equals_iou_loss(self):
        a, g = Box(0, 0, 10, 10), Box(0, 0, 4, 4)
        assert evaluate(LossSpec("giou"), a, g).loss == pytest.approx(1.0 - 16.0 / 100.0, abs=1e-15)
        assert evaluate(LossSpec("giou"), a, g).loss == pytest.approx(
            evaluate(LossSpec("iou"), a, g).loss, abs=1e-15
        )

    def test_dominates_iou_loss(self):
        for a, g in _pairs(12, 300):
            assert evaluate(LossSpec("giou"), a, g).loss >= evaluate(LossSpec("iou"), a, g).loss
            assert evaluate(LossSpec("giou"), a, g).loss < 2.0


class TestDiouLoss:
    def test_half_overlap(self):
        v = evaluate(LossSpec("diou"), Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert v.loss == pytest.approx(2.0 / 3.0 + 25.0 / 325.0, rel=1e-15)

    def test_concentric_equals_iou_loss(self):
        a, g = Box(0, 0, 10, 10), Box(0, 0, 4, 4)
        assert evaluate(LossSpec("diou"), a, g).loss == evaluate(LossSpec("iou"), a, g).loss

    def test_dominates_iou_loss(self):
        for a, g in _pairs(13, 300):
            assert evaluate(LossSpec("diou"), a, g).loss >= evaluate(LossSpec("iou"), a, g).loss


class TestCiouLoss:
    def test_same_aspect_degrades_to_diou(self):
        a, g = Box(0, 0, 10, 10), Box(5, 3, 4, 4)
        v = evaluate(LossSpec("ciou"), a, g)
        assert v.loss == evaluate(LossSpec("diou"), a, g).loss
        assert set(v.terms) == {"v", "alpha"}
        assert v.terms["v"] == 0.0 and v.terms["alpha"] == 0.0

    def test_swapped_aspect_pair(self):
        a, g = Box(0, 0, 10, 5), Box(0, 0, 5, 10)
        v = evaluate(LossSpec("ciou"), a, g)
        vv = (4.0 / math.pi**2) * (math.atan(5.0 / 10.0) - math.atan(10.0 / 5.0)) ** 2
        alpha = vv / ((1.0 - 1.0 / 3.0) + vv)
        assert v.iou == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert v.terms["v"] == pytest.approx(vv, rel=1e-12)
        assert v.terms["alpha"] == pytest.approx(alpha, rel=1e-12)
        assert v.loss == pytest.approx(2.0 / 3.0 + alpha * vv, rel=1e-12)

    def test_dominates_diou(self):
        for a, g in _pairs(14, 300):
            assert evaluate(LossSpec("ciou"), a, g).loss >= evaluate(LossSpec("diou"), a, g).loss

    def test_coincident(self):
        b = Box(1, 1, 2, 3)
        assert evaluate(LossSpec("ciou"), b, b).loss == 0.0


class TestEiouLoss:
    def test_concentric_width_mismatch(self):
        v = evaluate(LossSpec("eiou"), Box(0, 0, 10, 10), Box(0, 0, 5, 10))
        # iou 0.5; width term (10-5)^2 / 10^2; all other penalties 0
        assert v.loss == pytest.approx(0.5 + 0.25, abs=1e-15)

    def test_same_shape_translated_equals_diou(self):
        a, g = Box(0, 0, 10, 10), Box(5, 0, 10, 10)
        assert evaluate(LossSpec("eiou"), a, g).loss == pytest.approx(
            evaluate(LossSpec("diou"), a, g).loss, abs=1e-15
        )

    def test_coincident(self):
        b = Box(-4, 9, 3, 8)
        assert evaluate(LossSpec("eiou"), b, b).loss == 0.0


def _siou_reference(a, g, *, eps=1e-7, theta=4.0):
    """Direct scalar recomputation of the angle/distance/shape decomposition."""
    dx, dy = abs(g.x - a.x), abs(g.y - a.y)
    dist = math.hypot(dx, dy)
    z = min(dx, dy) / (dist + eps)
    angle = 2.0 * z * math.sqrt(max(0.0, 1.0 - z * z))
    gamma = 2.0 - angle
    # (left, right, top, bottom) corners
    ac = (a.x - a.w / 2.0, a.x + a.w / 2.0, a.y - a.h / 2.0, a.y + a.h / 2.0)
    gc = (g.x - g.w / 2.0, g.x + g.w / 2.0, g.y - g.h / 2.0, g.y + g.h / 2.0)
    e = (min(ac[0], gc[0]), max(ac[1], gc[1]), min(ac[2], gc[2]), max(ac[3], gc[3]))
    cw, ch = e[1] - e[0], e[3] - e[2]
    rho_x = ((g.x - a.x) / cw) ** 2
    rho_y = ((g.y - a.y) / ch) ** 2
    omega_w = abs(a.w - g.w) / max(a.w, g.w)
    omega_h = abs(a.h - g.h) / max(a.h, g.h)
    delta = 0.5 * sum(1.0 - math.exp(-gamma * r) for r in (rho_x, rho_y))
    omega = 0.5 * sum((1.0 - math.exp(-w)) ** theta for w in (omega_w, omega_h))
    iw = max(0.0, min(ac[1], gc[1]) - max(ac[0], gc[0]))
    ih = max(0.0, min(ac[3], gc[3]) - max(ac[2], gc[2]))
    iou = iw * ih / (a.w * a.h + g.w * g.h - iw * ih)
    return 1.0 - iou + (delta + omega) / 2.0, angle, gamma, delta, omega


class TestSiouLoss:
    def test_axis_aligned_centers_zero_angle_cost(self):
        v = evaluate(LossSpec("siou"), Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert list(v.terms) == [
            "angle_cost", "gamma", "distance_cost", "shape_cost",
            "rho_x", "rho_y", "omega_w", "omega_h", "theta",
        ]
        assert v.terms["angle_cost"] == 0.0
        assert v.terms["gamma"] == 2.0

    def test_diagonal_centers_unit_angle_cost(self):
        v = evaluate(LossSpec("siou"), Box(0, 0, 10, 10), Box(3, 3, 10, 10))
        assert v.terms["angle_cost"] == pytest.approx(1.0, abs=1e-6)

    def test_coincident(self):
        b = Box(2, 2, 5, 7)
        v = evaluate(LossSpec("siou"), b, b)
        assert v.loss == 0.0
        assert v.terms["distance_cost"] == 0.0 and v.terms["shape_cost"] == 0.0

    def test_matches_direct_recomputation(self):
        for a, g in _pairs(15, 60):
            v = evaluate(LossSpec("siou"), a, g)
            ref, angle, gamma, delta, omega = _siou_reference(a, g)
            assert v.loss == pytest.approx(ref, rel=1e-12, abs=1e-12)
            assert v.terms["angle_cost"] == pytest.approx(angle, rel=1e-12, abs=1e-12)
            assert v.terms["gamma"] == pytest.approx(gamma, rel=1e-12)
            assert v.terms["distance_cost"] == pytest.approx(delta, rel=1e-12, abs=1e-12)
            assert v.terms["shape_cost"] == pytest.approx(omega, rel=1e-12, abs=1e-12)

    def test_term_ranges(self):
        for a, g in _pairs(16, 200):
            t = evaluate(LossSpec("siou"), a, g).terms
            assert 0.0 <= t["angle_cost"] <= 1.0
            assert 1.0 <= t["gamma"] <= 2.0
            assert 0.0 <= t["rho_x"] <= 1.0 and 0.0 <= t["rho_y"] <= 1.0
            assert 0.0 <= t["omega_w"] < 1.0 and 0.0 <= t["omega_h"] < 1.0


class TestInnerLoss:
    def test_iou_base_with_broken_overlap(self):
        v = evaluate(LossSpec("iou", inner=0.5), Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert v.loss == 1.0
        assert v.inner_iou == 0.0
        assert v.iou == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("base", BASE_NAMES)
    def test_ratio_one_degenerates_to_base(self, base):
        for a, g in _pairs(17, 40):
            plain = evaluate(LossSpec(base), a, g).loss
            wrapped = evaluate(LossSpec(base, inner=1.0), a, g).loss
            assert wrapped == pytest.approx(plain, abs=1e-12)

    @pytest.mark.parametrize("base", BASE_NAMES)
    @pytest.mark.parametrize("ratio", TEST_RATIOS)
    def test_coincident_zero(self, base, ratio):
        b = Box(7.125, -0.375, 4.5, 9.25)
        v = evaluate(LossSpec(base, inner=ratio), b, b)
        assert v.loss == 0.0
        assert v.iou == 1.0 and v.inner_iou == 1.0

    @pytest.mark.parametrize("base", [b for b in BASE_NAMES if b != "iou"])
    @pytest.mark.parametrize("ratio", TEST_RATIOS)
    def test_composition_identity(self, base, ratio):
        for a, g in _pairs(18, 40):
            v = evaluate(LossSpec(base, inner=ratio), a, g)
            base_loss = evaluate(LossSpec(base), a, g).loss
            assert v.loss - base_loss == pytest.approx(v.iou - v.inner_iou, abs=1e-12)

    @pytest.mark.parametrize("ratio", TEST_RATIOS)
    def test_iou_base_uses_auxiliary_overlap_only(self, ratio):
        for a, g in _pairs(19, 40):
            v = evaluate(LossSpec("iou", inner=ratio), a, g)
            assert v.loss == pytest.approx(1.0 - v.inner_iou, abs=1e-15)
            scale = np.array([1.0, 1.0, ratio, ratio])
            scaled = iou_batch(np.array(a.as_tuple()) * scale, np.array(g.as_tuple()) * scale)
            assert v.inner_iou == pytest.approx(float(scaled), abs=1e-15)


class TestInvariance:
    # Both boxes transformed together must leave every loss unchanged.
    # The angle term's additive stabilizer is not scale-free, so the
    # variant with a center-angle term gets a correspondingly looser bound.
    TOL = {name: 1e-9 for name in BASE_NAMES} | {"siou": 1e-8}

    @pytest.mark.parametrize("base", BASE_NAMES)
    def test_translation(self, base):
        rng = np.random.default_rng(20)
        for a, g in _pairs(21, 60):
            dx, dy = rng.uniform(-500, 500, 2)
            v0 = evaluate(LossSpec(base), a, g).loss
            v1 = evaluate(
                LossSpec(base), Box(a.x + dx, a.y + dy, a.w, a.h), Box(g.x + dx, g.y + dy, g.w, g.h)
            ).loss
            assert v1 == pytest.approx(v0, rel=self.TOL[base], abs=1e-12)

    @pytest.mark.parametrize("base", BASE_NAMES)
    def test_uniform_scale(self, base):
        rng = np.random.default_rng(22)
        for a, g in _pairs(23, 60):
            k = rng.uniform(0.125, 8.0)
            v0 = evaluate(LossSpec(base), a, g).loss
            v1 = evaluate(
                LossSpec(base),
                Box(a.x * k, a.y * k, a.w * k, a.h * k),
                Box(g.x * k, g.y * k, g.w * k, g.h * k),
            ).loss
            assert v1 == pytest.approx(v0, rel=self.TOL[base], abs=1e-12)

    @pytest.mark.parametrize("base", BASE_NAMES)
    def test_positive_off_coincidence(self, base):
        for a, g in _pairs(24, 100):
            v = evaluate(LossSpec(base), a, g)
            if base == "iou" and v.iou == 1.0:
                continue
            if (a.x, a.y, a.w, a.h) != (g.x, g.y, g.w, g.h):
                assert v.loss > 0.0
