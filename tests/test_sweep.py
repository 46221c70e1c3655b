import math

import numpy as np
import pytest

from ioulab import SweepConfig, check_conclusions, iou_batch, run_sweep
from ioulab.sweep import _mask_regions


def square_iou(side: float, dev: float) -> float:
    """Closed form for two side-`side` squares offset by `dev` on one axis."""
    if abs(dev) >= side:
        return 0.0
    return (side - abs(dev)) / (side + abs(dev))


def square_absgrad(side: float, dev: float) -> float:
    if abs(dev) >= side or dev == 0.0:
        return 0.0
    return 2.0 * side / (side + abs(dev)) ** 2


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(SweepConfig())


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.box_side == 10.0
        assert cfg.aux_sides == (8.0, 12.0)
        assert cfg.deviation_range == (-15.0, 15.0)
        assert cfg.samples == 601
        assert cfg.axis == "x"
        assert cfg.sides() == (10.0, 8.0, 12.0)

    def test_sides_dedups_actual(self):
        assert SweepConfig(aux_sides=(8.0, 10.0, 12.0)).sides() == (10.0, 8.0, 12.0)

    def test_sides_drop_repeated_aux(self):
        assert SweepConfig(aux_sides=(8.0, 8.0, 12.0, 8.0)).sides() == (10.0, 8.0, 12.0)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(box_side=0.0), "box_side"),
            (dict(aux_sides=()), "aux_sides"),
            (dict(aux_sides=(8.0, -1.0)), "aux_sides"),
            (dict(deviation_range=(5.0, 5.0)), "deviation_range"),
            (dict(deviation_range=(7.0, 3.0)), "deviation_range"),
            (dict(samples=1), "samples"),
            (dict(samples=2.7), "samples"),
            (dict(samples=True), "samples"),
            (dict(samples="5"), "samples"),
            (dict(axis="z"), "axis"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SweepConfig(**kwargs)


class TestRunSweep:
    def test_sample_grid(self, sweep):
        devs, iou, absgrad = sweep
        assert len(devs) == 601
        assert devs[0] == -15.0
        assert devs[-1] == 15.0
        assert devs[300] == 0.0
        assert tuple(iou) == tuple(absgrad) == SweepConfig().sides()

    def test_zero_deviation_unit_overlap(self, sweep):
        _, iou, absgrad = sweep
        assert all(v[300] == 1.0 for v in iou.values())
        assert all(v[300] == 0.0 for v in absgrad.values())

    def test_matches_closed_form(self, sweep):
        devs, iou, absgrad = sweep
        for i, dev in enumerate(devs):
            for side in (10.0, 8.0, 12.0):
                expect_iou = square_iou(side, dev)
                expect_grad = square_absgrad(side, dev)
                if expect_iou == 0.0:
                    assert iou[side][i] == 0.0
                    assert absgrad[side][i] == 0.0
                else:
                    assert iou[side][i] == pytest.approx(expect_iou, rel=1e-12)
                    if dev != 0.0:
                        assert absgrad[side][i] == pytest.approx(expect_grad, rel=1e-12)

    def test_bounds(self, sweep):
        _, iou, absgrad = sweep
        for side in (10.0, 8.0, 12.0):
            assert np.all((0.0 <= iou[side]) & (iou[side] <= 1.0))
            assert np.all(absgrad[side] >= 0.0)

    def test_mirror_symmetry(self, sweep):
        # the grid is symmetric by index; grid values themselves carry
        # rounding, so mirrored samples agree to tolerance, not bitwise
        devs, iou, absgrad = sweep
        for i, dev in enumerate(devs):
            twin = len(devs) - 1 - i
            assert devs[twin] == pytest.approx(-dev, abs=1e-12)
            for side in (10.0, 8.0, 12.0):
                assert iou[side][twin] == pytest.approx(iou[side][i], rel=1e-12, abs=1e-15)
                assert absgrad[side][twin] == pytest.approx(
                    absgrad[side][i], rel=1e-12, abs=1e-15
                )

    def test_gradient_matches_finite_difference(self, sweep):
        # independent probe: central differences of the forward overlap of
        # the rescaled pair
        devs, _, absgrad = sweep
        h = 1e-4
        kinks = (0.0, 8.0, 10.0, 12.0)
        for i in range(0, len(devs), 7):
            dev = devs[i]
            if any(abs(abs(dev) - k) < 2 * h for k in kinks):
                continue
            for side in (10.0, 8.0, 12.0):

                def f(d):
                    return float(iou_batch((d, 0.0, side, side), (0.0, 0.0, side, side)))

                fd = abs(f(dev + h) - f(dev - h)) / (2 * h)
                assert absgrad[side][i] == pytest.approx(fd, abs=1e-6)

    def test_axis_y_matches_axis_x(self):
        dx, ix, gx = run_sweep(SweepConfig(samples=81))
        dy, iy, gy = run_sweep(SweepConfig(samples=81, axis="y"))
        assert np.array_equal(dx, dy)
        assert tuple(ix) == tuple(iy)
        for side in ix:
            assert np.array_equal(ix[side], iy[side])
            assert np.array_equal(gx[side], gy[side])


def _regions_by_loop(devs, mask):
    """Reference for the runs of True: walk the samples, closing each run."""
    regions, start = [], None
    for i, on in enumerate(mask):
        if on and start is None:
            start = i
        elif not on and start is not None:
            regions.append((float(devs[start]), float(devs[i - 1])))
            start = None
    if start is not None:
        regions.append((float(devs[start]), float(devs[-1])))
    return tuple(regions)


class TestCheckConclusions:
    def test_default_sweep_passes_everything(self, sweep):
        rep = check_conclusions(*sweep, actual_side=10.0)
        assert rep.all_passed
        for c in (rep.c1, rep.c2, rep.c3):
            assert c.passed and not c.vacuous and c.violations == 0

    def test_checked_counts(self, sweep):
        rep = check_conclusions(*sweep, actual_side=10.0)
        # 600 displaced samples per curve -> 599 consecutive comparisons
        assert rep.c1.checked == 3 * 599
        # overlap >= 0.7 for side 10: |dev| <= 30/17, 35 grid points per sign
        assert rep.c2.checked == 70
        # side 10 flat, side 12 alive: 10.0 <= |dev| <= 11.95, 40 per sign
        assert rep.c3.checked == 80

    def test_region_endpoints(self, sweep):
        rep = check_conclusions(*sweep, actual_side=10.0)
        (neg, pos) = rep.c2.regions
        assert neg[0] == pytest.approx(-1.75, abs=1e-9)
        assert pos[1] == pytest.approx(1.75, abs=1e-9)
        (neg3, pos3) = rep.c3.regions
        assert neg3 == pytest.approx((-11.95, -10.0), abs=1e-9)
        assert pos3 == pytest.approx((10.0, 11.95), abs=1e-9)

    def test_mask_regions_at_both_ends_and_single_samples(self):
        devs = np.arange(8.0)
        mask = np.array([True, True, False, True, False, False, True, True])
        assert _mask_regions(devs, mask) == ((0.0, 1.0), (3.0, 3.0), (6.0, 7.0))
        assert _mask_regions(devs, np.ones(8, dtype=bool)) == ((0.0, 7.0),)
        assert _mask_regions(devs, np.zeros(8, dtype=bool)) == ()
        assert _mask_regions(devs, devs == 7.0) == ((7.0, 7.0),)
        rng = np.random.default_rng(61)
        devs = np.linspace(-3.0, 3.0, 40)
        for _ in range(50):
            mask = rng.random(40) < rng.random()
            assert _mask_regions(devs, mask) == _regions_by_loop(devs, mask)

    def test_report_dict_shape(self, sweep):
        d = check_conclusions(*sweep, actual_side=10.0).to_dict()
        assert d["all_passed"] is True
        assert d["thresholds"] == {"high_iou": 0.7, "low_iou": 0.0}
        assert set(d["conclusions"]) == {"c1", "c2", "c3"}
        for c in d["conclusions"].values():
            assert set(c) == {"statement", "passed", "vacuous", "checked", "violations", "regions"}

    def test_three_sample_sweep_is_vacuous_not_passed(self):
        rep = check_conclusions(*run_sweep(SweepConfig(samples=3)), actual_side=10.0)
        assert rep.c2.vacuous and not rep.c2.passed
        assert rep.c3.vacuous and not rep.c3.passed
        assert not rep.all_passed

    def test_requires_smaller_and_larger_aux(self):
        only_small = run_sweep(SweepConfig(aux_sides=(8.0,)))
        with pytest.raises(ValueError, match="larger"):
            check_conclusions(*only_small, actual_side=10.0)
        only_large = run_sweep(SweepConfig(aux_sides=(12.0,)))
        with pytest.raises(ValueError, match="smaller"):
            check_conclusions(*only_large, actual_side=10.0)

    def test_requires_known_actual_side(self, sweep):
        with pytest.raises(ValueError, match="actual_side"):
            check_conclusions(*sweep, actual_side=9.0)

    def test_threshold_validation(self, sweep):
        with pytest.raises(ValueError, match="below"):
            check_conclusions(*sweep, actual_side=10.0, high_iou_threshold=0.2, low_iou_threshold=0.5)
        with pytest.raises(ValueError, match="finite"):
            check_conclusions(*sweep, actual_side=10.0, high_iou_threshold=math.nan)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            check_conclusions(np.array([]), {}, {}, actual_side=10.0)

    def test_tight_low_threshold_fails_conclusion_three(self, sweep):
        # with the cutoff raised into the overlapping band, the larger
        # auxiliary no longer dominates everywhere, which is exactly why
        # the default cutoff is the zero-overlap boundary
        rep = check_conclusions(*sweep, actual_side=10.0, low_iou_threshold=0.3)
        assert rep.c3.checked > 80
        assert not rep.c3.vacuous
        assert not rep.c3.passed
