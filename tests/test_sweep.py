import math
import tracemalloc

import numpy as np
import pytest

from helpers import sweep_whole_array
from ioulab import iou_batch, sweep as sweep_module
from ioulab.batch import BLOCK_ROWS
from ioulab.sweep import SweepConfig, _mask_regions, check_conclusions, run_sweep


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
            # the domain: each curve's square at the deviation range's end
            (dict(box_side=1e-300, aux_sides=(8e-301, 1.2e-300)), "box_side square"),
            (dict(aux_sides=(8.0, 1e-9)), "aux_sides square"),
            (dict(aux_sides=(8.0, 12.0), deviation_range=(-1e15, 15.0)), "resolution"),
            (dict(deviation_range=(0.0, math.inf)), "finite"),
            (dict(deviation_range=(math.nan, 1.0)), "deviation_range"),
            # each curve's ratio side / box_side is a ratio LossSpec accepts
            (dict(box_side=1.0, aux_sides=(1e-4, 2.0)),
             r"aux_sides 0.0001 over box_side 1 must lie in \[0.001, 1000\], got 0.0001"),
            (dict(box_side=1e-3, aux_sides=(1e-4, 2.0)), "aux_sides 2 over box_side 0.001 must lie"),
            # the CSV names columns by each side's %g form
            (dict(aux_sides=(8.0, 8.0000001, 12.0)), r"column names, got \['10', '8', '8', '12'\]"),
            (dict(aux_sides=(8.0, 10.0000001, 12.0)), r"column names, got \['10', '8', '10', '12'\]"),
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


class TestBlocks:
    """The sweep calls the kernel on blocks of at most BLOCK_ROWS samples."""

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("block", [BLOCK_ROWS, 5])
    def test_same_bits_as_whole_array(self, monkeypatch, axis, block):
        monkeypatch.setattr(sweep_module, "BLOCK_ROWS", block)
        rows = []
        kernel = sweep_module.eval_batch

        def counting(spec, anchors, gts, **kwargs):
            rows.append(len(anchors))
            return kernel(spec, anchors, gts, **kwargs)

        monkeypatch.setattr(sweep_module, "eval_batch", counting)
        # two full blocks and a short one, over a range that crosses every
        # curve's zero-overlap point
        cfg = SweepConfig(
            aux_sides=(6.0, 8.0, 12.0, 14.0), deviation_range=(-15.5, 16.25),
            samples=2 * block + 3, axis=axis,
        )
        devs, iou, absgrad = run_sweep(cfg)
        ref_devs, ref_iou, ref_absgrad = sweep_whole_array(cfg)
        assert devs.tobytes() == ref_devs.tobytes()
        assert tuple(iou) == tuple(absgrad) == tuple(ref_iou) == cfg.sides()
        for side in cfg.sides():
            assert iou[side].tobytes() == ref_iou[side].tobytes()
            assert absgrad[side].tobytes() == ref_absgrad[side].tobytes()
        # each curve in two full blocks and the rest, never more rows in one call
        assert sorted(rows) == sorted([block, block, 3] * len(cfg.sides()))

    def test_peak_memory_stays_near_the_outputs(self):
        # The sweep-dense benchmark's shape. numpy reports every buffer it
        # allocates to tracemalloc, so the traced peak does not depend on
        # timing. A whole-array sweep peaks at about 6.2 times its outputs,
        # almost all of it kernel temporaries.
        cfg = SweepConfig(samples=50_001, aux_sides=(6.0, 8.0, 12.0, 14.0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            devs, iou, absgrad = run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        out = devs.nbytes + sum(c.nbytes for c in (*iou.values(), *absgrad.values()))
        assert peak <= 2 * out, f"peak {peak / out:.2f}x the {out} output bytes"


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
        assert rep["all_passed"] is True
        for c in rep["conclusions"].values():
            assert c["passed"] and not c["vacuous"] and c["violations"] == 0

    def test_checked_counts(self, sweep):
        c = check_conclusions(*sweep, actual_side=10.0)["conclusions"]
        # 600 displaced samples per curve -> 599 consecutive comparisons
        assert c["c1"]["checked"] == 3 * 599
        # overlap >= 0.7 for side 10: |dev| <= 30/17, 35 grid points per sign
        assert c["c2"]["checked"] == 70
        # side 10 flat, side 12 alive: 10.0 <= |dev| <= 11.95, 40 per sign
        assert c["c3"]["checked"] == 80

    def test_region_endpoints(self, sweep):
        c = check_conclusions(*sweep, actual_side=10.0)["conclusions"]
        (neg, pos) = c["c2"]["regions"]
        assert neg[0] == pytest.approx(-1.75, abs=1e-9)
        assert pos[1] == pytest.approx(1.75, abs=1e-9)
        (neg3, pos3) = c["c3"]["regions"]
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
        # the CLI prints this dict in insertion order, so the order is pinned too
        d = check_conclusions(*sweep, actual_side=10.0)
        assert list(d) == ["thresholds", "conclusions", "all_passed"]
        assert d["all_passed"] is True
        assert d["thresholds"] == {"high_iou": 0.7, "low_iou": 0.0}
        assert list(d["conclusions"]) == ["c1", "c2", "c3"]
        for c in d["conclusions"].values():
            assert list(c) == ["statement", "passed", "vacuous", "checked", "violations", "regions"]

    def test_three_sample_sweep_is_vacuous_not_passed(self):
        rep = check_conclusions(*run_sweep(SweepConfig(samples=3)), actual_side=10.0)
        c = rep["conclusions"]
        assert c["c2"]["vacuous"] and not c["c2"]["passed"]
        assert c["c3"]["vacuous"] and not c["c3"]["passed"]
        assert rep["all_passed"] is False

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
        c3 = check_conclusions(*sweep, actual_side=10.0, low_iou_threshold=0.3)["conclusions"]["c3"]
        assert c3["checked"] > 80
        assert not c3["vacuous"]
        assert not c3["passed"]
