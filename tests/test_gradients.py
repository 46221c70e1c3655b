import math

import numpy as np
import pytest

from ioulab import (
    BASE_NAMES,
    LossSpec,
    eval_batch,
    run_simulation,
    scenario_config,
)
from ioulab import simlab

from helpers import grad_fd_batch, random_smooth_pairs, smooth_mask, spec_matrix

# Acceptance bound for the finite-difference cross-check: relative 1e-4
# with an absolute floor of 1e-7 for components near zero.
FD_REL = 1e-4
FD_ABS = 1e-7


def fd_agrees(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    return np.abs(analytic - fd) <= np.maximum(FD_REL * scale, FD_ABS)


class TestFrozenValues:
    def test_iou_dx_half_overlap(self):
        dx, dy, _, _ = eval_batch(LossSpec("iou"), (0, 0, 10, 10), (5, 0, 10, 10)).grad
        assert dx == pytest.approx(-2000.0 / 22500.0, rel=1e-12)
        assert dy == 0.0

    def test_iou_dx_matches_fd(self):
        a, gt = (0, 0, 10, 10), (5, 0, 10, 10)
        dx = grad_fd_batch(LossSpec("iou"), a, gt)[0]
        assert dx == pytest.approx(-2000.0 / 22500.0, abs=1e-8)


class TestStationaryPoints:
    @pytest.mark.parametrize("spec", spec_matrix(), ids=str)
    def test_coincident_boxes_are_stationary(self, spec):
        # Tied edges split their weight evenly, so the coincident
        # configuration is an exact zero of every gradient; dx = dy = 0
        # is also forced by symmetry.
        b = (11.375, -2.625, 6.5, 3.25)
        g = eval_batch(spec, b, b).grad
        assert g.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_disjoint_overlap_term_is_flat(self):
        a, gt = (0, 0, 10, 10), (30, 0, 10, 10)
        g = eval_batch(LossSpec("iou"), a, gt).grad
        assert g.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_giou_pulls_disjoint_boxes_together(self):
        a, gt = (0, 0, 10, 10), (30, 0, 10, 10)
        dx = eval_batch(LossSpec("giou"), a, gt).grad[0]
        # anchor sits left of the target: increasing x must decrease the loss
        assert dx < 0.0

    def test_diou_concentric_centers_stationary_in_xy(self):
        a, gt = (0, 0, 10, 10), (0, 0, 4, 4)
        g = eval_batch(LossSpec("diou"), a, gt).grad
        assert g[0] == 0.0 and g[1] == 0.0
        f = grad_fd_batch(LossSpec("diou"), a, gt)
        assert abs(f[0]) < 1e-8 and abs(f[1]) < 1e-8


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("spec", spec_matrix(), ids=str)
    def test_smooth_pairs(self, spec):
        rng = np.random.default_rng(31)
        anchors, gts = random_smooth_pairs(rng, 200)
        analytic = eval_batch(spec, anchors, gts, with_grad=True).grad
        fd = grad_fd_batch(spec, anchors, gts)
        ok = fd_agrees(analytic, fd)
        assert ok.all(), (
            f"{spec.label()}: {np.count_nonzero(~ok)} components disagree, "
            f"worst abs diff {np.abs(analytic - fd).max():.3e}"
        )

    def test_descent_states(self, monkeypatch):
        # The states a high-preset descent visits after its first steps,
        # kept where they are smooth as for random pairs.
        cfg = scenario_config("high", n_points=4, iterations=4)
        visited = {}
        kernel = simlab.eval_batch

        def recording(spec, anchors, target, **kwargs):
            # the loop passes a (4, n) block and its prepared target; keep
            # the anchors and the target's gt block as (n, 4) rows
            visited.setdefault(spec, []).append((np.array(anchors).T, np.array(target.box).T))
            return kernel(spec, anchors, target, **kwargs)

        monkeypatch.setattr(simlab, "eval_batch", recording)
        run_simulation(cfg)
        assert list(visited) == list(cfg.specs)
        for spec, calls in visited.items():
            anchors = np.concatenate([a for a, _ in calls[1:]])
            gts = np.concatenate([g for _, g in calls[1:]])
            smooth = smooth_mask(anchors, gts)
            assert np.count_nonzero(smooth) >= 1000, spec.label()
            anchors, gts = anchors[smooth], gts[smooth]
            analytic = eval_batch(spec, anchors, gts, with_grad=True).grad
            fd = grad_fd_batch(spec, anchors, gts)
            ok = fd_agrees(analytic, fd)
            assert ok.all(), (
                f"{spec.label()}: {np.count_nonzero(~ok)} components disagree, "
                f"worst abs diff {np.abs(analytic - fd).max():.3e}"
            )

    def test_step_sweep_converges(self):
        spec = LossSpec("diou")
        a, gt = (0.7, -1.3, 9.0, 6.0), (3.2, 1.9, 5.0, 8.0)
        exact = eval_batch(spec, a, gt).grad
        errs = [
            np.abs(grad_fd_batch(spec, a, gt, step=s) - exact).max()
            for s in (1e-3, 1e-4, 1e-5)
        ]
        assert errs[1] < errs[0]
        assert errs[2] < errs[0]
        assert errs[2] < 1e-8

    def test_step_validation(self):
        a, gt = (0, 0, 10, 10), (5, 0, 10, 10)
        with pytest.raises(ValueError, match="step"):
            grad_fd_batch(LossSpec("iou"), a, gt, step=0.0)
        with pytest.raises(ValueError, match="non-positive"):
            grad_fd_batch(LossSpec("iou"), (0, 0, 1e-5, 1.0), gt, step=2e-5)


class TestConventions:
    def test_ratio_one_matches_plain_gradient(self):
        rng = np.random.default_rng(33)
        anchors, gts = random_smooth_pairs(rng, 100)
        for base in BASE_NAMES:
            plain = eval_batch(LossSpec(base), anchors, gts, with_grad=True).grad
            wrapped = eval_batch(LossSpec(base, inner=1.0), anchors, gts, with_grad=True).grad
            assert np.abs(plain - wrapped).max() <= 1e-10

    @pytest.mark.parametrize("base", ["iou", "giou", "diou", "eiou"])
    def test_mirror_antisymmetry(self, base):
        # Mirroring the gt across the anchor center reflects the whole
        # configuration, so the center partials flip and the size partials
        # stay put. Grid-aligned coordinates keep the reflection exact.
        rng = np.random.default_rng(34)
        spec = LossSpec(base)
        for _ in range(50):
            a = (*(np.round(rng.uniform(-16, 16, 2) * 8) / 8), *(np.round(rng.uniform(1, 12, 2) * 8) / 8))
            g = (*(np.round(rng.uniform(-16, 16, 2) * 8) / 8), *(np.round(rng.uniform(1, 12, 2) * 8) / 8))
            ga = eval_batch(spec, a, g).grad
            gm = eval_batch(spec, a, (2 * a[0] - g[0], 2 * a[1] - g[1], g[2], g[3])).grad
            assert gm[0] == pytest.approx(-ga[0], abs=1e-12)
            assert gm[1] == pytest.approx(-ga[1], abs=1e-12)
            assert gm[2] == pytest.approx(ga[2], abs=1e-12)
            assert gm[3] == pytest.approx(ga[3], abs=1e-12)

    def test_ciou_fd_only_matches_with_frozen_alpha(self):
        # The aspect weight is a constant of the evaluation point; a probe
        # that re-resolves it at each perturbation measures a different
        # function and must visibly disagree on aspect-mismatched pairs.
        spec = LossSpec("ciou")
        a, gt = (0, 0, 10, 5), (0, 0, 5, 10)
        exact = eval_batch(spec, a, gt).grad
        frozen = grad_fd_batch(spec, a, gt)
        assert np.abs(exact - frozen).max() < 1e-7

        step = 1e-5
        naive = []
        for k in range(4):
            hi = np.array(a, dtype=float)
            lo = hi.copy()
            hi[k] += step
            lo[k] -= step
            f_hi = eval_batch(spec, hi, gt).loss
            f_lo = eval_batch(spec, lo, gt).loss
            naive.append((f_hi - f_lo) / (2 * step))
        assert np.abs(exact - np.array(naive)).max() > 1e-6


def absgrad(spec: LossSpec, anchor, gt, axis: str = "x") -> float:
    """|d(overlap)/d(center deviation)| as the sweep reads it: 1 - overlap is the iou loss."""
    dx, dy, _, _ = eval_batch(spec, anchor, gt).grad
    return abs(dx if axis == "x" else dy)


class TestGradMagnitude1d:
    def test_hand_differentiated_half_overlap(self):
        # d/dx of the overlap quotient for side-10 squares at deviation 5
        v = absgrad(LossSpec("iou"), (5, 0, 10, 10), (0, 0, 10, 10))
        assert v == pytest.approx(2000.0 / 22500.0, rel=1e-12)

    def test_disjoint_plateau(self):
        v = absgrad(LossSpec("iou"), (15, 0, 10, 10), (0, 0, 10, 10))
        assert v == 0.0

    def test_magnitude_continuous_across_zero_deviation(self):
        gt = (0, 0, 10, 10)
        left = absgrad(LossSpec("iou"), (-1e-6, 0, 10, 10), gt)
        right = absgrad(LossSpec("iou"), (1e-6, 0, 10, 10), gt)
        assert left == pytest.approx(right, rel=1e-4)
        # one-sided limit of |dIoU/d(deviation)|: 2*s*A/A^2 = 0.2 for side 10
        assert right == pytest.approx(0.2, rel=1e-4)

    def test_inner_spec_reads_auxiliary_overlap(self):
        a, gt = (8, 0, 10, 10), (0, 0, 10, 10)
        plain = absgrad(LossSpec("iou"), a, gt)
        aux = absgrad(LossSpec("iou", inner=0.5), a, gt)
        assert plain > 0.0
        assert aux == 0.0  # the shrunken boxes are already disjoint

    def test_y_axis(self):
        v = absgrad(LossSpec("iou"), (0, 5, 10, 10), (0, 0, 10, 10), axis="y")
        assert v == pytest.approx(2000.0 / 22500.0, rel=1e-12)
