import numpy as np
import pytest

from ioulab import BASE_NAMES, LossSpec, eval_batch, evaluate, iou_batch

from helpers import TEST_RATIOS, random_box, spec_matrix


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
    if spec.base.value in ("ciou", "siou"):
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
    def test_matches_scalar_evaluate_bitwise(self):
        rng = np.random.default_rng(54)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(40)]
        anchors = np.array([a.as_tuple() for a, _ in pairs])
        gts = np.array([g.as_tuple() for _, g in pairs])
        for spec in spec_matrix():
            res = eval_batch(spec, anchors, gts, with_grad=True)
            for i in (0, 7, 23, 39):
                single = evaluate(spec, pairs[i][0], pairs[i][1])
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
