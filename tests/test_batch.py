import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ioulab import (
    BASE_NAMES,
    SCENARIOS,
    LossSpec,
    eval_batch,
    generate_case_arrays,
    scenario_config,
)
from ioulab.simlab import CHUNK_CASES
from ioulab.batch import (
    BatchEval,
    Scratch,
    _blocks,
    _edges,
    _overlap,
    _pick,
    eval_blocks,
    prepare_target,
)

from helpers import (
    RECORDED_HOST,
    TEST_RATIOS,
    pick_reference,
    plain_iou,
    random_box,
    random_integer_box,
    raster_iou,
    reference_blocks,
    skip_off_host,
    spec_matrix,
)


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
    def test_iou_matches_scalar_bitwise(self):
        anchors, gts = _random_arrays(50, 2000)
        batched = plain_iou(anchors, gts)
        for i in range(0, 2000, 37):
            assert batched[i] == plain_iou(anchors[i], gts[i])

    @pytest.mark.parametrize("ratio", TEST_RATIOS)
    def test_inner_iou_batch_matches_scalar_bitwise(self, ratio):
        anchors, gts = _random_arrays(51, 500)
        batched = eval_batch(LossSpec("iou", inner=ratio), anchors, gts, with_grad=False).inner_iou
        scale = np.array([1.0, 1.0, ratio, ratio])
        for i in range(0, 500, 11):
            # the auxiliary overlap is the plain overlap of the rescaled boxes
            assert batched[i] == plain_iou(anchors[i] * scale, gts[i] * scale)

    def test_iou_never_exceeds_one_on_near_coincident_pairs(self):
        rng = np.random.default_rng(52)
        anchors, _ = _random_arrays(53, 20000)
        # adversarial: perturb by a few ulps so the quotient is as close
        # to 1 as float arithmetic allows
        gts = anchors * (1.0 + rng.integers(-4, 5, anchors.shape) * np.finfo(float).eps)
        v = plain_iou(anchors, gts)
        assert np.all(v <= 1.0)
        assert np.all(v >= 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="trailing axis"):
            plain_iou(np.zeros((5, 3)), np.zeros((5, 4)))


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

    def test_shapes_that_do_not_broadcast_are_named(self):
        with pytest.raises(ValueError, match=r"anchors of shape \(3, 4\) and gts of shape \(2, 4\)"):
            eval_batch(LossSpec("iou"), np.ones((3, 4)), np.ones((2, 4)))

    @pytest.mark.parametrize(
        "spec", [LossSpec(b, inner=r) for b in BASE_NAMES for r in (None, 0.8)], ids=LossSpec.label
    )
    @pytest.mark.parametrize("gts", [np.ones(4), np.ones((0, 4))], ids=["one-gt", "empty-gts"])
    def test_empty_anchors_give_empty_outputs(self, spec, gts):
        # one gt column broadcasts to the anchors' zero columns
        res = eval_batch(spec, np.ones((0, 4)), gts, with_grad=True)
        assert res.loss.shape == res.iou.shape == (0,)
        assert res.grad.shape == (0, 4)

    def test_one_gt_is_never_tiled(self):
        anchors, gts = _random_arrays(61, 20_000)
        spec = LossSpec("ciou", inner=0.8)
        peaks = []
        for gt in (gts[0], np.tile(gts[0], (20_000, 1))):
            tracemalloc.start()
            try:
                res = eval_batch(spec, anchors, gt, with_grad=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del res
        # the tiled call holds at least its (4, n) gt block more
        assert peaks[1] - peaks[0] >= 4 * 20_000 * 8, peaks

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
        target = prepare_target(g, spec)
        # the descent takes the columns of the target it built once
        taken = target.take(rows)
        want = prepare_target(g[:, rows], spec)
        assert [None if f is None else f.tobytes() for f in taken] == [
            None if f is None else f.tobytes() for f in want
        ]
        # both passes: the descent's gradient pass and the forward pass
        for with_grad in (True, False):
            full = eval_blocks(spec, a, target, with_grad=with_grad)
            part = eval_blocks(spec, a[:, rows], taken, with_grad=with_grad)
            for name in ("loss", "iou", "inner_iou", "grad"):
                want, got = getattr(full, name), getattr(part, name)
                if want is None:
                    assert got is None, name
                else:
                    assert got.tobytes() == want[rows].tobytes(), name


def tie_heavy_blocks(n: int = 20_000, seed: int = 13) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (4, n) anchor and gt blocks, most of them at a kink of some loss.

    Two fifths are random float pairs, two fifths integer-grid pairs whose
    edges and centres often tie, one tenth share the gt's x centre and width
    exactly, and one tenth are coincident. Grid centres carry a random sign,
    so some are -0.0.
    """
    rng = np.random.default_rng(seed)
    m = n // 10

    def floats(k):
        return np.stack([rng.uniform(-6, 6, k), rng.uniform(-6, 6, k),
                         rng.uniform(0.5, 12, k), rng.uniform(0.5, 12, k)])

    def grid(k):
        box = np.stack([rng.integers(-4, 5, k), rng.integers(-4, 5, k),
                        rng.integers(1, 9, k), rng.integers(1, 9, k)]).astype(np.float64)
        box[:2] *= rng.choice([-1.0, 1.0], size=(2, k))
        return box

    gts = np.concatenate([floats(4 * m), grid(4 * m), grid(m), floats(m)], axis=1)
    shared = grid(m)
    shared[[0, 2]] = gts[[0, 2], 8 * m:9 * m]
    anchors = np.concatenate([floats(4 * m), grid(4 * m), shared, gts[:, 9 * m:]], axis=1)
    return anchors, gts


def outputs_digest(ev) -> str:
    """sha256 over every output of one kernel call, each field named, terms by key."""
    h = hashlib.sha256()
    fields = [("loss", ev.loss), ("iou", ev.iou), ("inner_iou", ev.inner_iou), ("grad", ev.grad)]
    for name, value in fields + sorted(ev.terms.items()):
        h.update(name.encode())
        if value is not None:
            h.update(np.asarray(value, dtype=np.float64).tobytes())
    return h.hexdigest()


PINNED_SPECS = [LossSpec(b, inner=r) for b in BASE_NAMES for r in (None, 0.8, 1.0, 1.2)]

# outputs_digest of eval_blocks on tie_heavy_blocks(), with the gradient, as
# the kernel gave them in one pass before its tie weights became comparisons,
# before it took a prepared target and before the gradient pass dropped the
# loss and terms: a kernel change that moves any bit fails here. Recorded on
# RECORDED_HOST, and skipped elsewhere: under an AVX2 dispatch numpy's arctan
# and exp give other last bits, so the ciou and siou digests differ there on
# correct code. TestReference is the check that holds on any host.
KERNEL_SHA256 = {
    "iou": "d51931af7c1feda2abad6b759266c26e472a9c2ed7907bb5ae423424cbb484aa",
    "inner-iou(0.8)": "53eb4a204bf24ebf6c259ff66b4525a65a719605ad0acd1ddf5fc4ff19e35ced",
    "inner-iou(1)": "84f254e9e9ecf6379a01bfbbb96c3d5772fc3a976011e92a042ea5c491aa4cb1",
    "inner-iou(1.2)": "fd5257b91177e7a2abefefbdd5dc85a190835191696fac3797b7898c8abed5a4",
    "giou": "61cb013f1c38f9c051b117ccc06972c1ea17dce98622a3cde8dcd0001bdf53bc",
    "inner-giou(0.8)": "4642f76a9b116e9aa020a67b138101b03b35b7339637ecf0ab3ccd8a27a4590a",
    "inner-giou(1)": "f01cad8e01649881352310b1c379a93ff0047be7b9026a2cea5b2924d2026c23",
    "inner-giou(1.2)": "7793dd38e5161fdf24d17db5f97eaf65ddf9b18dbfe42461269249e5d3e30bad",
    "diou": "59d41339b75103fb5adf2331f8bd9acf026b1bc1aa7181ad5424171ac58002e7",
    "inner-diou(0.8)": "434de48182882176d98b7d8a9e1e72033de29365f53dd643ea99112a7988504c",
    "inner-diou(1)": "830a92cc7f5e40b22cc036a46dd01d199c3904a89b3931502a1364b4bed849cb",
    "inner-diou(1.2)": "eefbc1ce720e8e43e50e19a780893808d75c1af1414e5341cc781c69866b4d6a",
    "ciou": "e3e1efb739360ab8f7c93b673308410dc932ab1778bf0e1d67ce77d2ed93d09e",
    "inner-ciou(0.8)": "f76223cdc9a82905e23e351075c34c71303a70ba3aaf74e754b26af77b866809",
    "inner-ciou(1)": "8d308da486e3241b4b689e519e9d8aedda4bc5d57594dde45dbb1c11b28d735a",
    "inner-ciou(1.2)": "5f10dbcb9c5d8e5ee2a76d809b5417e3542009a5e75ca5df0cd58b4c2b973ad3",
    "eiou": "9f5ca87aac6e27d4b857d96eac16e48dd568842c769ad77a33a7b73a9ed88538",
    "inner-eiou(0.8)": "a53ce663f1874d84a9d0f7f734e65527ae51077e6b7a5a8942f5f4250d436f90",
    "inner-eiou(1)": "4f0229dc93c1e4a459214599d3a553b8acbad0cbab05d2f47240c39537305a0f",
    "inner-eiou(1.2)": "e8ec2b93dc57a43d113279b69825643dc04ef9032997d17459bd049a6ac1ed54",
    "siou": "1c5726bde439640bf0713e0ea7b3898968fe719b00d50dc5d1dd67260c23128d",
    "inner-siou(0.8)": "b5676f195ed1d9721b5ee6a1f17569721c8edc1b66ee88b179b28f9a32953894",
    "inner-siou(1)": "b5e0a858abeb9d7ab7562c6064d3025aeaae89881623f097ed8f3b8f24078305",
    "inner-siou(1.2)": "eb7df5f8ecf3669e7d476c1f1d762683f1258ed50f4838ce7954afb4d8ee6323",
}


# Edges that tie often: a coarse integer grid and both signed zeros, among
# arbitrary floats.
tie_edges = st.one_of(
    st.integers(-3, 3).map(float), st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0)
)

# Box sides in the domain, still on the integer grid or among arbitrary floats.
tie_sides = tie_edges.map(lambda v: max(abs(v), 0.25))
tie_boxes = st.tuples(tie_edges, tie_edges, tie_sides, tie_sides)


class TestKernelBits:
    @given(st.lists(st.tuples(tie_edges, tie_edges, tie_edges, tie_edges), min_size=1, max_size=32))
    @settings(max_examples=300)
    def test_tie_weights_match_the_sign_reference(self, rows):
        a_lo, a_hi, g_lo, g_hi = np.array(rows).T
        w_hi, w_lo, le = np.empty_like(a_hi), np.empty_like(a_hi), np.empty(a_hi.shape, bool)
        _pick(a_hi, g_hi, w_hi, le)
        _pick(g_lo, a_lo, w_lo, le)
        assert w_hi.tobytes() == pick_reference(a_hi, g_hi).tobytes()
        assert w_lo.tobytes() == pick_reference(g_lo, a_lo).tobytes()

    @given(st.lists(st.tuples(tie_boxes, tie_boxes), min_size=1, max_size=32))
    @settings(max_examples=300)
    def test_enclosure_weights_match_the_sign_reference(self, rows):
        # the enclosure's weights, built in place of the overlap's tie weights,
        # once came from their own sign-based picks
        a, g = (block.copy() for block in np.array(rows).transpose(1, 2, 0))
        target = prepare_target(g, LossSpec("giou"))
        *_, d_ext = _overlap(a, target.plain, 1.0, True, Scratch().start(a.shape[1]), enclose=True)
        (a_lo, a_hi), (g_lo, g_hi) = _edges(a, 1.0), target.plain[:4].reshape(2, 2, -1)
        u_hi, u_lo = pick_reference(g_hi, a_hi), pick_reference(a_lo, g_lo)
        assert d_ext[0].tobytes() == (u_hi - u_lo).tobytes()
        assert d_ext[1].tobytes() == ((u_hi + u_lo) * 0.5).tobytes()

    @pytest.mark.parametrize("spec", PINNED_SPECS, ids=LossSpec.label)
    def test_outputs_are_pinned(self, spec):
        skip_off_host(RECORDED_HOST, "KERNEL_SHA256")
        a, g = tie_heavy_blocks()
        target = prepare_target(g, spec)
        fwd = eval_blocks(spec, a, target, with_grad=False)
        grad = eval_blocks(spec, a, target)
        assert fwd.grad is None
        # the gradient pass builds neither the loss nor its terms
        assert grad.loss is None and grad.terms == {}
        # the forward pass's loss and terms, the gradient pass's overlaps and grad
        merged = BatchEval(fwd.loss, grad.iou, grad.inner_iou, fwd.terms, grad.grad)
        assert outputs_digest(merged) == KERNEL_SHA256[spec.label()]
        # the public entry, with the forward pass's overlaps, gives the same bits
        public = eval_batch(spec, a.T, g.T)
        assert outputs_digest(public) == KERNEL_SHA256[spec.label()]



# One (2, 8,192) float64 array, the size of a kernel temporary on a chunk.
PAIR_BYTES = 2 * CHUNK_CASES * 8

# Per spec, the tracemalloc peak of one gradient pass on an 8,192-row chunk of
# the high preset when every call allocated its temporaries afresh, in
# PAIR_BYTES: no scratch may hold more than that.
FRESH_PEAK_PAIRS = {
    "iou": 14.0, "inner-iou": 14.0, "giou": 15.5, "inner-giou": 18.0,
    "diou": 16.5, "inner-diou": 20.0, "ciou": 19.0, "inner-ciou": 22.5,
    "eiou": 21.5, "inner-eiou": 24.0, "siou": 33.8, "inner-siou": 37.3,
}

# Per spec, what one scratch holds after a gradient pass on that chunk, in
# PAIR_BYTES, with each derivative and each edge pair one (2, 2, 8,192) slot;
# "shared" is one scratch that every high-preset spec used in turn, as a
# one-thread descent worker's does.
WARM_SCRATCH_PAIRS = {
    "iou": 9.2, "inner-iou": 9.2, "giou": 10.2, "inner-giou": 14.7,
    "diou": 10.2, "inner-diou": 12.7, "ciou": 11.7, "inner-ciou": 14.2,
    "eiou": 12.2, "inner-eiou": 16.7, "siou": 17.4, "inner-siou": 19.9,
    "shared": 21.9,
}


def chunk_blocks(rows: int = CHUNK_CASES) -> tuple[np.ndarray, np.ndarray]:
    """The first ``rows`` cases of the high preset as (4, rows) blocks, as the descent passes them."""
    anchors, targets = generate_case_arrays(scenario_config("high", n_points=rows // 343 + 1))
    return anchors[:rows].T.copy(), targets[:rows].T.copy()


class PoisonedScratch(Scratch):
    """A scratch whose every slot comes poisoned: a value the kernel reads
    before writing it is inf (0 * inf warns, and warnings are errors) or
    True, and changes some bit. A masked divide must clear its slot first."""

    def take(self, lead=1, dtype=np.float64):
        slot = super().take(lead, dtype)
        slot.fill(True if dtype is np.bool_ else np.inf)
        return slot


@pytest.fixture(scope="module")
def warm_scratch():
    """One poisoned scratch that every reference comparison reuses, at every block size."""
    return PoisonedScratch()


def assert_matches_reference(spec, a, target, scratch):
    """Both passes of ``eval_blocks`` through ``scratch`` give ``reference_blocks``'s bytes."""
    for with_grad in (True, False):
        got = eval_blocks(spec, a, target, with_grad=with_grad, scratch=scratch)
        want = reference_blocks(spec, a, target, with_grad=with_grad)
        assert outputs_digest(got) == outputs_digest(want), (spec.label(), with_grad)


class TestReference:
    """The scratch kernel performs, operation for operation, the plain
    expressions of the reference kernel in tests/helpers.py: every output
    byte of both passes is the reference's, on any host."""

    @pytest.mark.parametrize(
        "spec",
        [LossSpec(b, inner=r) for b in BASE_NAMES for r in (None, 0.5, 0.8, 1.0, 1.2, 1.5)],
        ids=LossSpec.label,
    )
    def test_tie_heavy_blocks_match_the_reference(self, spec, warm_scratch):
        a, g = tie_heavy_blocks()
        target = prepare_target(g, spec)
        assert_matches_reference(spec, a, target, warm_scratch)
        # a 37-column block in the same scratch, whose last boxes coincide
        cols = np.r_[19_963:20_000]
        assert_matches_reference(spec, a[:, cols], target.take(cols), warm_scratch)

    @given(spec=st.sampled_from(PINNED_SPECS), rows=st.lists(st.tuples(tie_boxes, tie_boxes), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_drawn_blocks_match_the_reference(self, spec, rows, warm_scratch):
        a, g = np.array(rows).transpose(1, 2, 0)
        assert_matches_reference(spec, a.copy(), prepare_target(g.copy(), spec), warm_scratch)


class TestScratch:
    """A reused scratch changes no bit, allocates nothing of the block's size
    once warm, and never lets the public entries share memory."""

    def test_reused_scratch_gives_fresh_scratch_bits(self):
        a, g = tie_heavy_blocks()
        # Blocks of 8,192, 37 and 8,192 columns; the tie-heavy rows hold
        # exact edge ties, and the last tenth coincident boxes, where siou's
        # masked divides must leave zeros in their reused slots.
        cols = [np.arange(8192), np.r_[17_990:18_027], np.arange(20_000 - 8192, 20_000)]
        assert [c.size for c in cols] == [8192, 37, 8192]
        scratch = PoisonedScratch()
        for spec in scenario_config("high").specs:
            for c in cols:
                target = prepare_target(g[:, c], spec)
                for with_grad in (True, False):
                    want = eval_blocks(spec, a[:, c], target, with_grad=with_grad)
                    got = eval_blocks(spec, a[:, c], target, with_grad=with_grad, scratch=scratch)
                    assert outputs_digest(got) == outputs_digest(want), (spec, c.size, with_grad)

    @pytest.mark.parametrize(
        "specs",
        [(spec,) for spec in scenario_config("high").specs] + [scenario_config("high").specs],
        ids=lambda specs: specs[0].label() if len(specs) == 1 else "shared",
    )
    def test_warm_call_allocates_nothing_of_the_block_size(self, specs):
        a, g = chunk_blocks()
        targets = [prepare_target(g, spec) for spec in specs]
        scratch = Scratch()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # the first calls fill the scratch, which keeps what it allocated
            for spec, target in zip(specs, targets):
                eval_blocks(spec, a, target, scratch=scratch)
            held = tracemalloc.get_traced_memory()[0] - before
            peaks = []
            for spec, target in zip(specs, targets):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                eval_blocks(spec, a, target, scratch=scratch)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        # numpy's own cast buffer (8,192 elements) is all a warm call allocates
        assert max(peaks) < PAIR_BYTES, f"{peaks} bytes"
        name = specs[0].label().split("(")[0] if len(specs) == 1 else "shared"
        if name in FRESH_PEAK_PAIRS:
            assert held / PAIR_BYTES <= FRESH_PEAK_PAIRS[name], f"{held} bytes"
        assert held / PAIR_BYTES <= WARM_SCRATCH_PAIRS[name], f"{held} bytes"

    def test_scratch_grows_to_the_largest_block(self):
        spec = LossSpec("siou", inner=0.8)
        a, g = chunk_blocks()
        scratch = Scratch()
        small = eval_blocks(spec, a[:, :37], prepare_target(g[:, :37], spec), scratch=scratch)
        kept = small.grad.copy()
        full = eval_blocks(spec, a, prepare_target(g, spec), scratch=scratch)
        want = eval_blocks(spec, a, prepare_target(g, spec))
        assert outputs_digest(full) == outputs_digest(want)
        # the small call's outputs keep the buffers they were written in
        assert small.grad.tobytes() == kept.tobytes()

    def test_every_slot_starts_on_a_cache_line(self):
        class RecordingScratch(Scratch):
            def take(self, lead=1, dtype=np.float64):
                slot = super().take(lead, dtype)
                taken.append(slot)
                return slot

        taken = []
        a, g = chunk_blocks()
        scratch = RecordingScratch()
        # the 37-column block re-views every slot, and the last one again
        for cols in (slice(None), slice(37), slice(None)):
            for spec in (LossSpec("ciou"), LossSpec("siou", inner=0.8)):
                eval_blocks(spec, a[:, cols], prepare_target(g[:, cols], spec), scratch=scratch)
        kinds = {(slot.ndim - 1, slot.dtype.type) for slot in taken}
        assert kinds == {(0, np.float64), (1, np.float64), (2, np.float64), (0, np.bool_), (1, np.bool_)}
        assert {slot.shape[-1] for slot in taken} == {8192, 37}
        assert [slot.shape for slot in taken if slot.__array_interface__["data"][0] % 64] == []

    @pytest.mark.parametrize("spec", [LossSpec("ciou"), LossSpec("siou", inner=0.8)], ids=str)
    def test_public_entries_never_share_memory(self, spec):
        a, g = chunk_blocks(1000)
        first = eval_batch(spec, a.T, g.T)
        kept = outputs_digest(first)
        second = eval_batch(spec, a.T[::-1], g.T[::-1])
        def arrays(ev):
            fields = [ev.loss, ev.iou, ev.inner_iou, ev.grad, *ev.terms.values()]
            return [x for x in fields if isinstance(x, np.ndarray)]

        for x in arrays(first):
            for y in arrays(second):
                assert not np.shares_memory(x, y)
        assert outputs_digest(first) == kept


# Coordinates bounded so a 1e-2 side never vanishes at the corner round trip.
coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
sides = st.floats(min_value=1e-2, max_value=1e3, allow_nan=False)
ratios = st.floats(min_value=0.5, max_value=1.5, allow_nan=False)


@st.composite
def boxes(draw):
    return (draw(coords), draw(coords), draw(sides), draw(sides))


def iou(a, b) -> float:
    return float(plain_iou(a, b))


def inner_iou(a, b, ratio: float) -> float:
    spec = LossSpec("iou", inner=ratio)
    return float(eval_batch(spec, a, b, with_grad=False).inner_iou)


def scale_about_center(box, ratio: float) -> tuple:
    x, y, w, h = box
    return (x, y, w * ratio, h * ratio)


def kernel_corners(box, ratio: float = 1.0) -> tuple[float, ...]:
    """(left, right, top, bottom) of the (x, y, w, h) ``box`` as the overlap kernel scales it."""
    _, block, _ = _blocks(box, box)
    low, high = _edges(block, ratio)
    return tuple(v.item() for v in (low[0], high[0], low[1], high[1]))


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
    @example(a=(0.0, 513.0, 1.0, 0.125), b=(0.0, 513.0, 1.0, 0.1), k=7.25)
    @settings(max_examples=200)
    def test_scale_invariance(self, a, b, k):
        v0 = iou(a, b)
        v1 = iou(np.multiply(a, k), np.multiply(b, k))
        # The resolution of the corner representation: each evaluation
        # rounds every corner c -+ s/2 once, so a side or overlap extent is
        # off by up to eps * (|c| + s), ``delta`` relative to the narrowest
        # side. Each iou carries about one delta per axis, and the two
        # evaluations can err in opposite directions: 4 * delta. The
        # example reaches 0.99 delta, 400,000 random draws at most 0.86.
        centre = max(abs(v) for v in a[:2] + b[:2])
        side = min(a[2:] + b[2:])
        delta = np.finfo(float).eps * (centre / side + 1.0)
        assert v1 == pytest.approx(v0, rel=4.0 * delta, abs=4.0 * delta)

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
