"""Acceptance suite: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py``; the verbose line of each
test is the pass/fail record for that criterion. Tolerances and budgets
are pinned in the asserts. The two convergence-ordering criteria evaluate
every base loss and report a per-base table; they are expected to fail
honestly for the bases where the auxiliary-box substitution provably
cannot win (see the assertion message), and they use the largest step size
at which both variants of every base still descend stably, since the
default step is tuned for stability rather than raciness. One more test
pins the bits of both criteria's runs, so a passing test guards what the
two failing ones print.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from ioulab import (
    BASE_NAMES,
    SCENARIOS,
    LossSpec,
    SimConfig,
    eval_batch,
    generate_case_arrays,
    run_simulation,
    scenario_config,
)
from ioulab.cli import main as cli_main
from ioulab.sweep import SweepConfig, check_conclusions, run_sweep

from helpers import (
    RECORDED_HOST,
    grad_fd_batch,
    plain_iou,
    random_integer_box,
    random_smooth_pairs,
    raster_iou,
    skip_off_host,
)

pytestmark = pytest.mark.acceptance


def _random_population(seed: int, n: int):
    rng = np.random.default_rng(seed)
    def draw():
        return np.column_stack(
            [
                rng.uniform(-50, 50, n),
                rng.uniform(-50, 50, n),
                rng.uniform(0.1, 20, n),
                rng.uniform(0.1, 20, n),
            ]
        )
    return draw(), draw()


def test_criterion_1_degeneration_identity_at_ratio_one():
    start = time.perf_counter()
    anchors, gts = _random_population(101, 100_000)

    inner = eval_batch(LossSpec("iou", inner=1.0), anchors, gts, with_grad=False).inner_iou
    gap = np.abs(inner - plain_iou(anchors, gts))
    assert gap.max() <= 1e-12, f"inner overlap at ratio 1 deviates by {gap.max():.3e}"

    for base in BASE_NAMES:
        plain = eval_batch(LossSpec(base), anchors, gts, with_grad=False).loss
        wrapped = eval_batch(LossSpec(base, inner=1.0), anchors, gts, with_grad=False).loss
        worst = np.abs(plain - wrapped).max()
        assert worst <= 1e-12, f"{base}: ratio-1 wrapper deviates by {worst:.3e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_2_composition_identity():
    anchors, gts = _random_population(102, 100_000)
    for base in [b for b in BASE_NAMES if b != "iou"]:
        base_loss = eval_batch(LossSpec(base), anchors, gts, with_grad=False).loss
        for ratio in (0.5, 0.7, 0.8, 1.2, 1.5):
            res = eval_batch(LossSpec(base, inner=ratio), anchors, gts, with_grad=False)
            gap = np.abs(res.loss - (base_loss + res.iou - res.inner_iou)).max()
            assert gap <= 1e-12, f"{base} ratio {ratio}: identity off by {gap:.3e}"


def test_criterion_3_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    anchors, gts = random_smooth_pairs(rng, 10_000)

    specs = [LossSpec(b) for b in BASE_NAMES]
    specs += [
        LossSpec(b, inner=r) for b in BASE_NAMES for r in (0.5, 0.8, 1.0, 1.2, 1.5)
    ]
    worst_abs = 0.0
    for spec in specs:
        analytic = eval_batch(spec, anchors, gts, with_grad=True).grad
        fd = grad_fd_batch(spec, anchors, gts, step=1e-5)
        scale = np.maximum(np.abs(analytic), np.abs(fd))
        bad = np.abs(analytic - fd) > np.maximum(1e-4 * scale, 1e-7)
        assert not bad.any(), (
            f"{spec.label()}: {np.count_nonzero(bad)} of {bad.size} gradient "
            f"components disagree with the finite-difference probe"
        )
        worst_abs = max(worst_abs, float(np.abs(analytic - fd).max()))

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s (worst gap {worst_abs:.2e})"


def test_criterion_4_overlap_matches_cell_counting_oracle():
    rng = np.random.default_rng(104)
    checked = 0
    for _ in range(10_000):
        a = random_integer_box(rng)
        b = random_integer_box(rng)
        assert plain_iou(a, b) == raster_iou(a, b), f"mismatch on {a} vs {b}"
        checked += 1
    assert checked == 10_000


def test_criterion_5_deviation_sweep_conclusions(capsys):
    cfg = SweepConfig()
    c1, c2, c3 = check_conclusions(cfg, *run_sweep(cfg))["conclusions"].values()
    assert c1["passed"], "overlap trends are not consistent across scales"
    assert c2["passed"] and not c2["vacuous"], "no high-overlap region where the smaller auxiliary is steeper"
    assert c3["passed"] and not c3["vacuous"], "no zero-overlap region where the larger auxiliary is steeper"
    assert len(c2["regions"]) > 0 and len(c3["regions"]) > 0

    exit_code = cli_main(["sweep"])
    capsys.readouterr()
    assert exit_code == 0


def _scenario_results(name):
    cfg = scenario_config(name, n_points=100, iterations=200, seed=0)
    start = time.perf_counter()
    # one worker process per usable CPU: criterion 9 holds the bytes to one worker's
    summaries = run_simulation(cfg, threads=0)
    elapsed = time.perf_counter() - start
    finals = {s.label: float(s.total_error_curve[-1]) for s in summaries}
    curves = {s.label: s.total_error_curve for s in summaries}
    return finals, elapsed, curves


@pytest.fixture(scope="module")
def high_overlap_run():
    return _scenario_results("high")


@pytest.fixture(scope="module")
def low_overlap_run():
    return _scenario_results("low")


def _ordering_table(finals, ratio):
    lines = []
    failures = []
    for base in BASE_NAMES:
        plain = finals[base]
        inner = finals[f"inner-{base}({ratio:g})"]
        ok = inner < plain
        lines.append(
            f"  {base:>4}: inner {inner:.6f} {'<' if ok else '>=':>2} plain {plain:.6f}"
            f"  {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(base)
    return "\n".join(lines), failures


def test_criterion_6_high_overlap_auxiliary_converges_faster(high_overlap_run):
    finals, elapsed, _ = high_overlap_run
    table, failures = _ordering_table(finals, SCENARIOS["high"]["ratio"])
    print(f"\nfinal total error after 200 iterations (34300 cases, step 0.2):\n{table}")
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    # Known honest failures: with the shrunken auxiliary, iou stalls in the
    # band where the auxiliaries are disjoint while the originals overlap,
    # giou's enclosure penalty nearly vanishes in that band, and siou stalls
    # the same way; no step size fixes those (scanned 0.01-0.5).
    assert not failures, (
        "auxiliary variant did not converge faster for: "
        + ", ".join(failures)
        + "\n"
        + table
    )


def test_criterion_7_low_overlap_auxiliary_converges_faster(low_overlap_run):
    finals, elapsed, _ = low_overlap_run
    table, failures = _ordering_table(finals, SCENARIOS["low"]["ratio"])
    print(f"\nfinal total error after 200 iterations (34300 cases, step 0.3):\n{table}")
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    # Known honest failure: not one start overlaps its target, neither plain
    # nor with both boxes enlarged to ratio 1.2, so iou and inner-iou(1.2)
    # have a zero gradient on every case from the first step. No anchor
    # moves, both curves stay at the same initial error, and the strict
    # ordering cannot hold.
    assert not failures, (
        "auxiliary variant did not converge faster for: "
        + ", ".join(failures)
        + "\n"
        + table
    )


# sha256 of each spec's float64 total-error curve in the two runs above,
# recorded on RECORDED_HOST. Criteria 6 and 7 print only the final totals,
# and fail; this passing test fails on any moved bit of a curve, a move in
# siou's criterion-7 margin of about 2e-8 included.
CRITERION_CURVES_SHA256 = {
    ("high", "iou"): "38436752e7e61ebbfff991865a377464c8d22352ac07ca303b1e906ba236318e",
    ("high", "inner-iou(0.8)"): "f85df80a2ab3a0a5eedeab51c8c142cb5fe0f65d887ca8591211f5a3781a542c",
    ("high", "giou"): "e0deb5945c5452b1438a01a7ae881d7b57912dba6ffbccf722aa29af152ba34c",
    ("high", "inner-giou(0.8)"): "bae248debe06d3d10c3fffd1f77d7f57a477c5488c1f72959e83fabd023e8f4d",
    ("high", "diou"): "9d2389e95776b6ebda6d455adb101eaa1bb89134f89e824739f3e6d50cdc1b71",
    ("high", "inner-diou(0.8)"): "6e33a65b2af091dee0474e801d5b658d487f2fd5578129ba754fe00626da3ad6",
    ("high", "ciou"): "9f6909cc13eeaf8294797b6b17096a3eb74814afa7b89031d44c44b9d11311ac",
    ("high", "inner-ciou(0.8)"): "8a447a04f78d6224c13a2649c3da73bcc76a1d10f93c3f826080a67fa3cedec8",
    ("high", "eiou"): "ecffe829eda9b0478d22c3145dcdd593540beacdcd32407d54396fe03689f9ac",
    ("high", "inner-eiou(0.8)"): "84fce8ff2797ec14f57f2264f0a87aa3ec3591ec295cff6a943b223cd6e7607b",
    ("high", "siou"): "6e5a5305f5e8d883b9197b7e58cffd3b10931e214b77a69713525f0809435643",
    ("high", "inner-siou(0.8)"): "2b3c81eaa0cf610fdcade02ebc4f73acf1d110701f00fe5142ded2b0dfc11df2",
    ("low", "iou"): "843ae2273eec54d6759f47cf268bb318506f5f6360643880558461dea0abc1cf",
    ("low", "inner-iou(1.2)"): "843ae2273eec54d6759f47cf268bb318506f5f6360643880558461dea0abc1cf",
    ("low", "giou"): "98e4ee759eed7572879cd21418cb8f56cf47bc019449a050462ecb08c9b75a09",
    ("low", "inner-giou(1.2)"): "51a7d4613b99d02ea0aa4046b6fe9e7cff1f0168c66b4a4fc31e89af4576d86f",
    ("low", "diou"): "612fbf293d9b511bbb015b492bd21fed29055e1517f8bf937fb4390f58cf88d7",
    ("low", "inner-diou(1.2)"): "4dceec66be80438195b94829203dce9d14f5ecee4ef330d0456f383468c4ccc0",
    ("low", "ciou"): "1304343b6bbf10911fac11b8e55cdb15c6c835dbe376065e49d813453a5a4759",
    ("low", "inner-ciou(1.2)"): "48fb6e02e1578222068fd824d4779e6126cc8ce5f6bfd89738b2fdbb404158d1",
    ("low", "eiou"): "7bdcfd09880030b37b979ac3d36b5db0d7b1269a68286e4e145323a425c5faa6",
    ("low", "inner-eiou(1.2)"): "a7029f9681047c4b74209a0a48f98a88e462566279f35991c0c78da6cfb0cbee",
    ("low", "siou"): "7a54ffe71427120f02c2ce5690c9e72bab9bccd4fdc41a0806b9b622d771520f",
    ("low", "inner-siou(1.2)"): "3dd5d8e2e85fda46de44b296088b7752a19fb8320ae0d8d17adcf9e0f8307b03",
}


def test_criterion_6_and_7_curves_are_pinned(high_overlap_run, low_overlap_run):
    skip_off_host(RECORDED_HOST, "CRITERION_CURVES_SHA256")
    got = {}
    for name, (_, _, curves) in (("high", high_overlap_run), ("low", low_overlap_run)):
        for label, curve in curves.items():
            got[name, label] = hashlib.sha256(np.asarray(curve, dtype=np.float64).tobytes()).hexdigest()
    assert got == CRITERION_CURVES_SHA256


def test_criterion_8_default_case_population_size():
    cfg = SimConfig(specs=(LossSpec("ciou"),))
    assert cfg.case_count == 686000
    anchors, targets = generate_case_arrays(cfg)
    assert anchors.shape == (686000, 4)
    assert targets.shape == (686000, 4)


def test_criterion_9_simulation_output_is_byte_identical(tmp_path, capsys):
    cfg = SimConfig(
        specs=(LossSpec("ciou"), LossSpec("ciou", inner=0.8)),
        n_points=40,  # 13720 cases: spans multiple reduction chunks
        iterations=25,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))

    outputs = {}
    for name, threads in (("first", "1"), ("second", "1"), ("pooled", "8")):
        out = tmp_path / name
        code = cli_main(["sim", "--config", str(cfg_path), "--threads", threads, "--out", str(out)])
        assert code == 0
        outputs[name] = (out / "summary.csv").read_bytes()
    capsys.readouterr()

    assert outputs["first"] == outputs["second"], "repeat run changed summary.csv"
    assert outputs["first"] == outputs["pooled"], "thread count changed summary.csv"
