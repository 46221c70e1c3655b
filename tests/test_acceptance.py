"""Acceptance suite: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py``; the verbose line of each
test is the pass/fail record for that criterion. Tolerances and budgets
are pinned in the asserts. The two convergence-ordering criteria evaluate
every base loss and report a per-base table; they are expected to fail
honestly for the bases where the auxiliary-box substitution provably
cannot win (see the assertion message), and they use the largest step size
at which both variants of every base still descend stably, since the
default step is tuned for stability rather than raciness.
"""

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
    iou_batch,
    run_simulation,
    scenario_specs,
)
from ioulab.cli import main as cli_main
from ioulab.sweep import SweepConfig, check_conclusions, run_sweep

from helpers import grad_fd_batch, random_integer_box, random_smooth_pairs, raster_iou

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
    gap = np.abs(inner - iou_batch(anchors, gts))
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
        assert iou_batch(a.as_tuple(), b.as_tuple()) == raster_iou(a, b), f"mismatch on {a} vs {b}"
        checked += 1
    assert checked == 10_000


def test_criterion_5_deviation_sweep_conclusions(capsys):
    c1, c2, c3 = check_conclusions(*run_sweep(SweepConfig()), actual_side=10.0)["conclusions"].values()
    assert c1["passed"], "overlap trends are not consistent across scales"
    assert c2["passed"] and not c2["vacuous"], "no high-overlap region where the smaller auxiliary is steeper"
    assert c3["passed"] and not c3["vacuous"], "no zero-overlap region where the larger auxiliary is steeper"
    assert len(c2["regions"]) > 0 and len(c3["regions"]) > 0

    exit_code = cli_main(["sweep"])
    capsys.readouterr()
    assert exit_code == 0


def _scenario_results(name):
    preset = SCENARIOS[name]
    cfg = SimConfig(
        specs=scenario_specs(preset["ratio"]),
        radius=preset["radius"],
        n_points=100,
        iterations=200,
        step_size=preset["step_size"],
        seed=0,
    )
    start = time.perf_counter()
    summaries = run_simulation(cfg, threads=1)
    elapsed = time.perf_counter() - start
    finals = {s.label: float(s.total_error_curve[-1]) for s in summaries}
    return finals, elapsed


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
    finals, elapsed = high_overlap_run
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
    finals, elapsed = low_overlap_run
    table, failures = _ordering_table(finals, SCENARIOS["low"]["ratio"])
    print(f"\nfinal total error after 200 iterations (34300 cases, step 0.3):\n{table}")
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    # Known honest failure: the plain overlap loss is blind to anchors that
    # never overlap, and the enlarged auxiliaries reach overlap on exactly
    # the same iteration for every case that does, so both variants trace
    # bitwise-identical trajectories and the strict ordering cannot hold.
    assert not failures, (
        "auxiliary variant did not converge faster for: "
        + ", ".join(failures)
        + "\n"
        + table
    )


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
