import concurrent.futures
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

import helpers
from helpers import cases_by_index, descend_every_row
from ioulab import (
    BASE_NAMES,
    SCENARIOS,
    LossSpec,
    SimConfig,
    generate_case_arrays,
    run_simulation,
    scenario_config,
)
from ioulab import simlab
from ioulab.batch import Scratch
from ioulab.simlab import (
    ASPECTS,
    CENTER,
    CHUNK_CASES,
    MIN_SIZE,
    SCALES,
    _pcg64_draws,
    _simulate_chunk,
    _uniform,
)

# Config names for parts of the protocol that simlab fixes as constants
# (the grid, the center, the unit target area, the size clamp and the step
# rule), with values a config might give them.
REMOVED_FIELDS = {
    "center": [100.0, 100.0],
    "target_aspects": [0.5, 2.0],
    "anchor_scales": [1.0],
    "anchor_aspects": [1.0, 3.0],
    "target_area": 1.0,
    "min_size": 1e-4,
    "step_schedule": "constant",
}


def tiny_cfg(**overrides) -> SimConfig:
    base = dict(specs=(LossSpec("iou"),), n_points=1, iterations=5)
    base.update(overrides)
    return SimConfig(**base)


def simulate_chunk(spec: LossSpec, anchors, targets, cfg: SimConfig, *args, **kwargs):
    """``_simulate_chunk`` on (n, 4) cases, descending (4, n) copies of them.

    The cases of ``generate_case_arrays`` and of ``helpers.descend_every_row``
    are rows; the descent moves the (4, n) anchor block it is given.
    """
    return _simulate_chunk(spec, anchors.T.copy(), targets.T.copy(), cfg, *args, **kwargs)


def descend_one(spec: LossSpec, anchor, target, cfg: SimConfig):
    """Descend one (x, y, w, h) case: (error curve, final IoU, clamp events).

    The total-error curve of a one-row chunk is that case's error curve.
    """
    totals, _, _, final_iou, clamps = simulate_chunk(
        spec, np.array([anchor], dtype=float), np.array([target], dtype=float), cfg,
        per_case=True, scratch=Scratch(),
    )
    return totals, float(final_iou[0]), int(clamps[0])


class TestSimConfig:
    def test_defaults_match_reference_protocol(self):
        cfg = SimConfig(specs=(LossSpec("iou"),))
        assert CENTER == (100.0, 100.0)
        assert cfg.n_points == 2000
        assert cfg.radius == (0.0, 3.0)
        assert cfg.iterations == 200
        assert cfg.step_size == 0.1
        assert len(ASPECTS) == len(SCALES) == 7

    def test_case_count(self):
        assert SimConfig(specs=(LossSpec("iou"),)).case_count == 686000
        assert SimConfig(specs=(LossSpec("iou"),), n_points=10).case_count == 3430

    @pytest.mark.parametrize(
        "overrides,match",
        [
            (dict(n_points=0), "n_points"),
            (dict(iterations=0), "iterations"),
            (dict(radius=(3.0, 1.0)), "radius"),
            (dict(radius=(-1.0, 2.0)), "radius"),
            (dict(radius=(1.0, 2.0, 3.0)), r"radius must be a \[lo, hi\] pair"),
            (dict(radius=(0.0, math.inf)), "radius"),
            (dict(step_size=0.0), "step_size"),
            (dict(n_points=1.5), "n_points"),
            (dict(iterations=2.9), "iterations"),
            (dict(seed=1.7), "seed"),
            (dict(n_points=True), "n_points"),
            (dict(iterations=True), "iterations"),
            (dict(seed=True), "seed"),
            (dict(seed=-1), "seed"),
            (dict(n_points=10**400), "n_points"),
            (dict(iterations=10**400), "iterations"),
            (dict(seed=10**400), "seed"),
            # the farthest anchor's offset is beyond BOX_LIMIT
            (dict(radius=(0.0, 1e200)), "radius"),
            # 1e-4 sides vanish at the float resolution of a 1e20 offset
            (dict(radius=(1e20, 1e20)), "radius: the farthest anchor is outside"),
            (dict(radius=(0.0, math.nan)), "radius"),
            (dict(specs=(LossSpec("iou", inner=0.8), LossSpec("iou", inner=0.80000001))),
             r"distinct labels, got \['inner-iou\(0.8\)', 'inner-iou\(0.8\)'\]"),
            (dict(specs=(LossSpec("ciou"), LossSpec("ciou"))), "distinct labels"),
            # a JSON config's strings and bools are not read as numbers
            (dict(radius="03"), r"radius must be a \[lo, hi\] pair"),
            (dict(radius=3), r"radius must be a \[lo, hi\] pair"),
            (dict(radius=(0.0, True)), "radius"),
            (dict(step_size="0.1"), "step_size"),
            (dict(step_size=True), "step_size"),
            (dict(specs=LossSpec("ciou")), r"specs must be a list, got LossSpec\(base='ciou'"),
            (dict(specs=()), "specs must hold at least one loss spec"),
        ],
    )
    def test_validation(self, overrides, match):
        base = dict(specs=(LossSpec("iou"),))
        base.update(overrides)
        with pytest.raises(ValueError, match=match):
            SimConfig(**base)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_config_reads_the_preset(self, name):
        preset = SCENARIOS[name]
        cfg = scenario_config(name)
        assert (cfg.radius, cfg.step_size) == (preset["radius"], preset["step_size"])
        # every base in BASE_NAMES order, plain then inner
        assert [s.label() for s in cfg.specs] == [
            label for b in BASE_NAMES for label in (b, f"inner-{b}({preset['ratio']:g})")
        ]
        assert (cfg.n_points, cfg.iterations, cfg.seed) == (2000, 200, 0)
        # a keyword overrides the field of that name; the rest stay the preset's
        small = scenario_config(name, ("iou",), step_size=0.1, n_points=3)
        assert (small.step_size, small.n_points, small.radius) == (0.1, 3, preset["radius"])
        assert small.specs == (LossSpec("iou"), LossSpec("iou", inner=preset["ratio"]))

    def test_radius_bound_is_the_farthest_anchor(self):
        # a 1e-4 side stays in the domain up to an offset of 1e5
        assert SimConfig(specs=(LossSpec("iou"),), radius=(0.0, 9e4)).radius == (0.0, 9e4)
        with pytest.raises(ValueError, match="radius"):
            SimConfig(specs=(LossSpec("iou"),), radius=(0.0, 2e5))

    def test_specs_must_be_loss_specs(self):
        with pytest.raises(ValueError, match="LossSpec"):
            SimConfig(specs=("iou",))

    def test_dict_round_trip(self):
        cfg = tiny_cfg(specs=(LossSpec("ciou"), LossSpec("ciou", inner=0.8)), seed=7)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("name", ["stepsize", *REMOVED_FIELDS])
    def test_from_dict_unknown_field_named(self, name):
        data = tiny_cfg().to_dict()
        data[name] = REMOVED_FIELDS.get(name, 0.2)
        with pytest.raises(ValueError, match=f"unknown config field '{name}'"):
            SimConfig.from_dict(data)

    def test_from_dict_missing_specs(self):
        with pytest.raises(ValueError, match="specs"):
            SimConfig.from_dict({"n_points": 5})

    def test_from_dict_specs_must_be_a_list(self):
        with pytest.raises(ValueError, match="config field 'specs' must be a list of loss spec objects"):
            SimConfig.from_dict({"specs": {"base": "iou"}})

    def test_from_dict_bad_nested_spec(self):
        data = tiny_cfg().to_dict()
        data["specs"] = [{"base": "iou", "ratio": 0.8}]
        with pytest.raises(ValueError, match="unknown loss spec field 'ratio'"):
            SimConfig.from_dict(data)


class TestCaseGeneration:
    def test_shapes_and_count(self):
        cfg = tiny_cfg()
        anchors, targets = generate_case_arrays(cfg)
        assert anchors.shape == targets.shape == (cfg.case_count, 4)
        assert cfg.case_count == 7 * 1 * 7 * 7

    def test_deterministic_given_seed(self):
        cfg = tiny_cfg(seed=42)
        a1, t1 = generate_case_arrays(cfg)
        a2, t2 = generate_case_arrays(cfg)
        assert np.array_equal(a1, a2) and np.array_equal(t1, t2)
        a3, _ = generate_case_arrays(tiny_cfg(seed=43))
        assert not np.array_equal(a1, a3)

    def test_targets_centered_with_unit_area_and_each_aspect(self):
        cfg = tiny_cfg()
        _, targets = generate_case_arrays(cfg)
        assert np.all(targets[:, 0] == 100.0) and np.all(targets[:, 1] == 100.0)
        block = cfg.n_points * len(SCALES) * len(ASPECTS)
        for i, aspect in enumerate(ASPECTS):
            rows = targets[i * block : (i + 1) * block]
            assert np.all(rows == rows[0])
            w, h = rows[0, 2], rows[0, 3]
            assert w * h == pytest.approx(1.0, rel=1e-12)
            assert w / h == pytest.approx(aspect, rel=1e-12)

    def test_anchor_areas_aspects_and_annulus(self):
        cfg = tiny_cfg(radius=(6.0, 9.0), n_points=50)
        anchors, _ = generate_case_arrays(cfg)
        r = np.hypot(anchors[:, 0] - 100.0, anchors[:, 1] - 100.0)
        assert np.all(r >= 6.0 - 1e-9) and np.all(r <= 9.0 + 1e-9)
        ns, na = len(SCALES), len(ASPECTS)
        for row in range(0, len(anchors), 997):
            si = (row // na) % ns
            ai = row % na
            w, h = anchors[row, 2], anchors[row, 3]
            assert w * h == pytest.approx(SCALES[si], rel=1e-12)
            assert w / h == pytest.approx(ASPECTS[ai], rel=1e-12)

    def test_nesting_order(self):
        cfg = tiny_cfg(n_points=2)
        anchors, targets = generate_case_arrays(cfg)
        # innermost: anchor aspect; then scale; then sampled point; outermost target aspect
        na, per_point = len(ASPECTS), len(SCALES) * len(ASPECTS)
        assert np.array_equal(anchors[0, :2], anchors[1, :2])
        assert anchors[0, 2] != anchors[1, 2]
        assert np.array_equal(anchors[0, :2], anchors[na, :2])
        area0 = anchors[0, 2] * anchors[0, 3]
        area_next = anchors[na, 2] * anchors[na, 3]
        assert area_next == pytest.approx(SCALES[1] / SCALES[0] * area0, rel=1e-12)
        # next sampled point
        assert np.array_equal(anchors[0, :2], anchors[per_point - 1, :2])
        assert not np.array_equal(anchors[0, :2], anchors[per_point, :2])
        # the point sample is shared across target aspects
        block = cfg.n_points * per_point
        assert np.array_equal(anchors[0], anchors[block])
        assert not np.array_equal(targets[0], targets[block])


    # cases_by_index draws its points from numpy.random itself; the last three
    # are a zero radius, sim-high's population and the low preset's annulus.
    @pytest.mark.parametrize(
        "n_points,seed,radius",
        [(1, 0, (0.0, 3.0)), (3, 7, (6.0, 9.0)), (24, 1, (0.0, 3.0)), (100, 123, (0.5, 2.0)),
         (5, 0, (0.0, 0.0)), (71, 0, SCENARIOS["high"]["radius"]),
         (100, 2**40 + 3, SCENARIOS["low"]["radius"])],
    )
    def test_matches_the_index_grid_reference(self, n_points, seed, radius):
        cfg = tiny_cfg(n_points=n_points, seed=seed, radius=radius)
        for got, want in zip(generate_case_arrays(cfg), cases_by_index(cfg)):
            assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_the_outputs(self):
        # the 34,300 cases of the criterion 6/7 fixtures
        cfg = tiny_cfg(n_points=100)
        generate_case_arrays(cfg)  # warm-up, so that only the call's own allocations count
        tracemalloc.start()
        try:
            anchors, targets = generate_case_arrays(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (anchors.nbytes + targets.nbytes)

    @pytest.mark.parametrize(
        "first,end",
        # 10,290 cases, 210 groups of 49: 8,192 = 167 * 49 + 9, so the first
        # chunk ends and the last, partial one starts inside a group
        [(0, CHUNK_CASES), (CHUNK_CASES, 10290), (5000, 5001)],
        ids=["end-splits-a-group", "last-partial-chunk", "one-case"],
    )
    def test_chunk_blocks_match_the_reference(self, first, end):
        # a job's blocks, as run_simulation's jobs build them
        cfg = tiny_cfg(n_points=30, seed=3)
        got = np.empty((4, end - first)), np.empty((4, end - first))
        simlab._fill_cases(simlab._points(cfg), first, *got)
        for block, want in zip(got, cases_by_index(cfg)):
            assert block.tobytes() == want[first:end].T.tobytes()


# The seeds a SimConfig may carry, in one, two, three and more 32-bit words.
STREAM_SEEDS = (0, 1, 2, 7, 12345, 2**31, 2**32 - 1, 2**32, 2**33 + 7, 2**64 - 1, 2**64,
                2**127 + 99, 2**200 + 3, 10**40)


class TestStream:
    """simlab's seeded draws are ``numpy.random.default_rng(seed).uniform``'s, byte for byte."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_uniform_matches_numpy(self, seed):
        # consecutive calls share one stream, as the radii and angles do
        ranges = [(0.0, 9.0), (0.0, 2.0 * np.pi), (36.0, 81.0), (3.0, 3.0), (-1e3, 1e-3)]
        rng, draws = np.random.default_rng(seed), _pcg64_draws(seed)
        for lo, hi in ranges:
            want = rng.uniform(lo, hi, 300)
            got = _uniform(draws, lo, hi, 300)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), (lo, hi)


class TestRunCase:
    def test_coincident_start_stays_at_zero(self):
        cfg = tiny_cfg(iterations=20)
        b = (100.0, 100.0, 2.0, 0.5)
        for spec in (LossSpec("iou"), LossSpec("siou"), LossSpec("ciou", inner=0.8)):
            curve, final_iou, clamps = descend_one(spec, b, b, cfg)
            assert curve.shape == (21,)
            assert np.all(curve == 0.0)
            assert final_iou == 1.0
            assert clamps == 0

    def test_disjoint_overlap_loss_plateaus(self):
        cfg = tiny_cfg(iterations=10)
        curve, final_iou, _ = descend_one(LossSpec("iou"), (120, 100, 1, 1), (100, 100, 1, 1), cfg)
        assert np.all(curve == curve[0])
        assert final_iou == 0.0

    def test_enclosure_penalty_moves_disjoint_boxes(self):
        cfg = tiny_cfg(iterations=100)
        curve, _, _ = descend_one(LossSpec("giou"), (120, 100, 1, 1), (100, 100, 1, 1), cfg)
        assert curve[-1] < curve[0]

    def test_initial_error_is_spec_independent(self):
        cfg = tiny_cfg(iterations=2)
        a, t = (101, 99, 2, 1), (100, 100, 1, 1)
        errs = {descend_one(LossSpec(b), a, t, cfg)[0][0] for b in ("iou", "giou", "siou")}
        assert len(errs) == 1

    def test_single_iteration_curve_length(self):
        cfg = tiny_cfg(iterations=1)
        curve, _, _ = descend_one(LossSpec("diou"), (101, 100, 1, 1), (100, 100, 1, 1), cfg)
        assert curve.shape == (2,)

    def test_size_clamp_counts_events(self):
        # equilibrium sides sit below MIN_SIZE, so both sides clamp every step
        cfg = tiny_cfg(iterations=7)
        t = MIN_SIZE / 2.0
        curve, final_iou, clamps = descend_one(
            LossSpec("iou"), (0, 0, 2 * MIN_SIZE, 2 * MIN_SIZE), (0, 0, t, t), cfg
        )
        assert clamps == 2 * cfg.iterations
        # both sides end at MIN_SIZE: four corners, each off by MIN_SIZE / 4
        assert curve[-1] == pytest.approx(MIN_SIZE, rel=1e-9)
        assert final_iou == pytest.approx(0.25, rel=1e-9)

    def test_corner_error_metric(self):
        cfg = tiny_cfg(iterations=1)
        curve, _, _ = descend_one(LossSpec("iou"), (103, 100, 1, 1), (100, 100, 1, 1), cfg)
        assert curve[0] == pytest.approx(6.0)  # |dx| on both x corners


class TestRunSimulation:
    def test_summaries_per_spec_with_labels(self):
        cfg = tiny_cfg(specs=(LossSpec("ciou"), LossSpec("ciou", inner=0.8)))
        out = run_simulation(cfg)
        assert [s.label for s in out] == ["ciou", "inner-ciou(0.8)"]
        for s in out:
            assert s.total_error_curve.shape == (cfg.iterations + 1,)
            assert np.all(s.total_error_curve >= 0.0)

    def test_aggregation_identity_exact(self):
        cfg = tiny_cfg(specs=(LossSpec("giou"),), iterations=6)
        [summary] = run_simulation(cfg)
        anchors, targets = generate_case_arrays(cfg)
        scratch = Scratch()
        per_case = [
            simulate_chunk(cfg.specs[0], anchors[i : i + 1], targets[i : i + 1], cfg, scratch=scratch)[0]
            for i in range(cfg.case_count)
        ]
        stacked = np.array(per_case)
        for t in range(cfg.iterations + 1):
            assert np.sum(stacked[:, t].copy()) == summary.total_error_curve[t]

    def test_mean_final_and_auc_consistent(self):
        cfg = tiny_cfg(specs=(LossSpec("diou"),), iterations=9)
        [s] = run_simulation(cfg, per_case=True)
        assert s.mean_final_error == s.total_error_curve[-1] / cfg.case_count
        assert s.auc == pytest.approx(float(np.trapezoid(s.total_error_curve)), rel=1e-12)
        assert np.sum(s.case_final_error) == pytest.approx(s.total_error_curve[-1], rel=1e-12)
        assert np.sum(s.case_initial_error) == pytest.approx(s.total_error_curve[0], rel=1e-12)
        assert s.case_final_iou.shape == (cfg.case_count,)
        assert np.all(s.case_clamps >= 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mean_final_is_the_final_total_over_the_cases(self, monkeypatch, threads):
        # the mean comes from the chunk-ordered totals, not from per-case parts
        monkeypatch.setattr(simlab, "CHUNK_CASES", 64)  # 343 cases -> 6 chunks
        cfg = tiny_cfg(specs=(LossSpec("diou"), LossSpec("siou", inner=0.8)), iterations=4)
        for s in run_simulation(cfg, threads=threads):
            assert s.mean_final_error == float(s.total_error_curve[-1] / cfg.case_count), s.label
            assert s.case_final_error is None

    def test_a_job_returns_only_its_totals(self):
        cfg = tiny_cfg(specs=(LossSpec("ciou"),), iterations=3)
        job = (cfg.specs[0], (49, 200))
        totals, *rest = simlab._run_job(cfg, simlab._points(cfg), False, Scratch(), job)
        assert rest == [None, None, None, None]
        assert totals.shape == (cfg.iterations + 1,)
        [full] = run_simulation(cfg, per_case=True)
        assert totals[-1] == np.sum(full.case_final_error[49:200])

    def test_final_iou_only_for_per_case_runs(self, monkeypatch):
        cfg = tiny_cfg(specs=(LossSpec("ciou", inner=0.8),), n_points=30, iterations=3)
        chunks = -(-cfg.case_count // CHUNK_CASES)
        assert chunks > 1
        calls = []
        kernel = simlab.iou_batch

        def counting(state, target):
            calls.append(state.shape[-1])
            return kernel(state, target)

        monkeypatch.setattr(simlab, "iou_batch", counting)
        [summary] = run_simulation(cfg)
        assert calls == []
        assert summary.case_final_iou is summary.case_initial_error is summary.case_clamps is None
        [full] = run_simulation(cfg, per_case=True)
        assert calls == [CHUNK_CASES] * (chunks - 1) + [cfg.case_count % CHUNK_CASES]
        assert full.case_final_iou.shape == (cfg.case_count,)
        assert full.total_error_curve.tobytes() == summary.total_error_curve.tobytes()

    def test_repeat_runs_identical(self):
        cfg = tiny_cfg(specs=(LossSpec("siou"),), seed=5)
        [a] = run_simulation(cfg)
        [b] = run_simulation(cfg)
        assert np.array_equal(a.total_error_curve, b.total_error_curve)

    def test_thread_count_does_not_change_bits(self):
        cfg = SimConfig(
            specs=(LossSpec("ciou", inner=0.8),),
            n_points=30,  # 10290 cases: more than one chunk
            iterations=8,
        )
        assert cfg.case_count > CHUNK_CASES
        [serial] = run_simulation(cfg, threads=1)
        [pooled] = run_simulation(cfg, threads=4)
        assert np.array_equal(serial.total_error_curve, pooled.total_error_curve)
        assert serial.mean_final_error == pooled.mean_final_error
        assert serial.auc == pooled.auc

    def test_final_state_outside_domain_names_spec_and_case(self, monkeypatch):
        # a 1e20 step throws case 3 out to about 1e19 with 0.12-wide sides;
        # two specs of six chunks each, 11 chunks' worth of work, so at
        # threads=2 a worker process raises
        monkeypatch.setattr(simlab, "CHUNK_CASES", 64)  # 343 cases -> 6 chunks
        cfg = tiny_cfg(specs=(LossSpec("ciou"), LossSpec("diou")), step_size=1e20, iterations=2)
        for threads in (1, 2):
            with pytest.raises(ValueError, match=r"^ciou: the descent's final state of case 3 is"):
                run_simulation(cfg, threads=threads)
        # the case id counts from the chunk's first case
        anchors, targets = generate_case_arrays(cfg)
        with pytest.raises(ValueError, match="final state of case 8195 is outside"):
            simulate_chunk(cfg.specs[0], anchors[:10], targets[:10], cfg, CHUNK_CASES, scratch=Scratch())

    def test_a_run_holds_no_population(self):
        # each job builds its own chunk of cases, so the run never holds the
        # two (n, 4) arrays of all 102,900 cases (6.6 MB)
        cfg = tiny_cfg(n_points=300, iterations=1)
        anchors, targets = generate_case_arrays(cfg)
        population = anchors.nbytes + targets.nbytes
        del anchors, targets
        tracemalloc.start()
        try:
            run_simulation(cfg, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < population

    def test_a_plain_run_holds_nothing_per_case(self):
        # without per_case no chunk returns, and no summary joins, per-case
        # arrays: 411,600 cases peak within 256 KiB of 102,900 (the final
        # errors alone would be 2.4 MB more)
        peaks = []
        for n_points in (300, 1200):
            cfg = tiny_cfg(n_points=n_points, iterations=1)
            tracemalloc.start()
            try:
                run_simulation(cfg, threads=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 256 * 1024, peaks

    def test_threads_validation(self):
        with pytest.raises(ValueError, match="threads"):
            run_simulation(tiny_cfg(), threads=-1)

    def test_threads_zero_counts_usable_cpus(self, monkeypatch):
        # threads=0 sizes the pool by the CPUs this process may run on
        workers = record_pools(monkeypatch)
        monkeypatch.setattr(simlab, "CHUNK_CASES", 64)  # 343 cases -> 6 chunks
        monkeypatch.setattr(simlab.os, "cpu_count", lambda: 5)
        monkeypatch.setattr(simlab.os, "sched_getaffinity", lambda pid: {0, 2, 3}, raising=False)
        run_simulation(tiny_cfg(), threads=0)
        assert workers == [3]

    @pytest.mark.parametrize("threads", [0, 4])
    def test_no_pool_off_linux(self, monkeypatch, threads):
        # Only Linux forks a pool: elsewhere every job runs in this process,
        # and no CPU count is read.
        workers = record_pools(monkeypatch)
        monkeypatch.setattr(simlab, "CHUNK_CASES", 64)  # 343 cases -> 6 chunks
        want = run_simulation(tiny_cfg(), threads=1, per_case=True)
        monkeypatch.setattr(simlab.sys, "platform", "darwin")
        monkeypatch.delattr(simlab.os, "sched_getaffinity", raising=False)
        assert_same_summaries(run_simulation(tiny_cfg(), threads=threads, per_case=True), want)
        assert workers == []

    def test_never_more_workers_than_jobs(self, monkeypatch):
        # a fork pool starts every worker at once, so asking for more
        # workers than there are jobs must not fork the surplus
        workers = record_pools(monkeypatch)
        monkeypatch.setattr(simlab, "CHUNK_CASES", 64)  # 343 cases -> 6 chunks
        [pooled] = run_simulation(tiny_cfg(), threads=64, per_case=True)
        assert workers == [6]
        assert_same_summaries([pooled], run_simulation(tiny_cfg(), threads=1, per_case=True))

    def test_one_pool_and_one_scratch_per_worker_for_the_run(self, monkeypatch, tmp_path):
        # Three specs of six chunks each, 17 chunks' worth of work: every
        # (spec, chunk) job goes to one pool, and each worker process keeps
        # one scratch for the whole run.
        # Workers share no memory with this test, so each new scratch
        # appends the pid of the process that made it to a file.
        log = tmp_path / "scratch-pids"

        class RecordingScratch(simlab.Scratch):
            def __init__(self):
                with open(log, "a", encoding="ascii") as f:
                    f.write(f"{os.getpid()}\n")
                super().__init__()

        def made_in() -> list[int]:
            pids = [int(line) for line in log.read_text(encoding="ascii").split()]
            log.unlink()
            return pids

        pools = record_pools(monkeypatch)
        monkeypatch.setattr(simlab, "CHUNK_CASES", 64)  # 343 cases -> 6 chunks
        monkeypatch.setattr(simlab, "Scratch", RecordingScratch)
        cfg = tiny_cfg(specs=(LossSpec("iou"), LossSpec("giou"), LossSpec("siou", inner=0.8)))
        serial = run_simulation(cfg, threads=1, per_case=True)
        assert (pools, made_in()) == ([], [os.getpid()])
        pooled = run_simulation(cfg, threads=2, per_case=True)
        pids = made_in()
        assert (pools, len(pids), len(set(pids)), os.getpid() in pids) == ([2], 2, 2, False)
        assert_same_summaries(pooled, serial)

    def test_workers_never_share_a_scratch(self, monkeypatch):
        # More workers than cores, switching threads every microsecond: two
        # jobs writing one scratch at once would change some bit.
        monkeypatch.setattr(simlab, "CHUNK_CASES", 32)  # 343 cases -> 11 chunks
        cfg = tiny_cfg(specs=(LossSpec("siou", inner=0.8), LossSpec("ciou")), iterations=6)
        serial = run_simulation(cfg, threads=1, per_case=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_simulation(cfg, threads=8, per_case=True)
        finally:
            sys.setswitchinterval(interval)
        assert_same_summaries(pooled, serial)


def record_pools(monkeypatch) -> list[int]:
    """Patch the process pool that ``run_simulation`` imports with one that
    records the worker count each pool is asked for; it starts at most two."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(min(max_workers, 2), *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def assert_same_summaries(got, want):
    """Both runs gave the same summaries, per-case arrays byte for byte."""
    assert [s.label for s in got] == [s.label for s in want]
    for g, w in zip(got, want):
        assert (g.mean_final_error, g.auc) == (w.mean_final_error, w.auc), w.label
        for name in ("total_error_curve", "case_initial_error", "case_final_error",
                     "case_final_iou", "case_clamps"):
            assert getattr(g, name).tobytes() == getattr(w, name).tobytes(), (w.label, name)


def preset_cfg(scenario: str, **overrides) -> SimConfig:
    """A small population of a preset, with all 12 of its specs."""
    return scenario_config(scenario, **{"n_points": 2, "iterations": 40, **overrides})


def assert_same_chunk(got, want):
    """Both chunk descents returned the same five arrays, byte for byte."""
    names = ("totals", "initial error", "final error", "final iou", "clamps")
    assert len(got) == len(want) == len(names)
    for name, g, w in zip(names, got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name


def rows_per_call(monkeypatch) -> list[int]:
    """Route simlab's kernel calls through a wrapper that records each call's row count."""
    rows = []
    kernel = simlab.eval_batch

    def counting(spec, anchors, target, **kwargs):
        # (4, rows) blocks, each against the prepared target of the same rows
        rows.append(anchors.shape[-1])
        assert target.box.shape == anchors.shape
        return kernel(spec, anchors, target, **kwargs)

    monkeypatch.setattr(simlab, "eval_batch", counting)
    return rows


# (anchor, target) starts for the clamp checks of TestRetirement.
# Equilibrium sides below MIN_SIZE: both sides clamp every step.
CLAMPED_EVERY_STEP = ((0, 0, 2 * MIN_SIZE, 2 * MIN_SIZE), (0, 0, MIN_SIZE / 2, MIN_SIZE / 2))
# Disjoint until the clamp widens it into the target: its first step is
# zero, yet it moves after the clamp.
CLAMP_STARTS_OVERLAP = ((-0.5 - 0.3 * MIN_SIZE, 0, 0.2 * MIN_SIZE, 0.2 * MIN_SIZE), (0, 0, 1, 1))
# Disjoint, and plain iou's step is zero with no clamp: it retires after step 1.
RETIRES_AFTER_STEP_1 = ((10, 10, 1, 1), (0, 0, 1, 1))


class TestRetirement:
    """The retiring chunk loop against the every-row loop in ``helpers``."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_spec_matches_every_row_descent(self, scenario):
        cfg = preset_cfg(scenario)
        anchors, targets = generate_case_arrays(cfg)
        for spec in cfg.specs:
            assert_same_chunk(
                simulate_chunk(spec, anchors, targets, cfg, per_case=True, scratch=Scratch()),
                descend_every_row(spec, anchors, targets, cfg),
            )

    def test_chunk_where_every_case_retires(self, monkeypatch):
        # no low-preset start overlaps its target, so plain iou moves nothing
        cfg = preset_cfg("low", specs=(LossSpec("iou"),))
        anchors, targets = generate_case_arrays(cfg)
        want = descend_every_row(cfg.specs[0], anchors, targets, cfg)
        rows = rows_per_call(monkeypatch)
        got = simulate_chunk(cfg.specs[0], anchors, targets, cfg, per_case=True, scratch=Scratch())
        assert_same_chunk(got, want)
        # one evaluation finds every case frozen; the kernel is not called again
        assert rows == [cfg.case_count]
        assert np.all(want[0] == want[0][0])

    @pytest.mark.parametrize(
        "cases,calls",
        [
            ([CLAMPED_EVERY_STEP], [1] * 7),
            ([CLAMP_STARTS_OVERLAP], [1] * 7),
            # The disjoint start retires after the first step, so the other
            # two go on as the index rows (0, 2) of the chunk, and the last
            # keeps clamping past the retired row.
            ([CLAMP_STARTS_OVERLAP, RETIRES_AFTER_STEP_1, CLAMPED_EVERY_STEP], [3] + [2] * 6),
        ],
        ids=["clamped-every-step", "clamp-starts-overlap", "clamped-around-a-retired-case"],
    )
    def test_clamped_cases(self, monkeypatch, cases, calls):
        cfg = tiny_cfg(iterations=7)
        anchors, targets = (np.array(boxes, dtype=float) for boxes in zip(*cases))
        rows = rows_per_call(monkeypatch)
        got = simulate_chunk(cfg.specs[0], anchors, targets, cfg, per_case=True, scratch=Scratch())
        assert_same_chunk(got, descend_every_row(cfg.specs[0], anchors, targets, cfg))
        assert rows == calls
        # the clamped cases clamp on the first step and end overlapping their
        # targets; the retired one never clamps
        clamped = np.array([case is not RETIRES_AFTER_STEP_1 for case in cases])
        assert np.all(got[4][clamped] >= 2) and np.all(got[4][~clamped] == 0)
        assert np.all(got[3][clamped] > 0.0)

    @pytest.mark.parametrize(
        "base,cases",
        # giou moves every case; plain iou retires cases after its first step
        # and again later on, so the loop writes their columns back into the block
        [("giou", 1), ("giou", 686), ("iou", 686)],
        ids=["giou-one-case", "giou-chunk", "iou-chunk"],
    )
    def test_target_keeps_its_bytes_and_anchors_end_as_the_final_state(self, base, cases):
        cfg = preset_cfg("high", specs=(LossSpec(base),), iterations=16)
        anchors, targets = (a[:cases].T.copy() for a in generate_case_arrays(cfg))
        before = targets.tobytes()
        got = _simulate_chunk(cfg.specs[0], anchors, targets, cfg, per_case=True, scratch=Scratch())
        assert got[0][-1] < got[0][0]
        assert targets.tobytes() == before
        final = helpers._corner_l1_rows(anchors.T, targets.T)
        assert final.tobytes() == got[2].tobytes()

    @pytest.mark.parametrize(
        "spec,step_size,case",
        # A huge step throws the moving cases out of the domain. Plain iou's
        # first 42 cases do not overlap, so they retire in place and the
        # first bad case comes after them.
        [(LossSpec("ciou"), 1e20, 3), (LossSpec("iou"), 1e41, 42)],
        ids=str,
    )
    def test_final_domain_error_names_the_same_case(self, spec, step_size, case):
        cfg = tiny_cfg(specs=(spec,), step_size=step_size, iterations=2)
        anchors, targets = generate_case_arrays(cfg)
        with pytest.raises(ValueError) as want:
            descend_every_row(spec, anchors, targets, cfg, CHUNK_CASES)
        with pytest.raises(ValueError) as got:
            simulate_chunk(spec, anchors, targets, cfg, CHUNK_CASES, scratch=Scratch())
        assert str(got.value) == str(want.value)
        assert f"final state of case {CHUNK_CASES + case} is outside" in str(got.value)

    def test_kernel_sees_only_the_moving_cases(self, monkeypatch):
        # The tracer of the benchmark wraps simlab.eval_batch, so the loop
        # must call the kernel through that module attribute.
        specs = (LossSpec("iou"), LossSpec("iou", inner=0.8), LossSpec("giou"))
        cfg = preset_cfg("high", specs=specs, iterations=16)
        anchors, targets = generate_case_arrays(cfg)
        # the every-row loop's own moves say which cases are still moving
        expected, frozen = {}, []
        kernel = helpers.eval_blocks

        def frozen_after(spec, state, target, **kwargs):
            # a (4, n) block and its prepared target; the moves are (n, 4)
            # like the kernel's grad
            ev = kernel(spec, state, target, **kwargs)
            move = (cfg.step_size * (2.0 - ev.iou))[:, None] * ev.grad
            clamped = ((state.T - move)[:, 2:] < MIN_SIZE).any(axis=1)
            frozen.append(~(move.any(axis=1) | clamped))
            return ev

        monkeypatch.setattr(helpers, "eval_blocks", frozen_after)
        for spec in cfg.specs:
            frozen.clear()
            descend_every_row(spec, anchors, targets, cfg)
            moving = np.ones(cfg.case_count, dtype=bool)
            calls = expected[spec] = []
            for f in frozen:
                if moving.any():
                    calls.append(int(moving.sum()))
                moving &= ~f

        rows = rows_per_call(monkeypatch)
        run_simulation(cfg)
        assert rows == [n for calls in expected.values() for n in calls]
        iou, inner, giou = expected.values()
        # iou retires most cases after its first step; giou retires none
        assert iou[1] < cfg.case_count / 2
        assert giou == [cfg.case_count] * cfg.iterations
        # inner-iou(0.8) retires cases after its first step and again later
        # on, so the loop takes columns of the ratio-0.8 target it built
        # once, and of an already taken one
        assert len(inner) == cfg.iterations
        assert len(set(inner)) >= 3 and inner[1] < cfg.case_count
