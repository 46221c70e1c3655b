import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RECORDED_HOST, csv_reference, skip_off_host
from ioulab import SCENARIOS, SimConfig, __version__, cli, scenario_config, simlab, sweep
from ioulab.batch import Scratch
from ioulab.cli import CSV_ROWS_PER_WRITE, _csv, _write, main
from ioulab.csvtext import block_fields

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    """Invoke the entry point, folding argparse SystemExit into a code."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def eval_json(capsys, *argv):
    code = run_cli("eval", *argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# sha256 of the exact stdout of `ioulab eval --anchor 0,0,10,5 --gt 2,1,8,6
# --loss <loss> --grad`, with --ratio 0.8 for the inner variants.
EVAL_STDOUT_SHA256 = {
    "iou": "20bd11da0f61f9ba1d9b0103a0526c7e27f29163fe9bf03e07b0f12f9decdcc3",
    "inner-iou": "243d94b622b55072b57d141da0f47a759ae81edbc5ade18d5e445f83d3595179",
    "giou": "d5404ba48209804b129a609b39ad5f70f14a4dd2891af92222cd578132160e7b",
    "inner-giou": "5c6e95bfc95ed5e7f9a39a719e40a4dfea0baa47e0609f2eb91f39956b37b031",
    "diou": "f1a398d1e25a611a685c7ea0c7791f70af6ac574d2a7003638fe4d49eab843f0",
    "inner-diou": "7157f7001ddf45e24f1c8ecb958a07f5d3e4035ef022574579802174722cc68a",
    "ciou": "15a56cb82e6ad80fb7c47cc386f509aade786fc08e0da195489d9f6352f3c666",
    "inner-ciou": "652b72d59d80bf7e5d2cfe3cfa1a0dc34292a94ca621df597f6099b1628dc099",
    "eiou": "2b635273f8a27414ed35a2d454337934939945f97673b06c6f61fa31ff133741",
    "inner-eiou": "3e810501d3b976ec01a0e62ab640484ef0ac55a8a8fc0a2d20ec564b5a0c553c",
    "siou": "1c512370a4553a50542e6caa828933794e61d166446651c34fb2bd044517628d",
    "inner-siou": "5480622fd0713f9392e95dcc6476d34a4b59bb6af2333cdb89099cf71c4466ba",
}


# sha256 of `ioulab sim --scenario <scenario> --bases iou,giou,diou,ciou,eiou,siou
# --points 2 --iterations 20 --per-case --threads 1` outputs, at the preset's
# tuned step.
SIM_CSV_SHA256 = {
    ("high", "summary.csv"): "49d560aa648c7868bf6773c1fa9f10d866cbfa51d6698cfb48b89cfcf9311c0b",
    ("high", "cases.csv"): "860ce5359e07b56d97ef9647f6bf99489b5d6849c8842719e84a19197e862503",
    ("low", "summary.csv"): "8a1ba04e4703190edc4e9466588daadafa45255f3210b9b2abbf16815ab93096",
    ("low", "cases.csv"): "8a3af8ffed7142145d97fd5eae3f3338b9c375bc80e388a967ac0574150b6580",
}

# sha256 of the default `ioulab sweep --out` CSV, the same for either axis.
SWEEP_CSV_SHA256 = "5967641594abb870132b218aed06251eac233e20ee3d0cfe985b9fff9d7b3e0a"


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# tracemalloc peak of writing an 11-column CSV, whatever its row count
WRITER_PEAK_BYTES = 1536 * 1024


def csv_text(header, blocks):
    """The bytes that ``_csv`` yields for ``header`` and ``blocks``, no file written."""
    return "".join(_csv(Path("unused.csv"), header, blocks)[1]).encode("utf-8")


def assert_floats_match_reference(values):
    """``values`` as two float columns, forwards and reversed, write as the reference does."""
    col = np.asarray(values, dtype=np.float64)
    blocks = [((), [col, col[::-1].copy()])]
    assert csv_text(["a", "b"], blocks) == csv_reference(["a", "b"], blocks)


class TestCsvWriter:
    def test_matches_per_value_reference(self, tmp_path):
        edge = [-0.0, 0.0, 5e-324, -5e-324, 1e22, 1e16, 0.1, 1e-5, 1.0, -2.5, 1.7976931348623157e308]
        bits = np.random.default_rng(0).integers(0, 2**64, size=10_000, dtype=np.uint64).view(np.float64)
        floats = np.concatenate([edge, bits[np.isfinite(bits)]])
        n = len(floats)
        assert n > CSV_ROWS_PER_WRITE  # rows span more than one write
        ints = np.arange(n) * 7 - 3
        header = ["spec", "id", "a", "b", "count"]
        blocks = [
            (("inner-ciou(0.8)",), [ints, floats, floats[::-1].copy(), ints * 0 + 2**40]),
            (("iou",), [ints[:3], floats[:3], floats[3:6], ints[:3]]),
        ]
        path = tmp_path / "out.csv"
        _write(_csv(path, header, blocks))
        assert path.read_bytes() == csv_reference(header, blocks)

    def test_no_leading_fields(self, tmp_path):
        columns = [np.array([-0.0, 1e16, 0.1]), np.array([5e-324, 1e22, 1e-5])]
        path = tmp_path / "out.csv"
        _write(_csv(path, ["a", "b"], [((), columns)]))
        assert path.read_bytes() == csv_reference(["a", "b"], [((), columns)])
        assert path.read_text().splitlines() == [
            "a,b",
            "-0,4.9406564584124654e-324",
            "10000000000000000,1e+22",
            "0.10000000000000001,1.0000000000000001e-05",
        ]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    @settings(max_examples=300)
    def test_any_finite_float(self, values):
        assert_floats_match_reference(values)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300)
    def test_any_bit_pattern(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert_floats_match_reference(values[np.isfinite(values)])

    def test_half_way_cases_round_to_even(self):
        # x = k / 2**(j + 1) with k odd: x * 10**j is a half-integer, so the
        # 17th significant digit is a tie wherever x's decimal exponent is 16 - j
        rng = np.random.default_rng(7)
        ties = []
        for exponent in range(-4, 16):
            j = 16 - exponent
            lo = math.ceil(Fraction(2 ** (j + 1)) * Fraction(10) ** exponent)
            hi = min(math.floor(Fraction(2 ** (j + 1)) * Fraction(10) ** (exponent + 1)), 2**53)
            for k in rng.integers(lo, hi, size=50).tolist():
                x = math.ldexp(k | 1, -(j + 1))
                assert (Fraction(x) * 10**j).denominator == 2
                ties.append(x)
        assert len(ties) == 1000
        assert_floats_match_reference(ties + [-t for t in ties])

    def test_switch_points_and_powers_of_ten(self):
        # %g turns to exponent notation below 1e-4 and from 1e17 on; next to
        # each power of ten the decimal exponent changes
        values = []
        for k in range(-6, 19):
            p = 10.0**k
            values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
        values += [0.5e-4, 1.5e16, 99999999999999984.0]
        assert_floats_match_reference(values + [-v for v in values])

    @pytest.mark.parametrize(
        "widest,length",
        [(-0.00012345678901234567, 23), (-1234567890123456.8, 19), (-12345678901234568.0, 18),
         (-0.0, 2), (-1.2345678901234567e-100, 24)],
        ids=["x=-4", "x=15", "x=16", "-0", "exponent"],
    )
    def test_widest_fields_first_middle_and_last(self, widest, length):
        # the widest fixed-notation texts (a sign, "0.000" at X = -4, 17 digits),
        # -0 and the widest text of all, in the first, a middle and the last
        # column of the first and the last row of each write
        assert len(format(widest, ".17g")) == length
        n = CSV_ROWS_PER_WRITE + 2
        rng = np.random.default_rng(11)
        columns = [rng.uniform(-1.0, 1.0, n) for _ in range(11)]
        for col in (columns[0], columns[5], columns[10]):
            col[[0, CSV_ROWS_PER_WRITE - 1, CSV_ROWS_PER_WRITE, n - 1]] = widest
        header = [f"c{k}" for k in range(11)]
        blocks = [((), columns), (("inner-ciou(0.8)",), columns)]
        assert csv_text(header, blocks) == csv_reference(header, blocks)

    def test_signed_zeros_subnormals_and_extremes_warn_nothing(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_floats_match_reference(values)

    def test_leads_and_int_columns_over_several_writes(self):
        n = 2 * CSV_ROWS_PER_WRITE + 5
        rng = np.random.default_rng(3)
        ints = rng.integers(-(2**63), 2**63 - 1, size=n, endpoint=True)
        ints[:4] = [0, -1, 2**63 - 1, -(2**63)]
        floats = rng.uniform(-50.0, 50.0, n)
        floats[::7] = 0.0
        floats[::11] = 1e-7
        m = CSV_ROWS_PER_WRITE  # a block that fills one write exactly
        header = ["spec", "id", "a", "count", "b"]
        blocks = [
            (("inner-ciou(0.8)",), [np.arange(n), floats, ints, floats * 1e12]),
            (("iou",), [ints[:3], floats[:3], np.arange(3), floats[3:6]]),
            (("x",), [np.arange(m), floats[:m], ints[:m], -floats[:m]]),
        ]
        assert csv_text(header, blocks) == csv_reference(header, blocks)

    def test_working_set_does_not_grow_with_rows(self):
        # a %-per-row writer of 1,024 rows at a time peaks at about 0.74 MB,
        # this one at about 0.9 MB (numpy 2.4.6), at 50k and at 200k rows alike
        header = [f"c{k}" for k in range(11)]
        out = Path(os.devnull)
        _write(_csv(out, header, [((), [np.ones(1)] * 11)]))  # builds the cached tables
        rng = np.random.default_rng(0)
        peaks = []
        for n in (50_000, 200_000):
            columns = [rng.uniform(-20.0, 20.0, n) for _ in range(11)]
            tracemalloc.start()
            try:
                _write(_csv(out, header, [((), columns)]))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < WRITER_PEAK_BYTES
        assert peaks[1] < peaks[0] + 64 * 1024

    @pytest.mark.parametrize(
        "n,width", [(CSV_ROWS_PER_WRITE, 11), (CSV_ROWS_PER_WRITE, 6), (153, 11)],
        ids=["sweep", "cases", "last-block"],
    )
    def test_a_warm_block_allocates_nothing_of_its_size(self, n, width):
        # a block after a full one of the same width (a file's next block, or
        # its short last one) builds its fields in the first's slots; one
        # block's 8-byte values would be the least of any temporary
        rng = np.random.default_rng(0)
        scratch = Scratch()
        block_fields([rng.uniform(-20.0, 20.0, CSV_ROWS_PER_WRITE) for _ in range(width)], scratch)
        columns = [rng.uniform(-20.0, 20.0, n) for _ in range(width)]
        columns[0][::7] = 0.0
        columns[1][::11] = -1e-7  # exponent notation, through %
        tracemalloc.start()
        try:
            block_fields(columns, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * width * 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_names_file_column_and_line(self, tmp_path, bad):
        path = tmp_path / "out.csv"
        blocks = [
            (("x",), [np.arange(2), np.array([1.0, 2.0])]),
            (("y",), [np.arange(3), np.array([1.0, 2.0, bad])]),
        ]
        with pytest.raises(ValueError, match=rf"out\.csv: total is {bad} on line 6$"):
            _write(_csv(path, ["spec", "i", "total"], blocks))
        assert not path.exists()


class TestEval:
    @pytest.mark.parametrize("loss", list(EVAL_STDOUT_SHA256))
    def test_stdout_bytes_pinned(self, capsys, loss):
        skip_off_host(RECORDED_HOST, "the CLI output digests")
        ratio = ("--ratio", "0.8") if loss.startswith("inner-") else ()
        code = run_cli(
            "eval", "--anchor", "0,0,10,5", "--gt", "2,1,8,6", "--loss", loss, *ratio, "--grad"
        )
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EVAL_STDOUT_SHA256[loss]

    def test_iou_value(self, capsys):
        code, payload = eval_json(
            capsys, "--anchor", "0,0,10,10", "--gt", "5,0,10,10", "--loss", "iou"
        )
        assert code == 0
        assert payload["loss"] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert payload["iou"] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert payload["inner_iou"] is None
        assert payload["terms"] == {}
        assert "grad" not in payload

    def test_grad_flag(self, capsys):
        code, payload = eval_json(
            capsys, "--anchor", "0,0,10,10", "--gt", "5,0,10,10", "--loss", "iou", "--grad"
        )
        assert code == 0
        assert payload["grad"]["x"] == pytest.approx(-2000.0 / 22500.0, rel=1e-12)
        assert set(payload["grad"]) == {"x", "y", "w", "h"}

    def test_zero_partials_print_without_sign(self, capsys):
        # the kernel's zero partials may be -0.0 on coincident boxes
        run_cli("eval", "--anchor", "1,1,2,3", "--gt", "1,1,2,3", "--loss", "iou", "--grad")
        out = capsys.readouterr().out
        assert '"grad": {"x": 0.0, "y": 0.0, "w": 0.0, "h": 0.0}' in out

    def test_inner_loss_with_ratio(self, capsys):
        code, payload = eval_json(
            capsys,
            "--anchor", "0,0,10,10", "--gt", "5,0,10,10",
            "--loss", "inner-ciou", "--ratio", "0.8",
        )
        assert code == 0
        assert payload["inner_iou"] is not None
        assert set(payload["terms"]) == {"v", "alpha"}

    def test_siou_terms_serialized(self, capsys):
        code, payload = eval_json(
            capsys, "--anchor", "0,0,10,10", "--gt", "4,2,8,6", "--loss", "siou"
        )
        assert code == 0
        assert {"angle_cost", "gamma", "distance_cost", "shape_cost"} <= set(payload["terms"])
        assert payload["terms"]["theta"] == 4.0

    def test_inner_without_ratio_fails(self, capsys):
        code = run_cli("eval", "--anchor", "0,0,1,1", "--gt", "0,0,1,1", "--loss", "inner-iou")
        assert code == 2
        assert "requires --ratio" in capsys.readouterr().err

    def test_ratio_on_plain_loss_fails(self, capsys):
        code = run_cli(
            "eval", "--anchor", "0,0,1,1", "--gt", "0,0,1,1", "--loss", "giou", "--ratio", "0.8"
        )
        assert code == 2
        assert "only applies to inner-" in capsys.readouterr().err

    def test_unknown_loss_rejected_by_parser(self, capsys):
        assert run_cli("eval", "--anchor", "0,0,1,1", "--gt", "0,0,1,1", "--loss", "huber") == 2

    def test_malformed_box(self, capsys):
        assert run_cli("eval", "--anchor", "0,0,1", "--gt", "0,0,1,1", "--loss", "iou") == 2
        assert "X,Y,W,H" in capsys.readouterr().err

    def test_degenerate_box(self, capsys):
        assert run_cli("eval", "--anchor", "0,0,-1,1", "--gt", "0,0,1,1", "--loss", "iou") == 2

    def test_non_finite_result_exits_two(self, capsys):
        # the box areas would underflow to 0 and the overlap be 0/0; the
        # sides are below the domain's least side, so nothing is evaluated
        code = run_cli(
            "eval", "--anchor", "0,0,1e-200,1e-200", "--gt", "0,0,1e-200,1e-200", "--loss", "iou"
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "argument --anchor: box is outside the supported box domain" in captured.err


class TestSim:
    def test_scenario_high_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "sim", "--scenario", "high", "--points", "2", "--iterations", "3",
            "--threads", "1", "--out", str(out),
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "686 cases" in stdout

        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "spec,iteration,total_error"
        assert len(lines) == 1 + 2 * 4  # 2 specs x (iterations + 1)
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"ciou", "inner-ciou(0.8)"}
        assert not (out / "cases.csv").exists()

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_cases"] == 686
        assert manifest["error_metric"] == "corner_l1"
        assert manifest["tool_version"] == __version__
        assert manifest["spec_list"] == ["ciou", "inner-ciou(0.8)"]
        assert len(manifest["config_digest"]) == 64
        assert manifest["seed"] == 0
        assert "timestamp" in manifest

    def test_scenario_low_uses_growing_ratio(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "sim", "--scenario", "low", "--points", "1", "--iterations", "2",
            "--threads", "1", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec_list"] == ["ciou", "inner-ciou(1.2)"]

    def test_scenario_reads_preset_table(self, tmp_path, monkeypatch):
        # radius, ratio and step all come from SCENARIOS, one table that the
        # parser lists and simlab runs
        assert SCENARIOS is simlab.SCENARIOS
        monkeypatch.setitem(SCENARIOS, "low", {"radius": (1.0, 2.0), "ratio": 1.3, "step_size": 0.25})
        out = tmp_path / "run"
        code = run_cli(
            "sim", "--scenario", "low", "--points", "1", "--iterations", "2",
            "--threads", "1", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec_list"] == ["ciou", "inner-ciou(1.3)"]
        want = scenario_config("low", ("ciou",), n_points=1, iterations=2)
        assert want.radius == (1.0, 2.0) and want.step_size == 0.25
        assert manifest["config"] == want.to_dict()
        canonical = json.dumps(want.to_dict(), sort_keys=True, separators=(",", ":"))
        assert manifest["config_digest"] == hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def test_manifest_config_reproduces_the_run(self, tmp_path):
        first, again = tmp_path / "scenario", tmp_path / "config"
        assert run_cli(
            "sim", "--scenario", "low", "--bases", "iou,ciou", "--points", "1",
            "--iterations", "3", "--seed", "3", "--threads", "1", "--out", str(first),
        ) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(manifest["config"]))
        assert run_cli("sim", "--config", str(cfg_path), "--threads", "1", "--out", str(again)) == 0
        assert (again / "summary.csv").read_bytes() == (first / "summary.csv").read_bytes()
        rerun = json.loads((again / "manifest.json").read_text())
        assert rerun["config_digest"] == manifest["config_digest"]

    def test_readme_demo_output(self, tmp_path, capsys):
        # The README's `ioulab sim` demo prints what the README shows.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        [(command, shown)] = re.findall(r"^\$ ioulab (sim [^\n]*)\n(.*?)^```", readme, flags=re.M | re.S)
        argv = command.split()
        at = argv.index("--out") + 1
        demo, argv[at] = argv[at], str(tmp_path / "demo")
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.replace(argv[at], demo) == shown

    def test_scenario_bases_flag(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "sim", "--scenario", "high", "--bases", "giou,iou,giou", "--points", "1",
            "--iterations", "2", "--threads", "1", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # a repeated name runs once, in first-seen order
        assert manifest["spec_list"] == ["giou", "inner-giou(0.8)", "iou", "inner-iou(0.8)"]
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 3  # 4 specs x (iterations + 1)

    def test_per_case_rows(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "sim", "--scenario", "high", "--points", "1", "--iterations", "2",
            "--threads", "1", "--per-case", "--out", str(out),
        )
        assert code == 0
        lines = (out / "cases.csv").read_text().splitlines()
        assert lines[0] == "spec,case_id,initial_error,final_error,final_iou,clamps"
        assert len(lines) == 1 + 2 * 343  # 2 specs x 7*1*7*7 cases

    def test_config_file_round_trip_and_determinism(self, tmp_path):
        from ioulab import LossSpec

        cfg = SimConfig(
            specs=(LossSpec("diou"), LossSpec("diou", inner=0.8)),
            n_points=1,
            iterations=5,
            seed=9,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))

        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("sim", "--config", str(cfg_path), "--threads", "1", "--out", str(out)) == 0
            outs.append((out / "summary.csv").read_bytes())
        assert outs[0] == outs[1]

        m_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        m_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        m_a.pop("timestamp"), m_b.pop("timestamp")
        assert m_a == m_b
        assert m_a["seed"] == 9

    def test_seed_override_changes_results(self, tmp_path):
        from ioulab import LossSpec

        cfg = SimConfig(specs=(LossSpec("iou"),), n_points=1, iterations=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        digests = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}"
            assert run_cli(
                "sim", "--config", str(cfg_path), "--seed", seed, "--threads", "1",
                "--out", str(out),
            ) == 0
            digests.append(json.loads((out / "manifest.json").read_text())["config_digest"])
        assert digests[0] != digests[1]

    def test_thread_count_invariant_bytes(self, tmp_path):
        from ioulab import LossSpec

        cfg = SimConfig(
            specs=(LossSpec("eiou", inner=1.2),),
            n_points=30,  # 10290 cases: exercises multiple chunks
            iterations=4,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        payloads = []
        for threads in ("1", "8"):
            out = tmp_path / f"t{threads}"
            assert run_cli(
                "sim", "--config", str(cfg_path), "--threads", threads, "--out", str(out)
            ) == 0
            payloads.append((out / "summary.csv").read_bytes())
        assert payloads[0] == payloads[1]

    def test_unknown_config_field_fails_closed(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"specs": [{"base": "iou"}], "n_pts": 3}))
        assert run_cli("sim", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        assert "unknown config field 'n_pts'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["n_points", "iterations", "seed"])
    def test_config_integer_beyond_float_range_exits_two(self, tmp_path, capsys, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"specs": [{{"base": "iou"}}], "{field}": 1{"0" * 400}}}')
        assert run_cli("sim", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        assert f"{field} is out of range" in capsys.readouterr().err

    def test_config_radius_overflow_exits_two(self, tmp_path, capsys):
        # the farthest anchor's offset is beyond the box domain
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"specs": [{"base": "iou"}], "radius": [0, 1e200]}))
        assert run_cli("sim", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: radius")
        assert "Traceback" not in err

    def test_empty_spec_list_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"specs": []}))
        assert run_cli("sim", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "error: invalid config: specs must hold at least one loss spec\n"
        assert not (tmp_path / "o").exists()

    def test_empty_bases_list_exits_two(self, tmp_path, capsys):
        assert run_cli("sim", "--scenario", "high", "--bases", " , ", "--out", str(tmp_path / "o")) == 2
        assert "argument --bases: expected a comma-separated list of base losses" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_json_syntax_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert run_cli("sim", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("sim", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_scenario_flags_rejected_with_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"specs": [{"base": "iou"}]}))
        assert run_cli(
            "sim", "--config", str(cfg_path), "--points", "5", "--out", str(tmp_path / "o")
        ) == 2
        assert "--points only applies to --scenario" in capsys.readouterr().err

    def test_config_and_scenario_mutually_exclusive(self, tmp_path):
        assert run_cli(
            "sim", "--config", "x.json", "--scenario", "high", "--out", str(tmp_path / "o")
        ) == 2

    def test_out_required(self):
        assert run_cli("sim", "--scenario", "high") == 2

    @pytest.mark.parametrize("scenario", ["high", "low"])
    def test_csv_bytes_pinned(self, tmp_path, scenario):
        skip_off_host(RECORDED_HOST, "the CLI output digests")
        out = tmp_path / "run"
        code = run_cli(
            "sim", "--scenario", scenario, "--bases", "iou,giou,diou,ciou,eiou,siou",
            "--points", "2", "--iterations", "20", "--per-case", "--threads", "1",
            "--out", str(out),
        )
        assert code == 0
        for name in ("summary.csv", "cases.csv"):
            assert sha256_file(out / name) == SIM_CSV_SHA256[scenario, name], name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_descent_exits_two(self, tmp_path, capsys):
        # the first step throws the anchors out to about 1e300, and the
        # next one overflows; the final-state check names the first case
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"specs": [{"base": "ciou"}], "step_size": 1e300, "n_points": 1, "iterations": 2}
        ))
        out = tmp_path / "o"
        assert run_cli("sim", "--config", str(cfg_path), "--threads", "1", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: ciou: the descent's final state of case 0 is outside" in captured.err
        assert "finite" in captured.err
        assert not out.exists()

    def test_repeated_labels_exit_two(self, tmp_path, capsys):
        # both specs would be labelled inner-iou(0.8) in summary.csv
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "specs": [{"base": "iou", "inner": 0.8}, {"base": "iou", "inner": 0.80000001}],
            "n_points": 1, "iterations": 2,
        }))
        out = tmp_path / "o"
        assert run_cli("sim", "--config", str(cfg_path), "--out", str(out)) == 2
        assert "distinct labels, got ['inner-iou(0.8)', 'inner-iou(0.8)']" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run_cli(
            "sim", "--scenario", "high", "--points", "1", "--iterations", "1",
            "--threads", "1", "--out", str(blocker / "out"),
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_new_run_directory_holds_only_the_outputs(self, tmp_path):
        out = tmp_path / "new" / "run"
        code = run_cli(
            "sim", "--scenario", "high", "--points", "1", "--iterations", "1",
            "--threads", "1", "--out", str(out),
        )
        assert code == 0
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "new", "new/run", "new/run/manifest.json", "new/run/summary.csv",
        ]

    def test_disk_full_removes_the_new_run_directory(self, tmp_path, monkeypatch, capsys):
        def disk_full(path, header, blocks):
            def lines():
                yield ",".join(header) + "\n"
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            return path, lines()

        monkeypatch.setattr(cli, "_csv", disk_full)
        out = tmp_path / "new" / "run"
        code = run_cli(
            "sim", "--scenario", "high", "--points", "1", "--iterations", "1",
            "--threads", "1", "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'summary.csv'}: No space left on device\n"
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_default_run_passes(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--out", str(csv_path))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True
        assert report["conclusions"]["c2"]["checked"] == 70

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "deviation,iou_10,absgrad_10,iou_8,absgrad_8,iou_12,absgrad_12"
        assert len(lines) == 602
        first = lines[1].split(",")
        assert float(first[0]) == -15.0
        assert float(first[1]) == 0.0

    def test_lf_line_endings(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        run_cli("sweep", "--samples", "11", "--out", str(csv_path))
        raw = csv_path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_report_file_matches_stdout(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli("sweep", "--report", str(report_path))
        assert code == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        assert json.loads(report_path.read_text()) == stdout_doc

    def test_vacuous_conclusions_exit_one(self, capsys):
        code = run_cli("sweep", "--samples", "3")
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is False
        assert report["conclusions"]["c2"]["vacuous"] is True

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--aux-sides", "10"], "need an auxiliary side smaller than the actual one"),
            (["--aux-sides", "8"], "need an auxiliary side larger than the actual one"),
            (["--aux-sides", "12,14"], "need an auxiliary side smaller than the actual one"),
            (["--high-iou-threshold", "nan"], "thresholds must be finite"),
            (["--high-iou-threshold", "0.2", "--low-iou-threshold", "0.5"],
             "low_iou_threshold must be below high_iou_threshold, got 0.5 >= 0.2"),
        ],
        ids=["aux-10", "aux-8", "aux-12-14", "high-nan", "low-above-high"],
    )
    def test_missing_aux_side_exits_two(self, capsys, monkeypatch, argv, message):
        # SweepConfig rejects the sweep before any curve is computed
        rows = []
        kernel = sweep.eval_batch

        def counting(spec, anchors, gts, **kwargs):
            rows.append(anchors.shape[-1])
            return kernel(spec, anchors, gts, **kwargs)

        monkeypatch.setattr(sweep, "eval_batch", counting)
        assert run_cli("sweep", *argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert rows == []

    def test_repeated_aux_sides_write_each_column_once(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--aux-sides", "8,8,12", "--out", str(csv_path)) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "deviation,iou_10,absgrad_10,iou_8,absgrad_8,iou_12,absgrad_12"

    def test_colliding_column_names_exit_two(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--aux-sides", "8,8.0000001,12", "--out", str(csv_path)) == 2
        assert "distinct column names, got ['10', '8', '8', '12']" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_bad_aux_sides_value(self):
        assert run_cli("sweep", "--aux-sides", "8,abc") == 2

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_csv_bytes_pinned(self, tmp_path, axis):
        skip_off_host(RECORDED_HOST, "the CLI output digests")
        csv_path = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--axis", axis, "--out", str(csv_path)) == 0
        assert sha256_file(csv_path) == SWEEP_CSV_SHA256

    def test_non_finite_curve_exits_two(self, tmp_path, capsys):
        # the box areas would underflow to 0 and every overlap be 0/0; the
        # sides are below the domain's least side, so nothing is evaluated
        csv_path = tmp_path / "f.csv"
        code = run_cli(
            "sweep", "--box-side", "1e-300", "--aux-sides", "8e-301,1.2e-300",
            "--samples", "11", "--out", str(csv_path),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: box_side square at the deviation range's end is outside" in captured.err
        assert not csv_path.exists()

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_unwritable_path_exits_two(self, tmp_path, capsys, flag):
        code = run_cli("sweep", "--samples", "11", flag, str(tmp_path / "missing" / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "spelling,existing",
        [("same", False), ("same", True), ("dotted", False), ("dotted", True), ("hard-link", True)],
    )
    def test_out_and_report_naming_one_file_exit_two(self, tmp_path, capsys, spelling, existing):
        path = tmp_path / "both"
        report = {"same": path, "dotted": tmp_path / "sub" / ".." / "both", "hard-link": tmp_path / "link"}[spelling]
        if existing:
            path.write_text("kept\n")
        if spelling == "hard-link":
            os.link(path, report)
        before = sorted(tmp_path.iterdir())
        assert run_cli("sweep", "--samples", "11", "--out", str(path), "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {path} and {report} name the same file" in captured.err
        assert sorted(tmp_path.iterdir()) == before
        if existing:
            assert path.read_text() == "kept\n"

    def test_failed_output_leaves_no_other_output(self, tmp_path, capsys):
        csv_path = tmp_path / "ok.csv"
        code = run_cli(
            "sweep", "--samples", "11", "--out", str(csv_path),
            "--report", str(tmp_path / "missing" / "r.json"),
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_existing_output_survives_an_unopenable_one(self, tmp_path, capsys):
        # every output is opened before any is truncated
        csv_path = tmp_path / "existing.csv"
        csv_path.write_text("kept\n")
        (tmp_path / "adir").mkdir()
        code = run_cli(
            "sweep", "--samples", "11", "--out", str(csv_path), "--report", str(tmp_path / "adir"),
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err
        assert csv_path.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "adir", csv_path]

    def test_failure_keeps_a_dangling_link_and_removes_its_new_target(self, tmp_path, capsys):
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "target.csv")
        code = run_cli(
            "sweep", "--samples", "11", "--out", str(link),
            "--report", str(tmp_path / "missing" / "r.json"),
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err
        assert link.is_symlink()
        assert list(tmp_path.iterdir()) == [link]

    def test_csv_deterministic(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            run_cli("sweep", "--samples", "51", "--out", str(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestDomainExits:
    """Inputs outside the supported box domain exit 2 before any output."""

    @pytest.mark.parametrize(
        "argv,config,match",
        [
            (["eval", "--anchor", "0,0,1e-200,1e-200", "--gt", "0,0,1e-200,1e-200",
              "--loss", "iou"], None, "box is outside the supported box domain"),
            (["eval", "--anchor", "0,0,10,5", "--gt", "2,1,8,6", "--loss", "inner-iou",
              "--ratio", "1e-200"], None, "inner ratio must lie in"),
            (["sweep", "--box-side", "1e-300", "--aux-sides", "8e-301,1.2e-300",
              "--samples", "11"], None, "box_side square"),
            (["sweep", "--box-side", "1", "--aux-sides", "1e-4,2", "--samples", "11"], None,
             "error: aux_sides 0.0001 over box_side 1 must lie in [0.001, 1000]"),
            (["sim", "--config", "cfg.json", "--out", "o"],
             {"specs": [{"base": "ciou"}], "radius": [1e20, 1e20], "n_points": 1,
              "iterations": 2}, "radius: the farthest anchor is outside"),
            (["sim", "--config", "cfg.json", "--out", "o"],
             {"specs": [{"base": "ciou"}], "step_size": 1e20, "n_points": 1, "iterations": 2},
             "ciou: the descent's final state of case 3 is outside"),
        ],
        ids=["eval-tiny-boxes", "eval-tiny-ratio", "sweep-tiny-sides", "sweep-tiny-ratio", "sim-far-radius",
             "sim-huge-step"],
    )
    def test_exits_two_with_nothing_written(self, tmp_path, monkeypatch, capsys, argv, config, match):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
        before = sorted(tmp_path.iterdir())
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert match in captured.err
        assert sorted(tmp_path.iterdir()) == before


SIM_ARGV = ["sim", "--scenario", "high", "--points", "1", "--iterations", "2", "--out", "o"]
SWEEP_ARGV = ["sweep", "--samples", "11", "--out", "s.csv", "--report", "r.json"]


def failing_csv(path, header, blocks):
    """A stand-in for ``cli._csv`` whose CSV runs out of memory after its header.

    The writer has opened every output of the run by then.
    """
    def lines():
        yield ",".join(header) + "\n"
        raise MemoryError

    return path, lines()


class TestOutOfMemory:
    """A run too large for memory exits 2 with one error line and no outputs.

    The tests raise MemoryError from a stand-in instead of allocating: a
    real oversized request could exhaust the memory of a host that
    overcommits.
    """

    @pytest.mark.parametrize(
        "argv,target", [(SIM_ARGV, "run_simulation"), (SWEEP_ARGV, "run_sweep")], ids=["sim", "sweep"]
    )
    def test_while_computing(self, tmp_path, monkeypatch, capsys, argv, target):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, target, too_large)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [SIM_ARGV + ["--per-case"], SWEEP_ARGV], ids=["sim", "sweep"])
    def test_while_writing(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "_csv", failing_csv)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("error: out of memory")
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert written == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new-parent", "existing-parent"])
    def test_sim_removes_the_directories_it_made(self, tmp_path, monkeypatch, capsys, existing):
        monkeypatch.setattr(cli, "_csv", failing_csv)
        monkeypatch.chdir(tmp_path)
        if existing:
            (tmp_path / "o").mkdir()
        assert run_cli(*SIM_ARGV[:-1], "o/deep") == 2
        assert capsys.readouterr().err.startswith("error: out of memory")
        # a directory that was there before the run stays
        assert list(tmp_path.iterdir()) == ([tmp_path / "o"] if existing else [])
        assert not (tmp_path / "o" / "deep").exists()


class TestDeadWorker:
    def test_exits_two_with_one_line(self, tmp_path, monkeypatch, capsys):
        # 2 specs of six chunks each, 11 chunks' worth of work: --threads 2
        # starts two worker processes, and each dies on its first job. The
        # stand-in exits only outside this test's process, so no in-process
        # path can end pytest.
        monkeypatch.setattr(simlab, "CHUNK_CASES", 64)  # 343 cases -> 6 chunks
        pid = os.getpid()
        chunk = simlab._simulate_chunk

        def dies_in_a_worker(*args, **kwargs):
            if os.getpid() != pid:
                os._exit(1)
            return chunk(*args, **kwargs)

        monkeypatch.setattr(simlab, "_simulate_chunk", dies_in_a_worker)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*SIM_ARGV, "--threads", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a worker process died: ")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0
        assert __version__ in capsys.readouterr().out

    def test_command_required(self):
        assert run_cli() == 2


def run_python(tmp_path, *args: str, **env: str | None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args`` in ``tmp_path``, importing this checkout's ioulab.

    Each keyword sets that environment variable for it, or removes it when
    None.
    """
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    full = {**os.environ, "PYTHONPATH": path}
    for name, value in env.items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=full, capture_output=True, text=True, timeout=120
    )


def run_probe(tmp_path, code: str, *argv: str, **env: str | None):
    """Run ``code`` as :func:`run_python` does; the JSON value it prints as its last stderr line."""
    done = run_python(tmp_path, "-c", code, *argv, **env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.splitlines()[-1])


# Runs `python -m ioulab <argv>` and reports, as it exits, whether the run
# loaded OpenSSL's hash module, numpy.random and secrets (which maps
# OpenSSL too), concurrent.futures and multiprocessing (the process pool),
# ioulab.simlab and ioulab.csvtext, the OpenBLAS thread setting it ran with,
# and its thread count on Linux (None elsewhere).
_CLI_PROBE = """
import json, os, runpy, sys
sys.argv[0] = "ioulab"
try:
    runpy.run_module("ioulab", run_name="__main__", alter_sys=True)
finally:
    tasks = "/proc/self/task"
    print(json.dumps({
        "openssl": "_hashlib" in sys.modules,
        "numpy.random": "numpy.random" in sys.modules,
        "secrets": "secrets" in sys.modules,
        "pool": [name in sys.modules for name in ("concurrent.futures", "multiprocessing")],
        "simlab": "ioulab.simlab" in sys.modules,
        "csvtext": "ioulab.csvtext" in sys.modules,
        "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    }), file=sys.stderr)
"""

EVAL_ARGV = ("eval", "--anchor", "0,0,10,5", "--gt", "2,1,8,6", "--loss", "siou", "--grad")
PROBE_SWEEP_ARGV = ("sweep", "--samples", "101", "--out", "s.csv", "--report", "r.json")
PROBE_SIM_ARGV = ("sim", "--scenario", "high", "--points", "1", "--iterations", "1", "--out", "o")


class TestImports:
    """A command maps only what it reads: hashlib's OpenSSL costs about 3.6 MiB
    of RSS, and simlab compiles in each fresh process without a bytecode cache."""

    @pytest.mark.parametrize(
        "argv,csv", [(PROBE_SWEEP_ARGV, True), (EVAL_ARGV, False)], ids=["sweep", "eval"]
    )
    def test_sweep_and_eval_do_not_load_openssl(self, tmp_path, argv, csv):
        # cli._csv imports csvtext with a command's first CSV, after its memory peak
        report = run_probe(tmp_path, _CLI_PROBE, *argv)
        assert (report["openssl"], report["simlab"], report["csvtext"]) == (False, False, csv)

    def test_version_does_not_load_simlab(self, tmp_path):
        report = run_probe(tmp_path, _CLI_PROBE, "--version")
        assert (report["simlab"], report["csvtext"]) == (False, False)

    def test_the_probe_sees_sim_load_it(self, tmp_path):
        # sim hashes its manifest, after its descent's memory peak
        report = run_probe(tmp_path, _CLI_PROBE, *PROBE_SIM_ARGV)
        assert (report["openssl"], report["simlab"], report["csvtext"]) == (True, True, True)

    @pytest.mark.parametrize(
        "argv", [PROBE_SIM_ARGV, PROBE_SWEEP_ARGV, EVAL_ARGV], ids=lambda argv: argv[0]
    )
    def test_no_command_loads_numpy_random(self, tmp_path, argv):
        # simlab seeds its population with its own copy of numpy's stream
        report = run_probe(tmp_path, _CLI_PROBE, *argv)
        assert (report["numpy.random"], report["secrets"]) == (False, False)

    @pytest.mark.parametrize(
        "argv",
        [(*PROBE_SIM_ARGV, "--threads", "1"), PROBE_SWEEP_ARGV, EVAL_ARGV],
        ids=lambda argv: argv[0],
    )
    def test_one_worker_loads_no_pool(self, tmp_path, argv):
        assert run_probe(tmp_path, _CLI_PROBE, *argv)["pool"] == [False, False]

    def test_the_probe_sees_a_pooled_sim_load_it(self, tmp_path):
        # 2 specs of 4,116 cases, just over one chunk's worth of work:
        # --threads 2 starts two worker processes
        argv = ("sim", "--scenario", "high", "--points", "12", "--iterations", "1", "--out", "o")
        assert run_probe(tmp_path, _CLI_PROBE, *argv, "--threads", "2")["pool"] == [True, True]


RATIO_2_ARGV = ("eval", "--anchor", "0,0,10,5", "--gt", "2,1,8,6", "--loss", "inner-iou", "--ratio", "2")


class TestWarnings:
    """A warning raised during a command prints as one ``warning:`` line on
    stderr, or as one ``error:`` line, exit 2, where warnings are errors."""

    @pytest.mark.parametrize(
        "argv,config,ratio",
        [
            (RATIO_2_ARGV, None, "2"),
            (("sim", "--config", "cfg.json", "--out", "o"),
             {"specs": [{"base": "ciou", "inner": 1.7}], "n_points": 1, "iterations": 2}, "1.7"),
        ],
        ids=["eval", "sim-config"],
    )
    def test_one_line_and_the_run_goes_on(self, tmp_path, argv, config, ratio):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
        done = run_python(tmp_path, "-m", "ioulab", *argv, PYTHONWARNINGS=None)
        assert done.returncode == 0, done.stderr
        assert done.stderr == f"warning: inner ratio {ratio} is outside the typical range [0.5, 1.5]\n"
        if config is None:
            assert json.loads(done.stdout)["inner_iou"] > 0.0
        else:
            assert done.stdout.endswith("wrote o/summary.csv (1 specs, 343 cases)\n")

    def test_an_error_filter_makes_it_a_usage_error(self, tmp_path):
        done = run_python(tmp_path, "-W", "error", "-m", "ioulab", *RATIO_2_ARGV, PYTHONWARNINGS=None)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr == "error: inner ratio 2 is outside the typical range [0.5, 1.5]\n"

    def test_scoped_to_the_command(self, capsys):
        before = warnings.showwarning
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert run_cli(*RATIO_2_ARGV) == 0
            assert warnings.showwarning is before
        assert capsys.readouterr().err == "warning: inner ratio 2 is outside the typical range [0.5, 1.5]\n"


_LAZY_PROBE = """
import json, sys
import ioulab
numpy_loaded = "numpy" in sys.modules
unresolved = [name for name in ioulab.__all__ if not hasattr(ioulab, name)]
try:
    ioulab.no_such_name
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps([numpy_loaded, unresolved, ioulab.simlab.__name__, error]), file=sys.stderr)
"""

_ENVIRON_PROBE = """
import json, os, sys
before = dict(os.environ)
import ioulab.cli
print(json.dumps(dict(os.environ) == before), file=sys.stderr)
"""


class TestStartup:
    """The CLI starts numpy's OpenBLAS with one thread; ioulab as a library changes no setting."""

    def test_bare_import_loads_no_numpy(self, tmp_path):
        numpy_loaded, unresolved, simlab, error = run_probe(tmp_path, _LAZY_PROBE)
        assert not numpy_loaded
        assert unresolved == []
        assert simlab == "ioulab.simlab"
        assert "no_such_name" in error

    def test_cli_defaults_blas_to_one_thread(self, tmp_path):
        report = run_probe(tmp_path, _CLI_PROBE, *EVAL_ARGV, OPENBLAS_NUM_THREADS=None)
        assert report["blas"] == "1"
        if report["threads"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert report["threads"] == 1

    def test_the_users_setting_wins(self, tmp_path):
        report = run_probe(tmp_path, _CLI_PROBE, *EVAL_ARGV, OPENBLAS_NUM_THREADS="3")
        assert report["blas"] == "3"

    def test_library_import_leaves_the_environment(self, tmp_path):
        assert run_probe(tmp_path, _ENVIRON_PROBE, OPENBLAS_NUM_THREADS=None) is True

    def test_installed_script_enters_through_the_default(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        target = tomllib.loads(pyproject)["project"]["scripts"]["ioulab"]
        module, _, attr = target.partition(":")
        code = f"""
import importlib, json, os, sys
entry = getattr(importlib.import_module({module!r}), {attr!r})
import ioulab.cli
print(json.dumps([entry is ioulab.cli.main, os.environ.get("OPENBLAS_NUM_THREADS")]), file=sys.stderr)
"""
        assert run_probe(tmp_path, code, OPENBLAS_NUM_THREADS=None) == [True, "1"]


# Both register an exit handler before ioulab loads, so it runs after every
# handler of the run, and print how many objects the collector has frozen by
# then. The first runs `python -m ioulab <argv>`, the second ioulab.cli.main
# as a library; each keeps the command's exit code.
_EXIT_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))
sys.argv[0] = "ioulab"
runpy.run_module("ioulab", run_name="__main__", alter_sys=True)
"""

_LIBRARY_EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))
from ioulab.cli import main
sys.exit(main(sys.argv[1:]))
"""


def frozen_at_exit(tmp_path, probe: str, code: int, *argv: str) -> int:
    done = run_python(tmp_path, "-c", probe, *argv)
    assert done.returncode == code, done.stderr
    return int(done.stderr.splitlines()[-1])


class TestExit:
    """The command freezes the heap as it exits, so the interpreter's final
    collections skip it; ioulab as a library leaves the collector alone."""

    @pytest.mark.parametrize(
        "code,argv",
        [
            (0, EVAL_ARGV),
            (1, ("sweep", "--samples", "11")),  # a failed conclusion
            (2, ("sweep", "--samples", "1")),  # a refused setting
            (0, ("--version",)),  # argparse's SystemExit
            (2, ("sweep", "--no-such-option")),  # argparse's usage error
            (0, (*PROBE_SIM_ARGV, "--threads", "1")),
        ],
        ids=["eval", "failed-conclusion", "refused", "version", "usage", "sim"],
    )
    def test_every_way_out_freezes_the_heap(self, tmp_path, code, argv):
        assert frozen_at_exit(tmp_path, _EXIT_PROBE, code, *argv) > 0

    def test_library_use_freezes_nothing(self, tmp_path):
        assert frozen_at_exit(tmp_path, _LIBRARY_EXIT_PROBE, 0, *EVAL_ARGV) == 0
