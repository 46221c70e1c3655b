import hashlib
import json

import numpy as np
import pytest

from helpers import csv_reference
from ioulab import SCENARIOS, SimConfig, __version__, cli, scenario_specs
from ioulab.cli import CSV_ROWS_PER_WRITE, _csv, _write, main


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
# --points 2 --iterations 20 --per-case --threads 1` outputs.
SIM_CSV_SHA256 = {
    ("high", "summary.csv"): "518f75851c0e6e97caaa82d2328a17b52ef8981246a9c5c665d8aad5271fa274",
    ("high", "cases.csv"): "a6750c8c07559b345730c0b1a614347adf07d425e6111216144e3b2421c7fe0f",
    ("low", "summary.csv"): "1365e88cd51897fd0005889372eb73b52d418203e2d0e786c0ee180f44f8ed69",
    ("low", "cases.csv"): "ccfd0c83cbf84fb8a9127c36b7b85db42492e2fd069279b4a78e377440f1de3b",
}

# sha256 of the default `ioulab sweep --out` CSV, the same for either axis.
SWEEP_CSV_SHA256 = "5967641594abb870132b218aed06251eac233e20ee3d0cfe985b9fff9d7b3e0a"


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        # radius and ratio come from SCENARIOS; the step stays at the
        # SimConfig default rather than the preset's tuned one
        monkeypatch.setitem(SCENARIOS, "low", {"radius": (1.0, 2.0), "ratio": 1.3, "step_size": 0.3})
        out = tmp_path / "run"
        code = run_cli(
            "sim", "--scenario", "low", "--points", "1", "--iterations", "2",
            "--threads", "1", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec_list"] == ["ciou", "inner-ciou(1.3)"]
        want = SimConfig(
            specs=scenario_specs(1.3, ("ciou",)), radius=(1.0, 2.0), n_points=1, iterations=2
        )
        canonical = json.dumps(want.to_dict(), sort_keys=True, separators=(",", ":"))
        assert manifest["config_digest"] == hashlib.sha256(canonical.encode("utf-8")).hexdigest()

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

    def test_missing_aux_side_exits_two(self, capsys):
        code = run_cli("sweep", "--aux-sides", "10")
        assert code == 2
        assert "auxiliary side" in capsys.readouterr().err

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

    def test_failed_output_leaves_no_other_output(self, tmp_path, capsys):
        csv_path = tmp_path / "ok.csv"
        code = run_cli(
            "sweep", "--samples", "11", "--out", str(csv_path),
            "--report", str(tmp_path / "missing" / "r.json"),
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        # the first CSV runs out of memory after its header, with every
        # output of the run already open
        def failing_csv(path, header, blocks):
            def lines():
                yield ",".join(header) + "\n"
                raise MemoryError

            return path, lines()

        monkeypatch.setattr(cli, "_csv", failing_csv)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("error: out of memory")
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert written == []


class TestParser:
    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0
        assert __version__ in capsys.readouterr().out

    def test_command_required(self):
        assert run_cli() == 2
