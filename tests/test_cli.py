import hashlib
import json

import pytest

from ioulab import SCENARIOS, SimConfig, __version__, scenario_specs
from ioulab.cli import main


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_exits_two(self, capsys):
        # the box areas underflow to 0, so the overlap is 0/0; NaN is not JSON
        code = run_cli(
            "eval", "--anchor", "0,0,1e-200,1e-200", "--gt", "0,0,1e-200,1e-200", "--loss", "iou"
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not finite" in captured.err


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
        # case generation squares the radius; 1e200 ** 2 is not a float
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

    def test_bad_aux_sides_value(self):
        assert run_cli("sweep", "--aux-sides", "8,abc") == 2

    def test_csv_deterministic(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            run_cli("sweep", "--samples", "51", "--out", str(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestParser:
    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0
        assert __version__ in capsys.readouterr().out

    def test_command_required(self):
        assert run_cli() == 2
