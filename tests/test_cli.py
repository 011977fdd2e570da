import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cascadet import cli, losses, tensor
from cascadet.classifier import MaskLabel
from cascadet.pipeline import Detection

from test_eval import multi_block_log, replace_line
from test_pipeline import write_run_setup


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        assert cli.main(["detect"]) == cli.EXIT_USAGE


class TestDetect:
    def test_end_to_end(self, tmp_path, capsys):
        config_path = write_run_setup(tmp_path, [0], width=160, height=120,
                                      extra_config="min_face_size=30\n")
        rc = cli.main(["detect", "--config", str(config_path)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "frames: 1" in out
        assert "wall time" in out
        assert (tmp_path / "out" / "detections.jsonl").exists()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["detect", "--config", str(tmp_path / "nope.cfg")])
        assert rc == cli.EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_missing_weights_is_data_error(self, tmp_path, capsys):
        config_path = write_run_setup(tmp_path, [0], width=160, height=120)
        (tmp_path / "cascade.cwts").unlink()
        rc = cli.main(["detect", "--config", str(config_path)])
        assert rc == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_output_over_weights_is_data_error(self, tmp_path, capsys):
        config_path = write_run_setup(tmp_path, [0], width=160, height=120)
        (tmp_path / "out").mkdir()
        (tmp_path / "cascade.cwts").rename(tmp_path / "out" / "detections.jsonl")
        config_path.write_text(config_path.read_text().replace(
            "cascade_weights=cascade.cwts", "cascade_weights=out/detections.jsonl"))
        rc = cli.main(["detect", "--config", str(config_path)])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "data error: " in err and "the cascade weights" in err

    def test_undecodable_config_is_config_error_naming_line(self, tmp_path,
                                                            capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_bytes(b"# frames\nmanifest=fr\xffames.txt\n")
        rc = cli.main(["detect", "--config", str(config_path)])
        assert rc == cli.EXIT_USAGE
        assert (f"config error: {config_path}:2: 'utf-8' codec can't decode"
                in capsys.readouterr().err)

    def test_out_of_range_setting_is_usage_error(self, tmp_path, capsys):
        config_path = write_run_setup(tmp_path, [0], width=160, height=120,
                                      extra_config="min_face_size=0\n")
        rc = cli.main(["detect", "--config", str(config_path)])
        assert rc == cli.EXIT_USAGE
        assert "min_face_size" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", [
        "threshold_onet=1.5", "classifier_extent=16", "annotate=maybe",
        # Finite, but the widest scaled channel count overflows.
        "width_multiplier=1e308"])
    def test_bad_setting_is_usage_error(self, tmp_path, capsys, setting):
        config_path = write_run_setup(tmp_path, [0], width=160, height=120,
                                      extra_config=setting + "\n")
        rc = cli.main(["detect", "--config", str(config_path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and setting.partition("=")[0] in err
        assert not (tmp_path / "out").exists()

    def test_corrupt_archive_is_data_error(self, tmp_path, capsys):
        config_path = write_run_setup(tmp_path, [0], width=160, height=120)
        blob = bytearray((tmp_path / "cascade.cwts").read_bytes())
        blob[20] ^= 0xFF
        (tmp_path / "cascade.cwts").write_bytes(bytes(blob))
        rc = cli.main(["detect", "--config", str(config_path)])
        assert rc == cli.EXIT_DATA


class TestEval:
    def write_logs(self, tmp_path):
        dets = [Detection(0, 10, 10, 30, 30, MaskLabel.MASK, 0.9, 0.95),
                Detection(0, 50, 50, 70, 70, MaskLabel.NO_MASK, 0.8, 0.9)]
        log = tmp_path / "det.jsonl"
        log.write_text("".join(d.to_json() + "\n" for d in dets))
        truth = tmp_path / "truth.jsonl"
        truth.write_text(
            '{"frame": 0, "x1": 10, "y1": 10, "x2": 30, "y2": 30, "label": "Mask"}\n'
            '{"frame": 0, "x1": 50, "y1": 50, "x2": 70, "y2": 70, "label": "Mask"}\n')
        return log, truth

    def test_eval_reports_metrics(self, tmp_path, capsys):
        log, truth = self.write_logs(tmp_path)
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "Face counts: TP=2 FP=0 FN=0" in out
        assert "Mask counts: TP=1 FP=0 FN=1" in out

    def test_eval_compare_includes_literature(self, tmp_path, capsys):
        log, truth = self.write_logs(tmp_path)
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth),
                       "--compare"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "[literature]" in out
        assert "94.50" in out

    def test_eval_writes_csv(self, tmp_path):
        log, truth = self.write_logs(tmp_path)
        csv_path = tmp_path / "report.csv"
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth),
                       "--csv", str(csv_path)])
        assert rc == cli.EXIT_OK
        assert csv_path.read_text().startswith("approach,")

    @pytest.mark.parametrize("via_symlink", [False, True],
                             ids=["same-path", "symlink"])
    @pytest.mark.parametrize("flag", ["--log", "--truth"])
    def test_csv_naming_an_input_is_usage_error(self, tmp_path, capsys, flag,
                                                via_symlink):
        log, truth = self.write_logs(tmp_path)
        target = log if flag == "--log" else truth
        before = target.read_bytes()
        csv_path = target
        if via_symlink:
            csv_path = tmp_path / "report.csv"
            csv_path.symlink_to(target)
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth),
                       "--csv", str(csv_path)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert f"--csv {csv_path} would overwrite the {flag} input" in captured.err
        assert captured.out == ""
        assert target.read_bytes() == before

    @pytest.mark.parametrize("record", [
        '[1, 2]',
        '{"frame": null, "x1": 10, "y1": 10, "x2": 30, "y2": 30, '
        '"label": "Mask", "confidence": 0.9, "face_score": 0.9}',
        '{"frame": 0, "x1": 10, "y1": 10, "x2": 30, "y2": 30, '
        '"label": "Mask", "confidence": 0.9, "face_score": NaN}',
        '{"frame": 0, "x1": 30, "y1": 10, "x2": 30, "y2": 30, '
        '"label": "Mask", "confidence": 0.9, "face_score": 0.9}',
        # An integer corner too large for a float.
        '{"frame": 0, "x1": 10, "y1": 10, "x2": 1' + "0" * 400 + ', "y2": 30, '
        '"label": "Mask", "confidence": 0.9, "face_score": 0.9}',
        # Corners 2**60 and 2**60 + 1: one float, so zero width.
        '{"frame": 0, "x1": 1152921504606846976, "y1": 10, '
        '"x2": 1152921504606846977, "y2": 30, '
        '"label": "Mask", "confidence": 0.9, "face_score": 0.9}',
        # Corners -10**307 and 10**307: each fits a float, the area does not.
        '{"frame": 0, "x1": -1' + "0" * 307 + ', "y1": -1' + "0" * 307
        + ', "x2": 1' + "0" * 307 + ', "y2": 1' + "0" * 307 + ', '
        '"label": "Mask", "confidence": 0.9, "face_score": 0.9}',
    ], ids=["non-object", "null-frame", "nan-score", "degenerate-box",
            "huge-corner", "zero-width-as-float", "overflowing-area"])
    def test_bad_log_record_is_data_error_naming_line(self, tmp_path, capsys,
                                                      record):
        log, truth = self.write_logs(tmp_path)
        log.write_text(log.read_text() + record + "\n")
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth)])
        assert rc == cli.EXIT_DATA
        assert f"{log}:3: bad detection record" in capsys.readouterr().err

    @pytest.mark.parametrize("corners, reason", [
        ('"x1": NaN, "y1": 10, "x2": 30, "y2": 30', "must be finite"),
        ('"x1": 10, "y1": 10, "x2": 30, "y2": Infinity', "must be finite"),
        ('"x1": 10, "y1": 10, "x2": 1' + "0" * 400 + ', "y2": 30',
         "must be finite"),
        ('"x1": 30, "y1": 10, "x2": 20, "y2": 30', "degenerate box"),
        ('"x1": 10, "y1": 30, "x2": 30, "y2": 30', "degenerate box"),
        ('"x1": -1e307, "y1": -1e307, "x2": 1e307, "y2": 1e307',
         "must be finite"),
    ], ids=["nan-corner", "infinite-corner", "huge-corner", "x2-below-x1",
            "zero-height", "overflowing-area"])
    def test_bad_truth_box_is_data_error_naming_line(self, tmp_path, capsys,
                                                     corners, reason):
        log, truth = self.write_logs(tmp_path)
        truth.write_text(truth.read_text()
                         + '{"frame": 0, ' + corners + ', "label": "Mask"}\n')
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth)])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{truth}:3: bad ground-truth record" in err
        assert reason in err

    @pytest.mark.parametrize("flag, kind", [("--log", "detection"),
                                            ("--truth", "ground-truth")])
    def test_deeply_nested_record_is_data_error_naming_line(
            self, tmp_path, capsys, flag, kind):
        """A line too deeply nested for the JSON decoder is a bad record,
        not a crash."""
        log, truth = self.write_logs(tmp_path)
        path = log if flag == "--log" else truth
        path.write_text(path.read_text() + "[" * 100_000 + "\n")
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth)])
        assert rc == cli.EXIT_DATA
        assert f"{path}:3: bad {kind} record" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, kind", [("--log", "detection"),
                                            ("--truth", "ground-truth")])
    def test_undecodable_line_is_data_error_naming_line(
            self, tmp_path, capsys, flag, kind):
        log, truth = self.write_logs(tmp_path)
        path = log if flag == "--log" else truth
        path.write_bytes(path.read_bytes() + b'{"label": "\xffMask"}\n')
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth)])
        assert rc == cli.EXIT_DATA
        assert (f"{path}:3: bad {kind} record: 'utf-8' codec can't decode "
                "byte 0xff" in capsys.readouterr().err)

    def test_bad_line_past_the_first_block_is_named(self, tmp_path, capsys):
        _, truth = self.write_logs(tmp_path)
        log = tmp_path / "long.jsonl"
        bad = multi_block_log(log)[2] + 5
        replace_line(log, bad, '{"frame": 1, "x1": 1, "y1": 1, "x2": 1, '
                               '"y2": 2, "label": "Mask", "confidence": 0.9, '
                               '"face_score": 0.9}')
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth)])
        assert rc == cli.EXIT_DATA
        assert (f"{log}:{bad}: bad detection record: degenerate box "
                "(1, 1, 1, 2)" in capsys.readouterr().err)

    def test_crlf_line_ends_give_the_same_report(self, tmp_path, capsys):
        log, truth = tmp_path / "det.jsonl", tmp_path / "truth.jsonl"
        multi_block_log(log)
        truth.write_text("".join(
            f'{{"frame": {f}, "x1": {f % 50}, "y1": 0, "x2": {f % 50 + 60}, '
            f'"y2": 50, "label": "Mask"}}\n' for f in range(0, 2_000, 3)))

        def report(log, truth):
            rc = cli.main(["eval", "--log", str(log), "--truth", str(truth),
                           "--compare"])
            assert rc == cli.EXIT_OK
            return capsys.readouterr().out

        def crlf(path):
            copy = path.with_suffix(".crlf")
            copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            return copy

        expected = report(log, truth)
        assert "Face counts: TP=0 " not in expected
        assert report(crlf(log), crlf(truth)) == expected

    @pytest.mark.parametrize("iou, tp", [("0", 2), ("1", 1)])
    def test_iou_at_the_interval_ends(self, tmp_path, capsys, iou, tp):
        # IoU 1, IoU 1/3 and a touching box (IoU 0): at 0 any overlap
        # matches, at 1 only an identical box.
        log = tmp_path / "det.jsonl"
        log.write_text("".join(
            Detection(3, *box, MaskLabel.MASK, 0.9, 0.9).to_json() + "\n"
            for box in ((0, 0, 10, 10), (20, 0, 30, 10), (45, 0, 55, 10))))
        truth = tmp_path / "truth.jsonl"
        truth.write_text("".join(
            f'{{"frame": 3, "x1": {x}, "y1": 0, "x2": {x + 10}, "y2": 10, '
            f'"label": "Mask"}}\n' for x in (0, 25, 55)))
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth),
                       "--iou", iou])
        assert rc == cli.EXIT_OK
        assert f"Face counts: TP={tp} FP={3 - tp} FN={3 - tp}" in (
            capsys.readouterr().out)

    @pytest.mark.parametrize("iou", ["nan", "1.5", "-0.1", "half"])
    def test_iou_outside_unit_interval_is_usage_error(self, tmp_path, capsys,
                                                      iou):
        log, truth = self.write_logs(tmp_path)
        rc = cli.main(["eval", "--log", str(log), "--truth", str(truth),
                       "--iou", iou])
        assert rc == cli.EXIT_USAGE
        assert "--iou" in capsys.readouterr().err

    def test_eval_missing_log_is_data_error(self, tmp_path):
        truth = tmp_path / "truth.jsonl"
        truth.write_text("")
        rc = cli.main(["eval", "--log", str(tmp_path / "no.jsonl"),
                       "--truth", str(truth)])
        assert rc == cli.EXIT_DATA


class TestTrainDemo:
    def test_train_demo_reports_accuracy(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.csv"
        rc = cli.main(["train-demo", "--seed", "0", "--epochs", "10",
                       "--curve", str(curve_path)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "final accuracy" in out
        lines = curve_path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 11

    @pytest.mark.parametrize("args", [
        ["--epochs", "0"], ["--samples", "0"], ["--samples", "-5"],
        ["--features", "0"], ["--hidden", "0"], ["--lr", "-0.1"],
        ["--lr", "inf"], ["--lr", "nan"], ["--seed", "-1"]])
    def test_out_of_range_size_is_usage_error(self, capsys, args):
        assert cli.main(["train-demo", *args]) == cli.EXIT_USAGE
        assert args[0] in capsys.readouterr().err

    def test_divergence_is_data_error_with_warnings_as_errors(self):
        """Under ``python -W error`` too, the overflow of a diverging run is
        the trainer's own data error, not a warning raised as a traceback."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cascadet.cli",
             "train-demo", "--lr", "1e308", "--epochs", "2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == cli.EXIT_DATA
        assert done.stderr == "data error: loss became non-finite at epoch 1\n"

    def test_train_demo_deterministic(self, capsys):
        assert cli.main(["train-demo", "--seed", "7", "--epochs", "3"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["train-demo", "--seed", "7", "--epochs", "3"]) == 0
        assert capsys.readouterr().out == first


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        rc = cli.main(["selfcheck"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "[PASS]" in out
        assert "[PASS] crop sampler vs scalar loop" in out
        assert "[PASS] fixture networks vs float64 reference" in out
        assert "[FAIL]" not in out

    def test_selfcheck_fails_on_inexact_convolution(self, capsys, monkeypatch):
        true_conv2d = tensor.conv2d

        def skewed(*args, **kwargs):
            return true_conv2d(*args, **kwargs) * np.float32(1.001)

        monkeypatch.setattr(tensor, "conv2d", skewed)
        assert cli.main(["selfcheck"]) == cli.EXIT_INTERNAL
        assert ("[FAIL] fixture networks vs float64 reference"
                in capsys.readouterr().out)

    def test_selfcheck_fails_on_wrong_gradient(self, capsys, monkeypatch):
        true_loss_box = losses.loss_box

        def skewed(pred, target):
            loss, grad = true_loss_box(pred, target)
            return loss, grad + 0.01

        monkeypatch.setattr(losses, "loss_box", skewed)
        rc = cli.main(["selfcheck"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_INTERNAL
        assert "[FAIL] analytic vs finite-difference gradients" in out
