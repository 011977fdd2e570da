"""Command-line interface.

Subcommands:
    detect      run the detection+classification pipeline over a manifest
    eval        score a detection log against ground truth
    train-demo  desk-scale SGD demonstration on synthetic separable data
    selfcheck   run the built-in oracle suites

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageExit(message)


def _bounded(convert, low, high, what: str):
    """argparse type: ``convert(text)`` in [low, high], else a usage error
    saying the value must be ``what``; NaN is never in range."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_unit_interval = _bounded(float, 0.0, 1.0, "a number in [0, 1]")
_count = _bounded(int, 1, math.inf, "an integer >= 1")
_seed = _bounded(int, 0, math.inf, "an integer >= 0")
_rate = _bounded(float, 0.0, sys.float_info.max, "a finite number >= 0")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cascadet",
                     description="Masked-face detection pipeline and tools")
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run the frame pipeline")
    detect.add_argument("--config", required=True,
                        help="key=value run configuration file")

    evalp = sub.add_parser("eval", help="evaluate a detection log")
    evalp.add_argument("--log", required=True, help="detections JSONL")
    evalp.add_argument("--truth", required=True, help="ground-truth JSONL")
    evalp.add_argument("--iou", type=_unit_interval, default=0.5,
                       help="matching IoU threshold in [0, 1] (default 0.5)")
    evalp.add_argument("--compare", action="store_true",
                       help="include shipped literature baseline rows")
    evalp.add_argument("--csv", metavar="PATH",
                       help="also write the report as CSV")

    train = sub.add_parser("train-demo",
                           help="train the classifier head on synthetic data")
    train.add_argument("--seed", type=_seed, default=0)
    train.add_argument("--samples", type=_count, default=200)
    train.add_argument("--features", type=_count, default=32)
    train.add_argument("--hidden", type=_count, default=16)
    train.add_argument("--lr", type=_rate, default=0.05)
    train.add_argument("--epochs", type=_count, default=40)
    train.add_argument("--curve", metavar="PATH",
                       help="write the loss curve CSV here")

    sub.add_parser("selfcheck", help="run built-in oracle suites")
    return parser


def _cmd_detect(args) -> int:
    from . import pipeline

    config = pipeline.parse_config(args.config, env=dict(os.environ))
    summary = pipeline.run(config)
    print(f"frames: {summary.frames} ({summary.failed_frames} failed)")
    print(f"detections: {summary.detections}")
    print(f"wall time: {summary.wall_time_s:.2f}s")
    for stage, seconds in sorted(summary.stage_seconds.items()):
        print(f"  {stage}: {seconds:.2f}s")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from . import evaluate

    for flag, path in (("--log", args.log), ("--truth", args.truth)):
        if args.csv and os.path.realpath(args.csv) == os.path.realpath(path):
            print(f"error: --csv {args.csv} would overwrite the {flag} input",
                  file=sys.stderr)
            return EXIT_USAGE
    detections = evaluate.load_detection_log(args.log)
    truths = evaluate.load_ground_truth(args.truth)
    report = evaluate.evaluate(detections, truths, iou_threshold=args.iou)
    baselines = evaluate.LITERATURE_BASELINES if args.compare else ()
    print(evaluate.render_report(report, baselines))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(evaluate.render_csv(report, baselines))
    return EXIT_OK


def _cmd_train_demo(args) -> int:
    from . import losses

    features, labels = losses.make_separable_dataset(
        args.samples, args.features, seed=args.seed)
    params = losses.init_head(args.features, args.hidden, seed=args.seed)
    trained, curve = losses.train_head(params, features, labels,
                                       learning_rate=args.lr,
                                       epochs=args.epochs, seed=args.seed)
    if args.curve:
        losses.write_loss_curve(args.curve, curve)
    final_epoch, final_loss, final_acc = curve[-1]
    print(f"epochs: {final_epoch}")
    print(f"final loss: {final_loss:.6f}")
    print(f"final accuracy: {final_acc * 100:.2f}%")
    return EXIT_OK


def _cmd_selfcheck() -> int:
    from .selfcheck import run_selfcheck

    return EXIT_OK if run_selfcheck() else EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    from . import pipeline, weights
    from .losses import TrainingDiverged

    try:
        if args.command == "detect":
            return _cmd_detect(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "train-demo":
            return _cmd_train_demo(args)
        if args.command == "selfcheck":
            return _cmd_selfcheck()
        raise AssertionError(f"unhandled command {args.command}")
    except pipeline.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (pipeline.FrameReadError, weights.ArchiveError, OSError,
            ValueError, TrainingDiverged) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
