"""Tests of the benchmark's own arithmetic and input generators.

Run from the repository root: python3 -m pytest -q perfbench
"""

import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cascadet import classifier, detector, evaluate, fixtures, pipeline  # noqa: E402
from cascadet.classifier import (BackboneSpec, MaskLabel,  # noqa: E402
                                 build_classifier, classifier_layers)
from cascadet.detector import (CascadeConfig, CascadeNetworks,  # noqa: E402
                               build_pnet_layers, build_rnet_layers)

from inputs import bench_frame, eval_log  # noqa: E402
from tracing import (Recorder, TracedNetwork, covered_seconds,  # noqa: E402
                     forward_work, tail_percentile)
from worker import to_detections  # noqa: E402


@pytest.fixture(scope="module")
def networks():
    return CascadeNetworks.from_archive(fixtures.fixture_cascade_archive())


def test_pnet_forward_work_hand_counted():
    # conv1 3->10 k3 on 12x12: 10x10 out, 10*10*10 outputs x 27 taps
    # pool 2/2 -> 5x5; conv2 10->16 k3: 3x3 out x 90 taps
    # conv3 16->32 k3: 1x1 out x 144 taps; reg 32->4 and prob_conv 32->2 1x1
    macs = 10 * 10 * 10 * 27 + 16 * 3 * 3 * 90 + 32 * 144 + 4 * 32 + 2 * 32
    assert macs == 44760
    # outputs in floats: conv1, prelu1 1000 each; pool 250; conv2, prelu2
    # 144 each; conv3, prelu3 32 each; reg 4; prob_conv 2; prob 2
    floats = 1000 + 1000 + 250 + 144 + 144 + 32 + 32 + 4 + 2 + 2
    assert forward_work(build_pnet_layers(), (1, 3, 12, 12)) == (macs, 4 * floats)


def test_forward_work_scales_with_batch():
    one = forward_work(build_rnet_layers(), (1, 3, 24, 24))
    seven = forward_work(build_rnet_layers(), (7, 3, 24, 24))
    assert seven == (7 * one[0], 7 * one[1])


@pytest.mark.parametrize("name, shape", [
    ("pnet", (2, 3, 40, 56)), ("rnet", (3, 3, 24, 24)), ("onet", (2, 3, 48, 48))])
def test_activation_bytes_match_real_outputs(networks, name, shape):
    network = getattr(networks, name)
    x = np.zeros(shape, np.float32)
    names = tuple(layer.name for layer in network.layers)
    _, outputs = network.forward(x, taps=names)
    assert forward_work(network.layers, shape)[1] == sum(
        out.nbytes for out in outputs.values())


def test_classifier_macs_match_the_published_backbone_cost():
    # MobileNetV2 at width 1.0 costs ~300M multiply-adds on 224x224
    # (Sandler et al. 2018); convolution cost scales with input area.
    macs, _ = forward_work(classifier_layers(BackboneSpec()), (1, 3, 96, 96))
    assert macs == pytest.approx(300e6 * (96 / 224) ** 2, rel=0.1)


@pytest.mark.parametrize("n, percentile, rank", [
    (40, 75.0, 30), (100, 90.0, 90), (20, 50.0, 10), (1000, 99.0, 990)])
def test_tail_keeps_ten_samples_beyond(n, percentile, rank):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    got_percentile, value = tail_percentile(values)
    assert got_percentile == percentile
    assert value == rank  # the rank-th smallest of 1..n
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("n", [1, 2, 11, 19])
def test_tail_falls_back_to_median_below_twenty_samples(n):
    values = [float(v) for v in range(n)]
    assert tail_percentile(values) == (50.0, statistics.median(values))


def test_covered_seconds_merges_overlaps_and_clips():
    spans = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert covered_seconds(spans, 0.5, 10.0) == pytest.approx(2.5 + 1.0 + 1.0)
    assert covered_seconds([], 0.0, 1.0) == 0.0


def test_traced_network_delegates_and_records(networks):
    rec = Recorder()
    traced = TracedNetwork(networks.rnet, "rnet", rec)
    x = np.random.default_rng(0).standard_normal((4, 3, 24, 24)).astype(np.float32)
    with rec.frame_span(7):
        got, taps = traced.forward(x, taps=("rnet.reg",))
    want, want_taps = networks.rnet.forward(x, taps=("rnet.reg",))
    assert got.tobytes() == want.tobytes()
    assert taps["rnet.reg"].tobytes() == want_taps["rnet.reg"].tobytes()
    assert traced.layers is networks.rnet.layers
    assert traced.input_shape == networks.rnet.input_shape
    span = next(s for s in rec.spans if s.name == "tensor.rnet.forward")
    assert span.frame == 7 and span.attrs["shape"] == (4, 3, 24, 24)


def test_eval_log_plants_the_counts_evaluate_finds(tmp_path):
    log_lines, truth_lines, planted = eval_log(seed=5, frames=60)
    (tmp_path / "log.jsonl").write_text("\n".join(log_lines) + "\n")
    (tmp_path / "truth.jsonl").write_text("\n".join(truth_lines) + "\n")
    report = evaluate.evaluate(
        evaluate.load_detection_log(tmp_path / "log.jsonl"),
        evaluate.load_ground_truth(tmp_path / "truth.jsonl"))
    for kind, counts in (("face", report.face_counts), ("mask", report.mask_counts)):
        assert planted[kind] == {"tp": counts.tp, "fp": counts.fp,
                                 "fn": counts.fn, "tn": counts.tn}
    assert all(planted["face"][k] > 0 for k in ("tp", "fp", "fn"))
    assert all(v > 0 for v in planted["mask"].values())
    assert eval_log(seed=5, frames=60) == (log_lines, truth_lines, planted)


def test_bench_frame_is_a_pure_function_of_the_seed():
    frame = bench_frame(3, 64, 36)
    assert frame.shape == (36, 64, 3) and frame.dtype == np.uint8
    assert np.array_equal(frame, bench_frame(3, 64, 36))
    assert not np.array_equal(frame, bench_frame(4, 64, 36))


def test_to_detections_matches_process_frame(networks):
    spec = BackboneSpec()
    clf = build_classifier(spec, fixtures.fixture_classifier_archive())
    config = CascadeConfig(min_face_size=40, threshold_onet=0.05, nms_stage3=0.95)
    frame = pipeline.Frame(index=3, width=320, height=180,
                           pixels=fixtures.synthetic_frame(2, 320, 180))
    want = pipeline.process_frame(frame, networks, clf, config, spec)
    tensor = detector.frame_to_tensor(frame.pixels)
    faces = detector.detect_faces(tensor, networks, config)
    got = to_detections(frame, classifier.classify_all(clf, tensor, faces))
    assert want and [d.to_json() for d in got] == [d.to_json() for d in want]
    assert all(d.label in (MaskLabel.MASK, MaskLabel.NO_MASK) for d in got)
