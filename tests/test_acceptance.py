"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with output visible:

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cascadet import cli
from cascadet import detector as D
from cascadet import fixtures
from cascadet import losses as L
from cascadet import oracles
from cascadet import pipeline as P
from cascadet import tensor as T
from cascadet import weights as W
from cascadet.classifier import BackboneSpec, build_classifier
from cascadet.evaluate import (ConfusionCounts, LITERATURE_BASELINES,
                               compute_metrics, render_report)


def report(criterion: int, text: str):
    print(f"\n[PASS] criterion {criterion}: {text}")


def test_criterion_1_operator_oracles():
    """conv/depthwise/pointwise/pooling/dense/batch norm vs scalar oracles,
    >= 100 randomized shapes each, elementwise <= 1e-5, under 60 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(100)

    def random_geometry():
        k = int(rng.choice([1, 2, 3, 5]))
        stride = int(rng.choice([1, 2]))
        padding = int(rng.choice([0, 1, 2]))
        extent = int(rng.integers(max(1, k - 2 * padding), k + 5))
        if extent + 2 * padding < k:
            extent = k
        return k, stride, padding, extent

    for _ in range(100):
        k, stride, padding, extent = random_geometry()
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        oc = int(rng.integers(1, 4))
        x = rng.uniform(-1, 1, (n, c, extent, extent)).astype(np.float32)
        w = rng.uniform(-1, 1, (oc, c, k, k)).astype(np.float32)
        b = rng.uniform(-1, 1, oc).astype(np.float32)
        got = T.conv2d(x, w, b, stride, padding)
        want = oracles.naive_conv2d(x, w, b, stride, padding)
        assert np.abs(got - want).max() <= 1e-5

    for _ in range(100):
        k, stride, padding, extent = random_geometry()
        c = int(rng.integers(1, 5))
        x = rng.uniform(-1, 1, (1, c, extent, extent)).astype(np.float32)
        w = rng.uniform(-1, 1, (c, 1, k, k)).astype(np.float32)
        got = T.depthwise_conv2d(x, w, stride, padding)
        want = oracles.naive_depthwise_conv2d(x, w, stride, padding)
        assert np.abs(got - want).max() <= 1e-5

    for _ in range(100):
        c = int(rng.integers(1, 6))
        oc = int(rng.integers(1, 6))
        extent = int(rng.integers(1, 7))
        x = rng.uniform(-1, 1, (1, c, extent, extent)).astype(np.float32)
        w = rng.uniform(-1, 1, (oc, c, 1, 1)).astype(np.float32)
        b = rng.uniform(-1, 1, oc).astype(np.float32)
        got = T.conv2d(x, w, b)
        want = oracles.naive_conv2d(x, w, b, 1, 0)
        assert np.abs(got - want).max() <= 1e-5

    for _ in range(100):
        kernel = int(rng.choice([2, 3]))
        stride = int(rng.choice([1, 2]))
        extent = int(rng.integers(kernel, kernel + 6))
        c = int(rng.integers(1, 4))
        x = rng.uniform(-1, 1, (1, c, extent, extent)).astype(np.float32)
        got = T.max_pool2d(x, kernel, stride)
        want = oracles.naive_max_pool2d(x, kernel, stride)
        assert np.abs(got - want).max() <= 1e-5
        got = T.global_avg_pool(x)
        want = oracles.naive_global_avg_pool(x)
        assert np.abs(got - want).max() <= 1e-5

    for _ in range(100):
        n_in = int(rng.integers(1, 30))
        n_out = int(rng.integers(1, 30))
        x = rng.uniform(-1, 1, (1, n_in)).astype(np.float32)
        w = rng.uniform(-1, 1, (n_out, n_in)).astype(np.float32)
        b = rng.uniform(-1, 1, n_out).astype(np.float32)
        assert np.abs(T.dense(x, w, b)
                      - oracles.naive_dense(x, w, b)).max() <= 1e-5

    for _ in range(100):
        c = int(rng.integers(1, 5))
        extent = int(rng.integers(1, 6))
        x = rng.uniform(-1, 1, (1, c, extent, extent)).astype(np.float32)
        gamma = rng.uniform(-1, 1, c).astype(np.float32)
        beta = rng.uniform(-1, 1, c).astype(np.float32)
        mean = rng.uniform(-1, 1, c).astype(np.float32)
        var = rng.uniform(0.05, 2.0, c).astype(np.float32)
        got = T.batch_norm(x, gamma, beta, mean, var, 1e-5)
        want = oracles.naive_batch_norm(x, gamma, beta, mean, var, 1e-5)
        assert np.abs(got - want).max() <= 1e-5

    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report(1, f"operator oracle suite (600 cases) in {elapsed:.1f}s")


def test_criterion_2_gradient_suite():
    """Analytic gradients vs central differences, >= 100 draws per loss."""
    started = time.perf_counter()
    rng = np.random.default_rng(200)
    for _ in range(100):
        pred = rng.uniform(-2, 2, 4)
        target = rng.uniform(-2, 2, 4)
        _, grad = L.loss_box(pred, target)
        fd = oracles.central_difference(lambda p: L.loss_box(p, target)[0], pred)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert (np.abs(grad - fd) / scale).max() <= 1e-6

    for _ in range(100):
        pred = rng.uniform(-2, 2, 10)
        target = rng.uniform(-2, 2, 10)
        _, grad = L.loss_landmark(pred, target)
        fd = oracles.central_difference(
            lambda p: L.loss_landmark(p, target)[0], pred)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert (np.abs(grad - fd) / scale).max() <= 1e-6

    for _ in range(100):
        p = float(rng.uniform(0.02, 0.98))
        y = int(rng.integers(0, 2))
        _, grad = L.loss_det(p, y)
        step = 1e-6
        fd = (L.loss_det(p + step, y)[0] - L.loss_det(p - step, y)[0]) / (2 * step)
        assert abs(grad - fd) / max(abs(fd), 1e-3) <= 1e-5

    elapsed = time.perf_counter() - started
    assert elapsed < 10
    report(2, f"gradient suite (300 draws) in {elapsed:.1f}s")


def test_criterion_3_fcn_equivalence():
    """Stage-1 proposal map equals exhaustive 12x12 sliding windows."""
    networks = D.CascadeNetworks.from_archive(fixtures.fixture_cascade_archive())
    rng = np.random.default_rng(300)
    image = rng.uniform(-1, 1, (1, 3, 24, 24)).astype(np.float32)
    _, scores, _ = D.generate_proposals(image, 1.0, networks.pnet,
                                        threshold=0.0)
    assert len(scores) == 49
    worst = 0.0
    k = 0
    for r in range(7):
        for c in range(7):
            window = image[:, :, 2 * r:2 * r + 12, 2 * c:2 * c + 12]
            window_prob = float(networks.pnet.forward(window)[0, 1, 0, 0])
            worst = max(worst, abs(window_prob - scores[k]))
            k += 1
    assert worst <= 1e-4
    report(3, f"FCN = sliding window on 49 cells, max |dp| = {worst:.2e}")


def test_criterion_4_nms_and_iou():
    """Greedy NMS equals the O(n^2) reference on 1,000 random 50-box
    instances; survivors overlap <= threshold; IoU matches rasterization."""
    rng = np.random.default_rng(400)
    for trial in range(1000):
        rows, scores = [], []
        for _ in range(50):
            x1, y1 = rng.uniform(0, 80, 2)
            rows.append((x1, y1, x1 + rng.uniform(2, 40), y1 + rng.uniform(2, 40)))
            scores.append(float(rng.uniform(0, 1)))
        boxes, scores = np.array(rows), np.array(scores)
        threshold = float(rng.uniform(0.2, 0.8))
        mode = "union" if trial % 2 == 0 else "min"
        got = D.nms(boxes, scores, threshold, mode).tolist()
        want = oracles.brute_force_nms(boxes, scores, threshold, mode)
        assert got == want
        if mode == "union":
            kept = boxes[got]
            assert (np.triu(D.iou(kept, kept), k=1) <= threshold).all()

    a_rows, b_rows = [], []
    for _ in range(50):
        x1, y1 = rng.integers(0, 12, 2)
        a_rows.append((int(x1), int(y1), int(x1 + rng.integers(1, 12)),
                       int(y1 + rng.integers(1, 12))))
        x1, y1 = rng.integers(0, 12, 2)
        b_rows.append((int(x1), int(y1), int(x1 + rng.integers(1, 12)),
                       int(y1 + rng.integers(1, 12))))
    overlaps = D.iou(np.array(a_rows, dtype=np.float64),
                     np.array(b_rows, dtype=np.float64))
    for i, (a, b) in enumerate(zip(a_rows, b_rows)):
        want = oracles.raster_iou(D.BoundingBox(*a), D.BoundingBox(*b))
        assert abs(overlaps[i, i] - want) <= 1e-6
    report(4, "NMS matches brute force on 1,000 instances; IoU matches "
              "pixel-count oracle")


def test_criterion_5_residual_identity_and_symmetric_head():
    """Zeroed 17-block backbone: residual blocks pass inputs through
    unchanged (exact); zeroed head yields [0.5, 0.5] within 1e-9."""
    spec = BackboneSpec()
    clf = build_classifier(spec, fixtures.zeroed_classifier_archive(spec))
    rng = np.random.default_rng(500)
    x = rng.uniform(-1, 1, (1, 3, 96, 96)).astype(np.float32)
    block_layers = [layer for layer in clf.layers
                    if layer.kind == "bottleneck-block"]
    assert len(block_layers) == 17
    residual_names = [layer.name for layer in block_layers if layer.residual]
    assert residual_names
    probs, taps = clf.forward(x, taps=tuple(l.name for l in block_layers))
    previous = None
    checked = 0
    for layer in block_layers:
        if layer.residual and previous is not None:
            np.testing.assert_array_equal(taps[layer.name], previous)
            checked += 1
        previous = taps[layer.name]
    assert checked == len(residual_names)
    assert np.abs(probs - 0.5).max() <= 1e-9
    report(5, f"{checked} residual blocks exact identity; head emitted "
              "[0.5, 0.5]")


def test_criterion_6_desk_scale_training():
    """train-demo defaults: >= 95% accuracy, loss non-increasing after
    epoch 1, < 30 s at a fixed seed."""
    started = time.perf_counter()
    features, labels = L.make_separable_dataset(200, 32, seed=0)
    params = L.init_head(32, 16, seed=0)
    _, curve = L.train_head(params, features, labels, learning_rate=0.05,
                            epochs=40, seed=0)
    accuracy = curve[-1][2]
    losses = [loss for _, loss, _ in curve]
    assert accuracy >= 0.95
    assert all(a >= b - 1e-12 for a, b in zip(losses[1:], losses[2:]))
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    report(6, f"trained to {accuracy * 100:.1f}% accuracy in {elapsed:.1f}s, "
              "loss monotone after epoch 1")


def test_criterion_7_metric_formulas_and_baselines():
    """compute_metrics reproduces the confusion examples exactly and the
    renderer ships the literature comparison constants."""
    m = compute_metrics(ConfusionCounts(tp=94, fp=6, fn=14))
    assert m.precision == 100 * 94 / 100
    assert m.recall == 100 * 94 / 108
    assert m.accuracy == 100 * 94 / 114
    m2 = compute_metrics(ConfusionCounts(tp=2))
    assert (m2.precision, m2.recall, m2.accuracy) == (100.0, 100.0, 100.0)
    m3 = compute_metrics(ConfusionCounts())
    assert m3.precision is None and m3.recall is None and m3.accuracy is None

    shipped = {b.name: b for b in LITERATURE_BASELINES}
    ref = shipped["Reference MTCNN+MobileNetV2 pipeline"]
    assert (ref.face.precision, ref.face.recall, ref.face.accuracy) == (
        94.50, 86.38, 81.84)
    assert (ref.mask.precision, ref.mask.recall, ref.mask.accuracy) == (
        84.39, 80.92, 81.74)
    cascaded = shipped["Cascaded framework for mask detection"]
    assert (cascaded.mask.accuracy, cascaded.mask.recall) == (86.6, 87.8)
    retina = shipped["RetinaFaceMask with MobileNet"]
    assert (retina.face.precision, retina.face.recall) == (83.0, 95.6)
    assert (retina.mask.precision, retina.mask.recall) == (82.3, 89.1)

    from cascadet.evaluate import EvalReport, Metrics, evaluate
    report_obj = EvalReport(
        face_counts=ConfusionCounts(tp=94, fp=6, fn=14),
        mask_counts=ConfusionCounts(),
        face=m, mask=compute_metrics(ConfusionCounts()))
    text = render_report(report_obj, LITERATURE_BASELINES)
    for value in ("94.50", "86.38", "81.84", "84.39", "80.92", "81.74",
                  "86.60", "87.80", "83.00", "95.60", "82.30", "89.10"):
        assert value in text
    report(7, "metric formulas exact; literature constants rendered")


@pytest.fixture(scope="module")
def detect_workspace(tmp_path_factory):
    """Ten 640x360 fixture frames plus frozen fixture weights on disk."""
    root = tmp_path_factory.mktemp("acceptance")
    frames_dir = root / "frames"
    frames_dir.mkdir()
    lines = []
    for i in range(10):
        name = f"frame{i:03d}.ppm"
        P.write_ppm(frames_dir / name, fixtures.synthetic_frame(i, 640, 360))
        lines.append(f"frames/{name}")
    (root / "frames.txt").write_text("\n".join(lines) + "\n")
    W.save(fixtures.fixture_cascade_archive(), root / "cascade.cwts")
    W.save(fixtures.fixture_classifier_archive(), root / "classifier.cwts")
    return root


def run_detect(root: Path, out_name: str, workers: int) -> float:
    config = root / f"{out_name}.cfg"
    config.write_text(
        "manifest=frames.txt\n"
        f"output_dir={out_name}\n"
        "cascade_weights=cascade.cwts\n"
        "classifier_weights=classifier.cwts\n"
        f"workers={workers}\n")
    started = time.perf_counter()
    assert cli.main(["detect", "--config", str(config)]) == cli.EXIT_OK
    return time.perf_counter() - started


def snapshot(root: Path, out_name: str) -> dict:
    out = root / out_name
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*.ppm"))}
    files["detections.jsonl"] = (out / "detections.jsonl").read_bytes()
    return files


def test_criterion_8_end_to_end_determinism(detect_workspace, capsys):
    """Byte-identical outputs across reruns and 1 vs 4 workers; < 120 s."""
    elapsed_single = run_detect(detect_workspace, "out1", workers=1)
    rerun_elapsed = run_detect(detect_workspace, "out2", workers=1)
    threaded_elapsed = run_detect(detect_workspace, "out4", workers=4)
    first = snapshot(detect_workspace, "out1")
    rerun = snapshot(detect_workspace, "out2")
    threaded = snapshot(detect_workspace, "out4")
    assert first == rerun, "rerun outputs differ"
    assert first == threaded, "worker-count changed outputs"
    assert len(first) > 1
    assert elapsed_single < 120

    summary = json.loads(
        (detect_workspace / "out1" / "summary.json").read_text())
    for stage in ("pyramid", "stage1", "stage2", "stage3", "classifier"):
        assert stage in summary["stage_seconds"]
    detections = first["detections.jsonl"].decode().splitlines()
    assert detections, "fixture run produced no detections"
    with capsys.disabled():
        report(8, f"10-frame run deterministic across reruns and 1|4 workers; "
                  f"{elapsed_single:.1f}s single, {threaded_elapsed:.1f}s "
                  f"with 4 workers, {len(detections)} detections")


def test_criterion_9_weight_format_fuzzing(tmp_path):
    """100 single-bit corruptions all rejected; round-trip bit-exact."""
    archive = fixtures.fixture_cascade_archive()
    path = tmp_path / "weights.cwts"
    W.save(archive, path)
    reloaded = W.load(path)
    assert reloaded == archive
    for name in archive.names():
        assert reloaded.get(name).tobytes() == archive.get(name).tobytes()

    original = path.read_bytes()
    rng = np.random.default_rng(900)
    rejected = 0
    for _ in range(100):
        bit = int(rng.integers(0, len(original) * 8))
        blob = bytearray(original)
        blob[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(blob))
        with pytest.raises(W.ArchiveError):
            W.load(path)
        rejected += 1
    assert rejected == 100
    report(9, "round-trip bit-exact; 100/100 single-bit corruptions rejected")
