"""Built-in oracle suites, runnable from the CLI.

Each check recomputes an operator's result with a slow, obviously correct
reference (scalar loops, brute-force suppression, finite differences, a
float64 forward) and compares. Intended as a quick field diagnostic; the
full test suite covers the same ground more thoroughly.
"""

from __future__ import annotations

import numpy as np

from . import detector, fixtures, losses, tensor, weights
from .classifier import BackboneSpec, build_classifier
from .oracles import (brute_force_nms, central_difference, naive_conv2d,
                      naive_crop_resize, reference_forward, relative_gap)

# The pre-softmax outputs of each fixture network, and the largest relative
# gap (:func:`oracles.relative_gap`) each may have from
# :func:`oracles.reference_forward`. Each bound is ten times the largest gap
# measured on :func:`network_input` seeds 1-12 (4 crops, 2 for the
# classifier) with im2col columns in (C, kH, kW) order, before they became
# window-major, rounded up to one significant digit. A bound is never
# loosened: new arithmetic must fit the old bound.
REFERENCE_TAPS = {
    "pnet": ("pnet.prob_conv", "pnet.reg"),
    "rnet": ("rnet.prob_fc", "rnet.reg"),
    "onet": ("onet.prob_fc", "onet.reg", "onet.landmarks"),
    "classifier": ("head.fc2",),
}
REFERENCE_BOUNDS = {
    "pnet.prob_conv": 8e-6, "pnet.reg": 8e-6,
    "rnet.prob_fc": 2e-5, "rnet.reg": 9e-6,
    "onet.prob_fc": 6e-5, "onet.reg": 3e-5, "onet.landmarks": 2e-5,
    "head.fc2": 2e-4,
}


def fixture_networks() -> dict[str, tuple[tensor.Network, weights.WeightArchive]]:
    """The four fixture networks by name, each with its archive."""
    cascade = fixtures.fixture_cascade_archive()
    networks = detector.CascadeNetworks.from_archive(cascade)
    spec = BackboneSpec()
    archive = fixtures.fixture_classifier_archive(spec)
    return {"pnet": (networks.pnet, cascade), "rnet": (networks.rnet, cascade),
            "onet": (networks.onet, cascade),
            "classifier": (build_classifier(spec, archive), archive)}


def network_input(network: tensor.Network, seed: int, crops: int) -> tensor.Tensor:
    """A small input as the pipeline would give ``network``: a 48x36
    pyramid level of synthetic frame ``seed`` (160x120) for a network of
    any input size, else ``crops`` crops of that frame at the network's
    input extent, some hanging past its edges."""
    frame = detector.frame_to_tensor(fixtures.synthetic_frame(seed, 160, 120))
    if network.input_shape is None:
        return detector.bilinear_resize(frame, 36, 48)
    rng = np.random.default_rng(seed)
    corner = rng.uniform(-20, 130, (crops, 2))
    boxes = np.hstack([corner, corner + rng.uniform(20, 60, (crops, 2))])
    return detector.crop_resize_batch(frame, boxes, network.input_shape[-1])


def reference_gaps(name: str, network: tensor.Network, archive,
                   x: tensor.Tensor) -> dict[str, float]:
    """The :func:`oracles.relative_gap` of each of fixture network
    ``name``'s pre-softmax taps from the float64 reference forward on ``x``."""
    taps = REFERENCE_TAPS[name]
    _, got = network.forward(x, taps=taps)
    _, want = reference_forward(network.layers, archive, x, taps=taps)
    return {tap: relative_gap(got[tap], want[tap]) for tap in taps}


def _check_conv(rng) -> bool:
    for _ in range(10):
        x = rng.uniform(-1, 1, size=(1, 3, 7, 7)).astype(np.float32)
        w = rng.uniform(-1, 1, size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.uniform(-1, 1, size=4).astype(np.float32)
        got = tensor.conv2d(x, w, b, stride=1, padding=1)
        want = naive_conv2d(x, w, b, stride=1, padding=1)
        if np.abs(got - want).max() > 1e-5:
            return False
    return True


def _check_crop(rng) -> bool:
    frame = rng.uniform(-1, 1, size=(1, 3, 9, 11)).astype(np.float32)
    for _ in range(10):
        # Corners up to 6 pixels past the frame, sides 1-12 pixels.
        corner = rng.uniform(-6, 12, size=(8, 2))
        boxes = np.hstack([corner, corner + rng.uniform(1, 12, size=(8, 2))])
        extent = int(rng.integers(1, 9))
        got = detector.crop_resize_batch(frame, boxes, extent)
        for box, crop in zip(boxes, got):
            if np.abs(crop - naive_crop_resize(frame, box, extent)).max() > 1e-6:
                return False
    return True


def _check_nms(rng) -> bool:
    for _ in range(20):
        boxes, scores = [], []
        for _ in range(30):
            x1, y1 = rng.uniform(0, 50, size=2)
            boxes.append((x1, y1, x1 + rng.uniform(5, 30), y1 + rng.uniform(5, 30)))
            scores.append(rng.uniform(0, 1))
        boxes, scores = np.array(boxes), np.array(scores)
        for mode in ("union", "min"):
            got = detector.nms(boxes, scores, 0.5, mode)
            if got.tolist() != brute_force_nms(boxes, scores, 0.5, mode):
                return False
    # A proposal level: 300 of the 12-pixel boxes at stride 2 on a 30x30
    # grid, where the pair sweep leaves out most pairs.
    cells = rng.choice(900, size=300, replace=False)
    corner = detector.PNET_STRIDE * np.stack([cells % 30, cells // 30], axis=1)
    boxes = np.hstack([corner, corner + detector.PNET_EXTENT]).astype(np.float64)
    scores = rng.uniform(0, 1, len(boxes))
    for mode in ("union", "min"):
        got = detector.nms(boxes, scores, 0.5, mode)
        if got.tolist() != brute_force_nms(boxes, scores, 0.5, mode):
            return False
    return True


def _check_networks(networks) -> bool:
    for name, (network, archive) in networks.items():
        x = network_input(network, 1, 1)
        gaps = reference_gaps(name, network, archive, x)
        if any(gap > REFERENCE_BOUNDS[tap] for tap, gap in gaps.items()):
            return False
    return True


def _check_batch_invariance(networks) -> bool:
    for network, _ in networks.values():
        x = np.concatenate([network_input(network, seed, 1)
                            for seed in range(1, 6)])
        alone = np.concatenate([network.forward(row[None]) for row in x])
        if network.forward(x).tobytes() != alone.tobytes():
            return False
    return True


def _check_gradients(rng) -> bool:
    for _ in range(20):
        pred = rng.uniform(-1, 1, size=4)
        target = rng.uniform(-1, 1, size=4)
        _, grad = losses.loss_box(pred, target)
        fd = central_difference(lambda v: losses.loss_box(v, target)[0], pred)
        if (np.abs(fd - grad) > 1e-5 * np.maximum(1.0, np.abs(grad))).any():
            return False
        p = float(rng.uniform(0.05, 0.95))
        y = int(rng.integers(0, 2))
        _, grad_p = losses.loss_det(p, y)
        fd = central_difference(lambda q: losses.loss_det(q, y)[0], p)
        if abs(fd - grad_p) > 1e-4 * max(1.0, abs(grad_p)):
            return False
    return True


def _check_archive(tmpdir) -> bool:
    archive = weights.random_init([("a", (3, 2)), ("b", (5,))], seed=7)
    path = tmpdir / "selfcheck.cwts"
    weights.save(archive, path)
    if weights.load(path) != archive:
        return False
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    path.write_bytes(bytes(blob))
    try:
        weights.load(path)
    except weights.ArchiveError:
        return True
    return False


def _check_softmax(rng) -> bool:
    for _ in range(20):
        v = rng.uniform(-5, 5, size=int(rng.integers(2, 9))).astype(np.float32)
        out = tensor.softmax(v)
        if abs(float(out.sum()) - 1.0) > 1e-6 or (out <= 0).any():
            return False
    return True


def run_selfcheck() -> bool:
    """Run every suite, print one line per check, return overall success."""
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(2024)
    networks = fixture_networks()
    with tempfile.TemporaryDirectory() as tmp:
        checks = [
            ("convolution vs scalar loop", _check_conv(rng)),
            ("softmax normalization", _check_softmax(rng)),
            ("greedy NMS vs brute force", _check_nms(rng)),
            ("analytic vs finite-difference gradients", _check_gradients(rng)),
            ("weight archive round-trip and corruption", _check_archive(Path(tmp))),
            ("crop sampler vs scalar loop", _check_crop(rng)),
            ("fixture networks vs float64 reference", _check_networks(networks)),
            ("batched rows equal one-at-a-time rows",
             _check_batch_invariance(networks)),
        ]
    ok = True
    for name, passed in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
        ok &= passed
    return ok
