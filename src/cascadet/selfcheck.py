"""Built-in oracle suites, runnable from the CLI.

Each check recomputes an operator's result with a slow, obviously correct
reference (scalar loops, brute-force suppression, finite differences) and
compares. Intended as a quick field diagnostic; the full test suite covers
the same ground more thoroughly.
"""

from __future__ import annotations

import numpy as np

from . import detector, losses, tensor, weights
from .oracles import brute_force_nms, naive_conv2d


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
    return True


def _check_gradients(rng) -> bool:
    step = 1e-5
    for _ in range(20):
        pred = rng.uniform(-1, 1, size=4)
        target = rng.uniform(-1, 1, size=4)
        _, grad = losses.loss_box(pred, target)
        for k in range(4):
            bumped, dipped = pred.copy(), pred.copy()
            bumped[k] += step
            dipped[k] -= step
            fd = (losses.loss_box(bumped, target)[0]
                  - losses.loss_box(dipped, target)[0]) / (2 * step)
            if abs(fd - grad[k]) > 1e-5 * max(1.0, abs(grad[k])):
                return False
        p = float(rng.uniform(0.05, 0.95))
        y = int(rng.integers(0, 2))
        _, grad_p = losses.loss_det(p, y)
        fd = (losses.loss_det(p + step, y)[0]
              - losses.loss_det(p - step, y)[0]) / (2 * step)
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
    with tempfile.TemporaryDirectory() as tmp:
        checks = [
            ("convolution vs scalar loop", _check_conv(rng)),
            ("softmax normalization", _check_softmax(rng)),
            ("greedy NMS vs brute force", _check_nms(rng)),
            ("analytic vs finite-difference gradients", _check_gradients(rng)),
            ("weight archive round-trip and corruption", _check_archive(Path(tmp))),
        ]
    ok = True
    for name, passed in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
        ok &= passed
    return ok
