"""Workload definitions and their seeded inputs.

Each workload puts most of its time in a different layer:

* ``clip640``: batch ``pipeline.run`` on 640x360 frames, default cascade,
  one worker. The refinement networks (rnet, onet) do most of the work.
* ``eval-longlog``: the ``cascadet eval`` path on a synthetic detection log
  of thousands of frames with planted matches, false positives and misses.
  No detector or tensor code runs.

Inputs are a pure function of the seed: frame ``i`` of a run with seed ``s``
is ``bench_frame(s + i, W, H)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "batch" or "eval"
    width: int = 0
    height: int = 0
    call_frames: int = 0         # frames per measured call / traced set
    log_frames: int = 0          # eval: frames in the synthetic log


WORKLOADS = {w.name: w for w in (
    Workload("clip640", "batch", 640, 360, call_frames=1),
    Workload("eval-longlog", "eval", log_frames=2000),
)}


# Frames: the look of ``fixtures.synthetic_frame`` (a diagonal gradient with
# a dozen soft tinted blobs), but one blob per cell of a 4x3 grid, with a
# narrower radius range. Blobs that scatter freely pile up or leave the frame
# bare, so the cascade's work per frame swings with the seed (stage-1
# survivors at 640x360 ranged 490-1810 over 16 seeds, a 21% CV of frame
# time); a grid keeps the texture spread evenly and halves that spread.
_BLOB_COLS, _BLOB_ROWS = 4, 3
_BLOB_RADIUS = (16, 28)
_TINT = np.array([1.0, 0.8, 0.6])


def bench_frame(seed: int, width: int, height: int) -> np.ndarray:
    """Deterministic (H, W, 3) uint8 frame for ``seed``."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    base = (xx * 0.3 + yy * 0.2) % 256
    blobs = np.zeros((height, width))
    cell_w, cell_h = width / _BLOB_COLS, height / _BLOB_ROWS
    for row in range(_BLOB_ROWS):
        for col in range(_BLOB_COLS):
            cy = (row + rng.uniform(0.3, 0.7)) * cell_h
            cx = (col + rng.uniform(0.3, 0.7)) * cell_w
            radius = rng.integers(*_BLOB_RADIUS)
            blobs += 120 * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2)
                                    / (2 * radius ** 2)))
    img = base[..., None] + blobs[..., None] * _TINT
    return np.clip(img, 0, 255).astype(np.uint8)


# Synthetic detection log: a 1280x720 frame split into 160x160 cells. Every
# truth and every false positive owns one cell, and boxes stay inside their
# cell, so no detection overlaps a truth other than its own and the greedy
# matcher's outcome is known in advance.
_CELL = 160
_GRID_COLS, _GRID_ROWS = 8, 4


def eval_log(seed: int, frames: int) -> tuple[list[str], list[str], dict]:
    """(detection log lines, ground-truth lines, planted counts).

    Per frame: 3-7 truths; each is missed with probability 0.1, otherwise
    matched by a detection jittered a few pixels (IoU well above 0.5) whose
    label is wrong with probability 0.15; plus 0-2 false positives in empty
    cells.
    """
    from cascadet.classifier import MaskLabel
    from cascadet.pipeline import Detection

    rng = np.random.default_rng(seed)
    labels = (MaskLabel.MASK, MaskLabel.NO_MASK)
    planted = {"face": {"tp": 0, "fp": 0, "fn": 0, "tn": 0},
               "mask": {"tp": 0, "fp": 0, "fn": 0, "tn": 0}}
    log_lines, truth_lines = [], []

    def box_in(cell: int) -> tuple[int, int, int, int]:
        cx, cy = (cell % _GRID_COLS) * _CELL, (cell // _GRID_COLS) * _CELL
        size = int(rng.integers(60, 101))
        x1 = cx + int(rng.integers(20, _CELL - 20 - size + 1))
        y1 = cy + int(rng.integers(20, _CELL - 20 - size + 1))
        return x1, y1, x1 + size, y1 + size

    def detection(frame, box, label) -> str:
        return Detection(frame_index=frame, x1=box[0], y1=box[1], x2=box[2],
                         y2=box[3], label=label,
                         confidence=float(rng.uniform(0.5, 1.0)),
                         face_score=float(rng.uniform(0.7, 1.0))).to_json()

    for frame in range(frames):
        n_truth = int(rng.integers(3, 8))
        n_fp = int(rng.integers(0, 3))
        cells = rng.permutation(_GRID_COLS * _GRID_ROWS)[:n_truth + n_fp]
        for cell in cells[:n_truth]:
            box = box_in(int(cell))
            truth = labels[int(rng.integers(0, 2))]
            truth_lines.append(json.dumps({
                "frame": frame, "x1": box[0], "y1": box[1], "x2": box[2],
                "y2": box[3], "label": truth.value}))
            if rng.random() < 0.1:
                planted["face"]["fn"] += 1
                continue
            jitter = rng.integers(-3, 4, size=4)
            det_box = tuple(int(v) for v in np.asarray(box) + jitter)
            wrong = rng.random() < 0.15
            label = labels[1 - labels.index(truth)] if wrong else truth
            log_lines.append(detection(frame, det_box, label))
            planted["face"]["tp"] += 1
            key = {(True, True): "tp", (False, False): "tn",
                   (True, False): "fp", (False, True): "fn"}[
                (label is MaskLabel.MASK, truth is MaskLabel.MASK)]
            planted["mask"][key] += 1
        for cell in cells[n_truth:]:
            log_lines.append(detection(frame, box_in(int(cell)),
                                       labels[int(rng.integers(0, 2))]))
            planted["face"]["fp"] += 1
    return log_lines, truth_lines, planted
