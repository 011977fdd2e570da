"""Detection/classification evaluation: matching, confusion counts, metrics.

Detections are matched to ground truth per frame by greedy IoU assignment
in descending face-score order. An exact score tie goes to the detection
first in (x1, y1, x2, y2, label, confidence) order, and an exact IoU tie to
the truth first in (x1, y1, x2, y2, label) order, so input order never
changes the counts. All frames of a log are matched together: frames are
padded to power-of-two record counts, cut into ``tensor.row_chunks`` blocks
by their padded IoU bytes, and each block claims in lockstep over
detection rank. Beyond the records' columns, which grow with the log, peak
memory follows the larger of that byte budget and one frame's own IoU
matrix.

The loaders read a JSONL log in blocks of whole lines, about
``tensor``'s byte budget each, and check a block as columns: one decode
per line, then one pass per field. A block that fails a check is checked
again one line at a time, which names the first bad line of the file as
``path:line``, so records and messages are those of a line-by-line read.

The face task counts TP/FP/FN (TN is fixed at 0: pure detection has no
true-negative unit); the mask task scores label agreement over matched
pairs with Mask as the positive class. Metrics are percentages; a zero
denominator yields None ("undefined"), never a number.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import tensor
from .classifier import MaskLabel
from .detector import iou
from .pipeline import CORNER_LIMIT, check_box

DEFAULT_IOU_THRESHOLD = 0.5
UNDEFINED = "undefined"

# The numbers a record keeps, in the matcher's key order.
DETECTION_FIELDS = ("face_score", "x1", "y1", "x2", "y2", "label",
                    "confidence")
TRUTH_FIELDS = ("x1", "y1", "x2", "y2", "label")


class Records(NamedTuple):
    """A log as columns: record ``i`` is in frame ``frames[i]`` (any JSON
    integer), and ``values[:, i]`` holds its ``*_FIELDS`` as float64, label 0
    for Mask and 1 for NoMask (corners exactly: ``check_box`` bounds them)."""
    frames: list[int]
    values: np.ndarray


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")


@dataclass(frozen=True)
class Metrics:
    """Percentages, or None where the denominator is zero."""
    precision: float | None
    recall: float | None
    accuracy: float | None


@dataclass(frozen=True)
class EvalReport:
    face_counts: ConfusionCounts
    mask_counts: ConfusionCounts
    face: Metrics
    mask: Metrics


@dataclass(frozen=True)
class BaselineRow:
    """A comparison row shipped from published literature, not measured."""
    name: str
    face: Metrics | None = None
    mask: Metrics | None = None


# Published comparison figures, shipped as data for report rendering.
LITERATURE_BASELINES: tuple[BaselineRow, ...] = (
    BaselineRow(
        name="Reference MTCNN+MobileNetV2 pipeline",
        face=Metrics(precision=94.50, recall=86.38, accuracy=81.84),
        mask=Metrics(precision=84.39, recall=80.92, accuracy=81.74)),
    BaselineRow(
        name="Cascaded framework for mask detection",
        mask=Metrics(precision=None, recall=87.8, accuracy=86.6)),
    BaselineRow(
        name="RetinaFaceMask with MobileNet",
        face=Metrics(precision=83.0, recall=95.6, accuracy=None),
        mask=Metrics(precision=82.3, recall=89.1, accuracy=None)),
)


def _frame_major(frame: np.ndarray, keys, place: np.ndarray,
                 starts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Records sorted by their frame's ``place``, then by ``keys`` (the
    first row most significant): the sorting permutation, and each sorted
    record's place and rank within its frame. ``starts[p]`` is the number
    of records in frames placed before ``p``."""
    order = np.lexsort((*keys[::-1], place[frame]))
    sorted_place = place[frame[order]]
    return order, sorted_place, np.arange(len(order)) - starts[sorted_place]


def match_detections(detections: Records, truths: Records,
                     iou_threshold: float = DEFAULT_IOU_THRESHOLD,
                     ) -> tuple[ConfusionCounts, ConfusionCounts]:
    """Greedy per-frame matching; returns (face counts, mask counts).

    Within a frame, detections are visited in descending face score, then
    ascending (x1, y1, x2, y2, label, confidence); each claims the unmatched
    truth with the highest positive IoU at or above the threshold, an exact
    IoU tie going to the truth first in (x1, y1, x2, y2, label) order. Only
    identical records are interchangeable, so input order never affects the
    result.

    All frames are matched together (see the module docstring). One
    ``lexsort`` per kind of record gives the visiting orders, each block of
    frames takes one :func:`detector.iou` call, and at each detection rank
    every frame of the block whose row still holds an overlap claims the
    row's first maximum and zeroes the claimed truth's column.
    """
    frames: dict[int, int] = {}  # frame index -> dense id
    det_frame, gt_frame = (
        np.array([frames.setdefault(f, len(frames)) for f in records.frames],
                 np.intp)
        for records in (detections, truths))
    dets, gts = detections.values, truths.values
    det_count = np.bincount(det_frame, minlength=len(frames))
    gt_count = np.bincount(gt_frame, minlength=len(frames))
    # Frames with both kinds of record first, by the exponents of their
    # counts rounded up to powers of two (frexp(n - 1)[1] is ceil(log2 n)).
    det_exp, gt_exp = np.frexp(det_count - 1)[1], np.frexp(gt_count - 1)[1]
    both = (det_count > 0) & (gt_count > 0)
    frame_order = np.lexsort((gt_exp, det_exp, ~both))
    place = np.empty_like(frame_order)
    place[frame_order] = np.arange(len(frame_order))
    det_start = np.concatenate(([0], np.cumsum(det_count[frame_order])))
    gt_start = np.concatenate(([0], np.cumsum(gt_count[frame_order])))
    det_order, det_place, det_rank = _frame_major(
        det_frame, (-dets[0], *dets[1:]), place, det_start)  # score descending
    gt_order, gt_place, gt_rank = _frame_major(gt_frame, gts, place, gt_start)

    # Claimed (detection, truth) pairs, as positions in visiting order.
    claimed_det, claimed_gt = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    matchable = int(both.sum())
    exps = np.stack((det_exp, gt_exp))[:, frame_order[:matchable]]
    group_starts = np.flatnonzero(np.diff(exps, prepend=-1).any(axis=0))
    for lo, hi in zip(group_starts, [*group_starts[1:], matchable]):
        rows, cols = 1 << int(exps[0, lo]), 1 << int(exps[1, lo])
        for chunk in tensor.row_chunks(hi - lo, 8 * rows * cols):
            first, stop = lo + chunk.start, lo + chunk.stop
            d = slice(det_start[first], det_start[stop])
            g = slice(gt_start[first], gt_start[stop])
            # Zero boxes pad each frame: they overlap nothing.
            det_boxes = np.zeros((stop - first, rows, 4))
            det_boxes[det_place[d] - first, det_rank[d]] = \
                dets[1:5, det_order[d]].T
            gt_boxes = np.zeros((stop - first, cols, 4))
            gt_boxes[gt_place[g] - first, gt_rank[g]] = gts[:4, gt_order[g]].T
            overlaps = iou(det_boxes, gt_boxes)
            overlaps[~(overlaps >= iou_threshold)] = 0.0
            block = np.arange(stop - first)
            for rank in range(rows):
                row = overlaps[:, rank]
                best = row.argmax(axis=1)
                hit = np.flatnonzero(row[block, best] > 0.0)
                best = best[hit]
                overlaps[hit, :, best] = 0.0  # these truths are taken
                claimed_det.append(det_start[first + hit] + rank)
                claimed_gt.append(gt_start[first + hit] + best)

    claimed_det = det_order[np.concatenate(claimed_det)]
    claimed_gt = gt_order[np.concatenate(claimed_gt)]
    # Label pairs (predicted, true) as 2 * predicted + true, Mask 0.
    tp, fp, fn, tn = np.bincount(
        (2 * dets[5, claimed_det] + gts[4, claimed_gt]).astype(np.intp),
        minlength=4).tolist()
    matched = len(claimed_det)
    return (ConfusionCounts(tp=matched, fp=len(det_frame) - matched,
                            fn=len(gt_frame) - matched),
            ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else 100.0 * num / den


def compute_metrics(counts: ConfusionCounts) -> Metrics:
    """Precision TP/(TP+FP), recall TP/(TP+FN), accuracy
    (TP+TN)/(TP+TN+FP+FN), each as a percentage or None when undefined."""
    return Metrics(
        precision=_ratio(counts.tp, counts.tp + counts.fp),
        recall=_ratio(counts.tp, counts.tp + counts.fn),
        accuracy=_ratio(counts.tp + counts.tn,
                        counts.tp + counts.tn + counts.fp + counts.fn))


def evaluate(detections: Records, truths: Records,
             iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> EvalReport:
    face_counts, mask_counts = match_detections(detections, truths, iou_threshold)
    return EvalReport(face_counts=face_counts, mask_counts=mask_counts,
                      face=compute_metrics(face_counts),
                      mask=compute_metrics(mask_counts))


def _row_cells(face: Metrics | None, mask: Metrics | None,
               number: str) -> list[str]:
    """Precision, recall and accuracy cells for both tasks, each formatted
    with the ``number`` format string, or UNDEFINED."""
    cells = []
    for metrics in (face, mask):
        values = ((None,) * 3 if metrics is None else
                  (metrics.precision, metrics.recall, metrics.accuracy))
        cells += [UNDEFINED if v is None else number.format(v) for v in values]
    return cells


def render_report(report: EvalReport,
                  baselines: tuple[BaselineRow, ...] = ()) -> str:
    """Aligned plain-text comparison table; baseline rows are marked as
    literature values rather than measurements."""
    header = ["Approach", "Face P", "Face R", "Face A",
              "Mask P", "Mask R", "Mask A"]
    rows = [["This run (measured)"]
            + _row_cells(report.face, report.mask, "{:.2f}%")]
    for baseline in baselines:
        rows.append([f"{baseline.name} [literature]"]
                    + _row_cells(baseline.face, baseline.mask, "{:.2f}%"))
    widths = [max(len(header[i]), *(len(row[i]) for row in rows))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    fc, mc = report.face_counts, report.mask_counts
    lines.append("")
    lines.append(f"Face counts: TP={fc.tp} FP={fc.fp} FN={fc.fn} TN={fc.tn}")
    lines.append(f"Mask counts: TP={mc.tp} FP={mc.fp} FN={mc.fn} TN={mc.tn}")
    return "\n".join(lines)


def render_csv(report: EvalReport,
               baselines: tuple[BaselineRow, ...] = ()) -> str:
    """CSV rows: header, one measured row, one row per baseline."""
    def csv_row(name: str, face: Metrics | None, mask: Metrics | None,
                source: str) -> str:
        return ",".join([name, *_row_cells(face, mask, "{:.4f}"), source])

    lines = ["approach,face_precision,face_recall,face_accuracy,"
             "mask_precision,mask_recall,mask_accuracy,source"]
    lines.append(csv_row("This run", report.face, report.mask, "measured"))
    for baseline in baselines:
        lines.append(csv_row(baseline.name, baseline.face, baseline.mask,
                             "literature"))
    return "\n".join(lines) + "\n"


def check_json_types(obj, integers: tuple[str, ...],
                     numbers: tuple[str, ...]) -> None:
    """Raise TypeError unless ``obj`` is a parsed JSON object whose
    ``integers`` fields are JSON integers and ``numbers`` fields JSON numbers
    (true and false are neither), KeyError if a field is missing."""
    if type(obj) is not dict:
        raise TypeError("expected a JSON object")
    for key in integers:
        if type(obj[key]) is not int:
            raise TypeError(f"{key} must be an integer, got {obj[key]!r}")
    for key in numbers:
        if type(obj[key]) not in (int, float):
            raise TypeError(f"{key} must be a number, got {obj[key]!r}")


class _Schema(NamedTuple):
    """How a loader checks one kind of record."""
    kind: str  # as error messages name it
    fields: tuple[str, ...]  # the numbers kept, in the matcher's key order
    integers: tuple[str, ...]  # fields that must be JSON integers
    numbers: tuple[str, ...]  # fields that must be finite JSON numbers


_DETECTIONS = _Schema("detection", DETECTION_FIELDS,
                      ("frame", "x1", "y1", "x2", "y2"),
                      ("confidence", "face_score"))
_TRUTHS = _Schema("ground-truth", TRUTH_FIELDS, ("frame",),
                  ("x1", "y1", "x2", "y2"))
_LABELS = frozenset(label.value for label in MaskLabel)
_raw_decode = json.JSONDecoder().raw_decode


def _check_lines(path: str | Path, schema: _Schema, lines: list[bytes],
                 first: int) -> tuple[list[int], np.ndarray]:
    """The frames and ``(fields, n)`` values of the records in ``lines``,
    the first of which is line ``first`` of ``path``, checked one line at a
    time; the first bad line, undecodable UTF-8 included, raises ValueError
    naming ``path:line``. Every loader error is worded here."""
    row_of = itemgetter(*schema.fields)
    numbers_of = itemgetter(*schema.numbers)
    frames, values = [], array("d")
    for lineno, line in enumerate(lines, start=first):
        try:
            text = line.decode()
            if not text.strip():
                continue
            obj = json.loads(text)
            check_json_types(obj, schema.integers, schema.numbers)
            obj["label"] = MaskLabel(obj["label"]) is MaskLabel.NO_MASK
            check_box(obj["x1"], obj["y1"], obj["x2"], obj["y2"])
            if not all(map(math.isfinite, numbers_of(obj))):
                raise ValueError(
                    f"{' and '.join(schema.numbers)} must be finite")
        except (KeyError, TypeError, ValueError, OverflowError,
                RecursionError) as exc:
            raise ValueError(
                f"{path}:{lineno}: bad {schema.kind} record: {exc}")
        frames.append(obj["frame"])
        values.extend(row_of(obj))
    return frames, np.frombuffer(values).reshape(-1, len(schema.fields)).T


def _check_block(schema: _Schema,
                 lines: list[bytes]) -> tuple[list[int], np.ndarray]:
    """What :func:`_check_lines` returns for ``lines``, checked as columns:
    one decode of the block, one ``raw_decode`` per line and one pass per
    field. A check that fails raises KeyError, TypeError, ValueError,
    OverflowError or RecursionError, naming no line."""
    texts = b"".join(lines).decode().split("\n")
    # Blank lines are skipped; JSON allows " \t\r" around a value.
    texts = [text.strip(" \t\r") for text in filter(str.strip, texts)]
    decoded = list(map(_raw_decode, texts))
    if list(map(itemgetter(1), decoded)) != list(map(len, texts)):
        raise ValueError("not one JSON value a line")
    objs = list(map(itemgetter(0), decoded))
    # A value that is not an object raises TypeError here.
    column = {key: list(map(itemgetter(key), objs))
              for key in ("frame", *schema.fields)}
    if (any(set(map(type, column[key])) != {int} for key in schema.integers)
            or any(not set(map(type, column[key])) <= {int, float}
                   for key in schema.numbers)
            or not set(column["label"]) <= _LABELS):
        raise TypeError("mistyped field")
    # Python compares ints and floats exactly; NaN, which min and max may
    # pass over, fails the checks on the float64 values below.
    if any(min(column[key]) < -CORNER_LIMIT or max(column[key]) > CORNER_LIMIT
           for key in ("x1", "y1", "x2", "y2")):
        raise ValueError("corner out of range")
    column["label"] = list(map(MaskLabel.NO_MASK.value.__eq__,
                               column["label"]))
    values = np.array([column[key] for key in schema.fields], np.float64)
    x1 = schema.fields.index("x1")
    if not (np.isfinite(values).all()
            and (values[x1] < values[x1 + 2]).all()
            and (values[x1 + 1] < values[x1 + 3]).all()):
        raise ValueError("degenerate or non-finite record")
    return column["frame"], values


def _load(path: str | Path, schema: _Schema) -> Records:
    """Every non-blank line of a JSONL file, split on "\n" only, checked and
    kept as ``schema.fields``. The file is read in blocks of whole lines of
    about ``tensor``'s byte budget, each checked as columns by
    :func:`_check_block`; a block that fails is checked again one line at a
    time by :func:`_check_lines`, which raises ValueError naming
    ``path:line`` for its first bad line (undecodable UTF-8 included), so
    the first bad line of the file is the one named. Equal frame indices
    share one int object."""
    shared: dict[int, int] = {}
    frames, blocks = [], [np.empty((len(schema.fields), 0))]
    with open(path, "rb") as fh:
        first = 1
        while lines := fh.readlines(tensor._BLOCK_BYTES):
            try:
                block_frames, values = _check_block(schema, lines)
            except (KeyError, TypeError, ValueError, OverflowError,
                    RecursionError):
                block_frames, values = _check_lines(path, schema, lines, first)
            frames.extend(map(shared.setdefault, block_frames, block_frames))
            blocks.append(values)
            first += len(lines)
    return Records(frames, np.concatenate(blocks, axis=1))


def load_detection_log(path: str | Path) -> Records:
    """Detections from a JSONL log written by the pipeline."""
    return _load(path, _DETECTIONS)


def load_ground_truth(path: str | Path) -> Records:
    """Ground truth JSONL: objects with frame, x1, y1, x2, y2, label."""
    return _load(path, _TRUTHS)
