"""Detection/classification evaluation: matching, confusion counts, metrics.

Detections are matched to ground truth per frame by greedy IoU assignment
in descending face-score order. The face task counts TP/FP/FN (TN is fixed
at 0: pure detection has no true-negative unit); the mask task scores label
agreement over matched pairs with Mask as the positive class. Metrics are
percentages; a zero denominator yields None ("undefined"), never a number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import MaskLabel
from .detector import iou
from .pipeline import Detection, check_box, check_json_types

DEFAULT_IOU_THRESHOLD = 0.5
UNDEFINED = "undefined"


@dataclass(frozen=True)
class GroundTruthEntry:
    frame_index: int
    x1: float
    y1: float
    x2: float
    y2: float
    label: MaskLabel

    def __post_init__(self):
        check_box(self.x1, self.y1, self.x2, self.y2)

    @classmethod
    def from_json(cls, line: str) -> GroundTruthEntry:
        obj = json.loads(line)
        check_json_types(obj, ("frame",), ("x1", "y1", "x2", "y2"))
        return cls(frame_index=obj["frame"], x1=obj["x1"], y1=obj["y1"],
                   x2=obj["x2"], y2=obj["y2"], label=MaskLabel(obj["label"]))


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


# (predicted, true) label -> mask confusion cell; Mask is the positive class.
_MASK_CELL = {(MaskLabel.MASK, MaskLabel.MASK): "tp",
              (MaskLabel.NO_MASK, MaskLabel.NO_MASK): "tn",
              (MaskLabel.MASK, MaskLabel.NO_MASK): "fp",
              (MaskLabel.NO_MASK, MaskLabel.MASK): "fn"}


def _boxes(records: list) -> np.ndarray:
    """(N, 4) corners of detections or ground-truth entries."""
    return np.array([(r.x1, r.y1, r.x2, r.y2) for r in records],
                    np.float64).reshape(-1, 4)


def match_detections(detections: list[Detection],
                     truths: list[GroundTruthEntry],
                     iou_threshold: float = DEFAULT_IOU_THRESHOLD,
                     ) -> tuple[ConfusionCounts, ConfusionCounts]:
    """Greedy per-frame matching; returns (face counts, mask counts).

    Within a frame, detections are visited in descending face score, then
    ascending (x1, y1, x2, y2, label, confidence); each claims the unmatched
    truth with the highest positive IoU at or above the threshold, an exact
    IoU tie going to the truth first in (x1, y1, x2, y2, label) order. Only
    identical records are interchangeable, so input order never affects the
    result.
    """
    by_frame: dict[int, tuple[list, list]] = {}
    for det in detections:
        by_frame.setdefault(det.frame_index, ([], []))[0].append(det)
    for gt in truths:
        by_frame.setdefault(gt.frame_index, ([], []))[1].append(gt)
    face = dict(tp=0, fp=0, fn=0)
    mask = dict(tp=0, tn=0, fp=0, fn=0)
    for dets, gts in by_frame.values():
        dets.sort(key=lambda d: (-d.face_score, d.x1, d.y1, d.x2, d.y2,
                                 d.label.value, d.confidence))
        gts.sort(key=lambda g: (g.x1, g.y1, g.x2, g.y2, g.label.value))
        overlaps = iou(_boxes(dets), _boxes(gts))
        overlaps = np.where(overlaps >= iou_threshold, overlaps, 0.0)
        matched = 0
        for det, row in zip(dets, overlaps):
            if not row.any():
                continue
            best = row.argmax()
            overlaps[:, best] = 0.0  # this truth is taken
            matched += 1
            mask[_MASK_CELL[det.label, gts[best].label]] += 1
        face["tp"] += matched
        face["fp"] += len(dets) - matched
        face["fn"] += len(gts) - matched
    return ConfusionCounts(**face), ConfusionCounts(**mask)


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


def evaluate(detections: list[Detection], truths: list[GroundTruthEntry],
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


def _read_jsonl(path: str | Path, kind: str, parse) -> list:
    """``parse`` applied to every non-blank line; a bad line raises
    ValueError naming ``path:line``."""
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(parse(line))
        except (KeyError, TypeError, ValueError, OverflowError,
                RecursionError) as exc:
            raise ValueError(f"{path}:{lineno}: bad {kind} record: {exc}")
    return records


def load_detection_log(path: str | Path) -> list[Detection]:
    """Detections from a JSONL log written by the pipeline."""
    return _read_jsonl(path, "detection", Detection.from_json)


def load_ground_truth(path: str | Path) -> list[GroundTruthEntry]:
    """Ground truth JSONL: objects with frame, x1, y1, x2, y2, label."""
    return _read_jsonl(path, "ground-truth", GroundTruthEntry.from_json)
