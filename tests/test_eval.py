import json
import warnings

import numpy as np
import pytest

from cascadet import evaluate as E
from cascadet.classifier import MaskLabel
from cascadet.detector import iou
from cascadet.pipeline import Detection


def det(frame, x1, y1, x2, y2, label=MaskLabel.MASK, conf=0.9, score=0.9):
    return Detection(frame_index=frame, x1=x1, y1=y1, x2=x2, y2=y2,
                     label=label, confidence=conf, face_score=score)


def truth(frame, x1, y1, x2, y2, label=MaskLabel.MASK):
    return E.GroundTruthEntry(frame_index=frame, x1=x1, y1=y1, x2=x2, y2=y2,
                              label=label)


def scalar_iou(a, b):
    """IoU of two (x1, y1, x2, y2) tuples, one pair at a time."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def reference_matcher(detections, truths, threshold):
    """Independent re-implementation of the greedy matching protocol."""
    def truth_key(t):
        return (t.x1, t.y1, t.x2, t.y2, t.label.value)

    frames = sorted({d.frame_index for d in detections}
                    | {t.frame_index for t in truths})
    face = {"tp": 0, "fp": 0, "fn": 0}
    mask = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for f in frames:
        dets = sorted([d for d in detections if d.frame_index == f],
                      key=lambda d: (-d.face_score, d.x1, d.y1, d.x2, d.y2,
                                     d.label.value, d.confidence))
        gts = [t for t in truths if t.frame_index == f]
        used = set()
        for d in dets:
            candidates = [(scalar_iou((d.x1, d.y1, d.x2, d.y2), truth_key(g)), gi)
                          for gi, g in enumerate(gts) if gi not in used]
            candidates = [(o, gi) for o, gi in candidates if o >= threshold]
            if not candidates:
                face["fp"] += 1
                continue
            best_overlap = max(o for o, _ in candidates)
            gi = min((gi for o, gi in candidates if o == best_overlap),
                     key=lambda gi: truth_key(gts[gi]))
            used.add(gi)
            face["tp"] += 1
            want_mask = gts[gi].label is MaskLabel.MASK
            got_mask = d.label is MaskLabel.MASK
            if got_mask and want_mask:
                mask["tp"] += 1
            elif not got_mask and not want_mask:
                mask["tn"] += 1
            elif got_mask:
                mask["fp"] += 1
            else:
                mask["fn"] += 1
        face["fn"] += len(gts) - len(used)
    return face, mask


def assert_matches_reference(detections, truths):
    """``E.match_detections`` at IoU 0.5, checked against the reference."""
    face, mask = E.match_detections(detections, truths)
    ref_face, ref_mask = reference_matcher(detections, truths, 0.5)
    assert (face.tp, face.fp, face.fn) == (
        ref_face["tp"], ref_face["fp"], ref_face["fn"])
    assert (mask.tp, mask.tn, mask.fp, mask.fn) == (
        ref_mask["tp"], ref_mask["tn"], ref_mask["fp"], ref_mask["fn"])
    return face, mask


class TestMatchDetections:
    def test_perfect_match(self):
        dets = [det(0, 10, 10, 30, 30), det(0, 50, 50, 80, 80),
                det(1, 5, 5, 25, 25)]
        truths = [truth(0, 10, 10, 30, 30), truth(0, 50, 50, 80, 80),
                  truth(1, 5, 5, 25, 25)]
        face, mask = E.match_detections(dets, truths)
        assert (face.tp, face.fp, face.fn, face.tn) == (3, 0, 0, 0)
        assert mask.tp == 3

    def test_unmatched_detection_is_false_positive(self):
        face, mask = E.match_detections([det(0, 0, 0, 10, 10)], [])
        assert (face.tp, face.fp, face.fn) == (0, 1, 0)
        assert (mask.tp, mask.tn, mask.fp, mask.fn) == (0, 0, 0, 0)

    def test_unmatched_truth_is_false_negative(self):
        face, _ = E.match_detections([], [truth(0, 0, 0, 10, 10)])
        assert (face.tp, face.fp, face.fn) == (0, 0, 1)

    def test_mask_confusion_cells(self):
        dets = [det(0, 0, 0, 10, 10, label=MaskLabel.MASK),
                det(0, 20, 20, 30, 30, label=MaskLabel.NO_MASK),
                det(0, 40, 40, 50, 50, label=MaskLabel.MASK),
                det(0, 60, 60, 70, 70, label=MaskLabel.NO_MASK)]
        truths = [truth(0, 0, 0, 10, 10, label=MaskLabel.MASK),
                  truth(0, 20, 20, 30, 30, label=MaskLabel.NO_MASK),
                  truth(0, 40, 40, 50, 50, label=MaskLabel.NO_MASK),
                  truth(0, 60, 60, 70, 70, label=MaskLabel.MASK)]
        _, mask = E.match_detections(dets, truths)
        assert (mask.tp, mask.tn, mask.fp, mask.fn) == (1, 1, 1, 1)

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            dets, truths = [], []
            for frame in range(5):
                for _ in range(20):
                    x1, y1 = rng.integers(0, 80, 2)
                    w, h = rng.integers(5, 40, 2)
                    label = (MaskLabel.MASK if rng.random() < 0.5
                             else MaskLabel.NO_MASK)
                    if rng.random() < 0.5:
                        dets.append(det(frame, int(x1), int(y1),
                                        int(x1 + w), int(y1 + h), label=label,
                                        score=float(rng.random())))
                    else:
                        truths.append(truth(frame, float(x1), float(y1),
                                            float(x1 + w), float(y1 + h),
                                            label=label))
            face, mask = assert_matches_reference(dets, truths)
            # Conservation: every detection and truth is accounted for.
            assert face.tp + face.fp == len(dets)
            assert face.tp + face.fn == len(truths)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        dets = [det(0, int(10 * i), 0, int(10 * i + 8), 8,
                    score=float(0.1 + 0.05 * i)) for i in range(10)]
        truths = [truth(0, 10 * i + 1, 0, 10 * i + 8, 8) for i in range(7)]
        # Frames 1-3: overlapping detections with mixed labels compete for
        # the same truths, so shuffling interleaves frames and contenders.
        labels = (MaskLabel.MASK, MaskLabel.NO_MASK)
        for frame in (1, 2, 3):
            dets += [det(frame, 5 * i, 0, 5 * i + 12, 12,
                         label=labels[(i + frame) % 2],
                         score=float(rng.random())) for i in range(6)]
            truths += [truth(frame, 6 * i + frame, 1, 7 * i + 12, 12,
                             label=labels[i % 2]) for i in range(frame + 2)]
        # Frame 4: exact ties. Equal face scores, and detections with the
        # same IoU to two unmatched truths.
        dets += [det(4, 5 * i, 0, 5 * i + 12, 12, label=labels[i % 2])
                 for i in range(6)]
        truths += [truth(4, 6 * i, 0, 6 * i + 12, 12, label=labels[i % 2])
                   for i in range(6)]
        base = assert_matches_reference(dets, truths)
        for _ in range(5):
            shuffled_d = list(dets)
            shuffled_t = list(truths)
            rng.shuffle(shuffled_d)
            rng.shuffle(shuffled_t)
            assert E.match_detections(shuffled_d, shuffled_t) == base


    def test_degenerate_detection_box_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            E.match_detections([det(0, 10, 10, 10, 20)], [])

    def test_corner_range_keeps_iou_finite(self):
        # Every box check_box accepts has an IoU without overflow or warning;
        # a box whose corners fit a float but whose area does not is refused.
        limit = 2 ** 53
        records = [(-limit, -limit, limit, limit), (-limit, 0, 1, limit),
                   (limit - 1, limit - 1, limit, limit), (0, 0, 1, 1)]
        dets = [det(0, *r) for r in records]
        truths = [truth(0, *map(float, r)) for r in records]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            boxes = np.array(records, np.float64)
            overlaps = iou(boxes, boxes)
            face, _ = E.match_detections(dets, truths)
        assert ((overlaps >= 0) & (overlaps <= 1)).all()
        assert overlaps.diagonal().tolist() == [1.0] * len(records)
        assert (face.tp, face.fp, face.fn) == (4, 0, 0)
        for corners in [(-1e307, -1e307, 1e307, 1e307),
                        (0, 0, limit + 1, 1), (-limit - 1, 0, 0, 1)]:
            with pytest.raises(ValueError, match="must be finite"):
                truth(0, *corners)


class TestComputeMetrics:
    def test_all_true_positives(self):
        m = E.compute_metrics(E.ConfusionCounts(tp=2))
        assert (m.precision, m.recall, m.accuracy) == (100.0, 100.0, 100.0)

    def test_documented_case(self):
        m = E.compute_metrics(E.ConfusionCounts(tp=94, fp=6, fn=14))
        assert m.precision == pytest.approx(94.0)
        assert m.recall == pytest.approx(100 * 94 / 108)
        assert m.accuracy == pytest.approx(100 * 94 / 114)

    def test_zero_counts_all_undefined(self):
        m = E.compute_metrics(E.ConfusionCounts())
        assert m.precision is None and m.recall is None and m.accuracy is None

    def test_accuracy_equals_precision_and_recall_when_symmetric(self):
        m = E.compute_metrics(E.ConfusionCounts(tp=30, fp=10, fn=10))
        assert m.precision == m.recall
        # With TN = 0 and FP = FN, accuracy = TP/(TP+FP+FN) differs; the
        # identity from the contract holds for precision and recall only
        # when it also has FP = FN = 0.
        m2 = E.compute_metrics(E.ConfusionCounts(tp=30))
        assert m2.precision == m2.recall == m2.accuracy == 100.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            E.ConfusionCounts(tp=-1)


class TestRendering:
    def report(self):
        return E.evaluate(
            [det(0, 0, 0, 10, 10)], [truth(0, 0, 0, 10, 10)])

    def test_empty_baselines_single_row(self):
        text = E.render_report(self.report(), ())
        rows = [line for line in text.splitlines() if "measured" in line]
        assert len(rows) == 1
        assert "literature" not in text

    def test_literature_constants_verbatim(self):
        text = E.render_report(self.report(), E.LITERATURE_BASELINES)
        for value in ("94.50", "86.38", "81.84", "84.39", "80.92", "81.74",
                      "86.60", "87.80", "83.00", "95.60", "82.30", "89.10"):
            assert value in text, value
        assert text.count("[literature]") == len(E.LITERATURE_BASELINES)

    def test_csv_row_count(self):
        csv_text = E.render_csv(self.report(), E.LITERATURE_BASELINES)
        lines = csv_text.strip().splitlines()
        assert len(lines) == 1 + 1 + len(E.LITERATURE_BASELINES)

    def test_undefined_metrics_render_as_marker(self):
        report = E.evaluate([], [])
        text = E.render_report(report)
        assert "undefined" in text
        csv_text = E.render_csv(report)
        assert "undefined" in csv_text


class TestJsonlIO:
    def test_round_trip(self, tmp_path):
        dets = [det(0, 1, 2, 30, 40, conf=0.75, score=0.5),
                det(1, 5, 6, 70, 80, label=MaskLabel.NO_MASK)]
        log = tmp_path / "det.jsonl"
        log.write_text("".join(d.to_json() + "\n" for d in dets))
        assert E.load_detection_log(log) == dets

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        dets = [det(0, 1, 2, 30, 40), det(1, 5, 6, 70, 80)]
        log = tmp_path / "det.jsonl"
        log.write_text("\n" + dets[0].to_json() + "\n  \n\t\n"
                       + dets[1].to_json() + "\n\n")
        assert E.load_detection_log(log) == dets
        log.write_text(log.read_text() + "{}\n")
        with pytest.raises(ValueError, match="det.jsonl:7: bad detection"):
            E.load_detection_log(log)

    def test_ground_truth_parsing(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text('{"frame": 0, "x1": 1, "y1": 2, "x2": 3, "y2": 4, '
                        '"label": "Mask"}\n')
        loaded = E.load_ground_truth(path)
        assert loaded == [truth(0, 1, 2, 3, 4)]

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text('{"frame": 0}\n')
        with pytest.raises(ValueError, match="truth.jsonl:1"):
            E.load_ground_truth(path)

    # Each record is one field away from a valid one; none may be coerced.
    @pytest.mark.parametrize("load, fields", [
        (E.load_detection_log, '"frame": true, "x1": 10'),
        (E.load_detection_log, '"frame": 1, "x1": "5"'),
        (E.load_detection_log, '"frame": 1, "x1": 5.9'),
        (E.load_detection_log, '"frame": 1, "x1": 10, "confidence": "0.9"'),
        (E.load_detection_log, '"frame": 1, "x1": 10, "face_score": false'),
        (E.load_ground_truth, '"frame": 1.7, "x1": 10'),
        (E.load_ground_truth, '"frame": 1, "x1": "5"'),
        (E.load_ground_truth, '"frame": 1, "x1": true'),
    ], ids=["det-bool-frame", "det-string-x1", "det-real-x1", "det-string-conf",
            "det-bool-score", "truth-real-frame", "truth-string-x1",
            "truth-bool-x1"])
    def test_mistyped_field_reports_line(self, tmp_path, load, fields):
        record = {"y1": 10, "x2": 30, "y2": 30, "label": "Mask",
                  "confidence": 0.9, "face_score": 0.9}
        record.update(json.loads("{" + fields + "}"))
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="records.jsonl:1: .*must be"):
            load(path)
