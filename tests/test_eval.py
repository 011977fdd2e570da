import json
import tempfile
import tracemalloc
import warnings
from dataclasses import astuple
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from cascadet import evaluate as E
from cascadet import tensor as T
from cascadet.classifier import MaskLabel
from cascadet.detector import iou
from cascadet.pipeline import Detection


def det(frame, x1, y1, x2, y2, label=MaskLabel.MASK, conf=0.9, score=0.9):
    return Detection(frame_index=frame, x1=x1, y1=y1, x2=x2, y2=y2,
                     label=label, confidence=conf, face_score=score)


class Truth(NamedTuple):
    """A ground-truth record as ``reference_matcher`` reads it."""
    frame_index: int
    x1: float
    y1: float
    x2: float
    y2: float
    label: MaskLabel


def truth(frame, x1, y1, x2, y2, label=MaskLabel.MASK):
    return Truth(frame, x1, y1, x2, y2, label)


def truth_json(t):
    return json.dumps({"frame": t.frame_index, "x1": t.x1, "y1": t.y1,
                       "x2": t.x2, "y2": t.y2, "label": t.label.value})


def write_logs(directory, detections, truths):
    """The records as JSONL files in ``directory``: (log, truth) paths."""
    log, truth_path = directory / "det.jsonl", directory / "truth.jsonl"
    log.write_text("".join(d.to_json() + "\n" for d in detections))
    truth_path.write_text("".join(truth_json(t) + "\n" for t in truths))
    return log, truth_path


def loaded(detections, truths):
    """The records written as JSONL and read back by the loaders."""
    with tempfile.TemporaryDirectory() as tmp:
        log, truth_path = write_logs(Path(tmp), detections, truths)
        return E.load_detection_log(log), E.load_ground_truth(truth_path)


def match(detections, truths, threshold=E.DEFAULT_IOU_THRESHOLD):
    """``E.match_detections`` on the records as the loaders read them."""
    return E.match_detections(*loaded(detections, truths), threshold)


def as_columns(records, fields):
    """The frames and value rows a loader should give for ``records``."""
    return ([r.frame_index for r in records],
            [[float(r.label is MaskLabel.NO_MASK) if name == "label"
              else getattr(r, name) for r in records] for name in fields])


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
            candidates = [(o, gi) for o, gi in candidates
                          if o > 0.0 and o >= threshold]
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


def assert_matches_reference(detections, truths, threshold=0.5):
    """``E.match_detections`` checked against the reference."""
    face, mask = match(detections, truths, threshold)
    ref_face, ref_mask = reference_matcher(detections, truths, threshold)
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
        face, mask = match(dets, truths)
        assert (face.tp, face.fp, face.fn, face.tn) == (3, 0, 0, 0)
        assert mask.tp == 3

    def test_unmatched_detection_is_false_positive(self):
        face, mask = match([det(0, 0, 0, 10, 10)], [])
        assert (face.tp, face.fp, face.fn) == (0, 1, 0)
        assert (mask.tp, mask.tn, mask.fp, mask.fn) == (0, 0, 0, 0)

    def test_unmatched_truth_is_false_negative(self):
        face, _ = match([], [truth(0, 0, 0, 10, 10)])
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
        _, mask = match(dets, truths)
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
            assert match(shuffled_d, shuffled_t) == base

    def test_degenerate_detection_box_raises(self, tmp_path):
        log = tmp_path / "det.jsonl"
        log.write_text('{"frame": 0, "x1": 10, "y1": 10, "x2": 10, "y2": 20, '
                       '"label": "Mask", "confidence": 0.9, "face_score": 0.9}\n')
        with pytest.raises(ValueError, match="det.jsonl:1: .*degenerate"):
            E.load_detection_log(log)

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
            face, _ = match(dets, truths)
        assert ((overlaps >= 0) & (overlaps <= 1)).all()
        assert overlaps.diagonal().tolist() == [1.0] * len(records)
        assert (face.tp, face.fp, face.fn) == (4, 0, 0)
        for corners in [(-1e307, -1e307, 1e307, 1e307),
                        (0, 0, limit + 1, 1), (-limit - 1, 0, 0, 1)]:
            with pytest.raises(ValueError, match="must be finite"):
                loaded([], [truth(0, *corners)])


LABELS = (MaskLabel.MASK, MaskLabel.NO_MASK)
# Frame indices a JSON log may hold: any integer, negative or past int64.
FRAMES = (0, 1, 7, -1, -2 ** 70, 2 ** 63, 2 ** 63 + 1, 2 ** 64 + 5)


def tied_log(rng, frames=FRAMES, boxes_per_frame=12):
    """(detections, truths) whose corners lie on a coarse grid and whose
    scores and confidences take three values, so equal boxes, exact IoU
    ties and exact score ties are common; some records are duplicated, and
    some frames hold only detections or only truths."""
    def corners():
        x1, y1 = (int(v) for v in rng.integers(0, 6, 2) * 4)
        w, h = (int(v) for v in rng.integers(1, 4, 2) * 4)
        return x1, y1, x1 + w, y1 + h

    dets, truths = [], []
    for frame in frames:
        kinds = rng.choice(["both", "both", "dets", "truths"])
        for _ in range(int(rng.integers(0, boxes_per_frame + 1))):
            label = LABELS[int(rng.integers(0, 2))]
            if kinds != "truths" and rng.random() < 0.6:
                dets.append(det(frame, *corners(), label=label,
                                conf=float(rng.choice([0.5, 0.75, 1.0])),
                                score=float(rng.choice([0.25, 0.5, 0.75]))))
            if kinds != "dets" and rng.random() < 0.6:
                truths.append(truth(frame, *map(float, corners()),
                                    label=label))
    for records in (dets, truths):
        if records:
            picks = rng.integers(0, len(records), len(records) // 5)
            records += [records[i] for i in picks]
    return dets, truths


class TestLockstepMatcher:
    """``match_detections`` against ``reference_matcher`` on logs built to
    hit the tie-breaks, the padding and the block boundaries."""

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_tied_logs_match_reference(self, seed, threshold):
        rng = np.random.default_rng(100 + seed)
        dets, truths = tied_log(rng)
        face, _ = assert_matches_reference(dets, truths, threshold)
        assert face.tp + face.fp == len(dets)
        assert face.tp + face.fn == len(truths)
        shuffled_d, shuffled_t = list(dets), list(truths)
        rng.shuffle(shuffled_d)
        rng.shuffle(shuffled_t)
        assert (match(shuffled_d, shuffled_t, threshold)
                == match(dets, truths, threshold))

    def test_many_frames_of_mixed_sizes_match_reference(self):
        # Frames of 0 to 40 records of each kind fall in several padded
        # sizes, and the small sizes span more than one block.
        rng = np.random.default_rng(7)
        dets, truths = [], []
        for frame in range(600):
            d, t = tied_log(rng, frames=[frame],
                            boxes_per_frame=int(rng.choice([2, 5, 40])))
            dets += d
            truths += t
        assert_matches_reference(dets, truths)

    def test_empty_log(self):
        zero = E.ConfusionCounts()
        assert match([], []) == (zero, zero)

    def test_frames_with_one_kind_only(self):
        dets = [det(f, 0, 0, 10, 10) for f in FRAMES[:4]]
        truths = [truth(f, 0, 0, 10, 10) for f in FRAMES[4:]]
        face, mask = assert_matches_reference(dets, truths)
        assert (face.tp, face.fp, face.fn) == (0, 4, len(FRAMES) - 4)
        assert mask == E.ConfusionCounts()

    @pytest.mark.parametrize("threshold, box", [
        (0.5, (0, 0, 2, 1)),   # IoU 1/2 with the unit truth
        (1 / 3, (0, 0, 3, 1)),  # IoU 1/3, the same float as the threshold
        (1.0, (0, 0, 1, 1)),   # IoU 1: identical boxes
    ])
    def test_iou_exactly_at_threshold_matches(self, threshold, box):
        truths = [truth(2 ** 63, 0, 0, 1, 1)]
        dets = [det(2 ** 63, *box)]
        assert iou(np.array([box], float), np.array([[0, 0, 1, 1]], float)
                   )[0, 0] == threshold
        face, _ = assert_matches_reference(dets, truths, threshold)
        assert face.tp == 1
        face, _ = match(dets, truths, np.nextafter(threshold, 2))
        assert face.tp == 0

    def test_threshold_zero_never_matches_a_touching_box(self):
        truths = [truth(-5, 0, 0, 10, 10)]
        dets = [det(-5, 10, 0, 20, 10), det(-5, 0, 10, 10, 20)]
        face, _ = assert_matches_reference(dets, truths, 0.0)
        assert (face.tp, face.fp, face.fn) == (0, 2, 1)

    def test_corner_range_boxes_in_many_frames(self):
        # Boxes at the corner limit, in frames of several padded sizes, with
        # any floating-point warning raised as an error.
        limit = 2 ** 53
        records = [(-limit, -limit, limit, limit), (-limit, 0, 1, limit),
                   (limit - 1, limit - 1, limit, limit), (0, 0, 1, 1),
                   (-limit, -limit, -limit + 1, -limit + 1)]
        dets, truths = [], []
        for frame in range(1, 9):
            for i in range(frame):
                r = records[(frame + i) % len(records)]
                dets.append(det(frame, *r, score=0.5))
                truths.append(truth(-frame, *map(float, r)))
                truths.append(truth(frame, *map(float, records[i % 5])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for threshold in (0.0, 0.5, 1.0):
                assert_matches_reference(dets, truths, threshold)


class TestMatcherMemory:
    """tracemalloc peaks of ``match_detections`` alone. Each bound is about
    1.5x the peak measured on numpy 2.4.6 (given per test): the records'
    columns grow with the log, but the IoU blocks stay near the byte budget
    or one frame's own matrix."""

    @staticmethod
    def peak_mib(dets, truths):
        records = loaded(dets, truths)
        tracemalloc.start()
        try:
            result = E.match_detections(*records)
            return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    @staticmethod
    def small_frames(rng, frames, per_frame, first=0):
        xy = rng.integers(0, 600, (frames, per_frame, 2, 2))
        wh = rng.integers(8, 60, (frames, per_frame, 2, 2))
        dets = [det(first + f, *map(int, xy[f, i, 0]),
                    *map(int, xy[f, i, 0] + wh[f, i, 0]))
                for f in range(frames) for i in range(per_frame)]
        truths = [truth(first + f, *map(float, xy[f, i, 1]),
                        *map(float, xy[f, i, 1] + wh[f, i, 1]))
                  for f in range(frames) for i in range(per_frame)]
        return dets, truths

    def test_long_log(self):
        # 20,000 frames of 2 + 2 records and one of 64 + 64. Measured:
        # 8.7 MiB (12.4 MiB while the matcher built the records' columns
        # itself), against 5.3 MiB for a loop over frames; about 5 MiB are
        # the largest block's boxes and iou temporaries. Padding every frame
        # to the largest would take 655 MB.
        rng = np.random.default_rng(0)
        dets, truths = self.small_frames(rng, 20_000, 2)
        big_dets, big_truths = self.small_frames(rng, 1, 64, first=20_000)
        (face, _), peak = self.peak_mib(dets + big_dets, truths + big_truths)
        assert face.tp + face.fp == len(dets) + 64
        assert peak < 19.0, peak

    def test_one_large_frame_among_small_ones(self):
        # Measured: 42.0 MiB, which is iou's temporaries on the 1,024 x 1,024
        # padded matrix of the large frame; padding every frame to it
        # would take 2,001 such matrices.
        rng = np.random.default_rng(1)
        dets, truths = self.small_frames(rng, 2_000, 3)
        big_dets, big_truths = self.small_frames(rng, 1, 1_000, first=-1)
        counts, peak = self.peak_mib(dets + big_dets, truths + big_truths)
        # Frames are independent: the counts are those of the two parts.
        small = match(dets, truths)
        big = match(big_dets, big_truths)
        for got, a, b in zip(counts, small, big):
            assert astuple(got) == tuple(map(sum, zip(astuple(a), astuple(b))))
        assert peak < 64.0, peak


class TestLoaderMemory:
    """tracemalloc figures of the loaders on a 20,000-frame log (2
    detections and 2 truths a frame). Each bound is about 1.5x the figure
    measured on CPython 3.11 and numpy 2.4.6 (given per test)."""

    @staticmethod
    def traced_loads(tmp_path):
        """Both loads, the truths while the detections are held: the MiB
        tracemalloc saw held after them and at their peak."""
        dets, truths = TestMatcherMemory.small_frames(
            np.random.default_rng(2), 20_000, 2)
        log, truth_path = write_logs(tmp_path, dets, truths)
        tracemalloc.start()
        try:
            records = (E.load_detection_log(log),
                       E.load_ground_truth(truth_path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(r.frames) for r in records] == [len(dets), len(truths)]
        return held / 2 ** 20, peak / 2 ** 20

    def test_loaded_records_of_a_long_log(self, tmp_path):
        """What the loaded records hold: their frame indices and float64
        columns only. Measured: 5.5 MiB, where one frozen dataclass per
        record held 21.2 MiB and one int object per record's frame index
        6.4 MiB."""
        held = self.traced_loads(tmp_path)[0]
        assert held < 9.7, held

    def test_peak_of_loading_a_long_log(self, tmp_path):
        """Measured: 9.2 MiB (8.1 MiB for one line at a time), of which
        5.5 MiB are the records and the rest one block's decoded lines and
        the columns' last copy; holding a whole file's parsed objects at
        once would take more than 20 MiB."""
        peak = self.traced_loads(tmp_path)[1]
        assert peak < 14.0, peak


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
        return E.evaluate(*loaded([det(0, 0, 0, 10, 10)],
                                  [truth(0, 0, 0, 10, 10)]))

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
        report = E.evaluate(*loaded([], []))
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
        records = E.load_detection_log(log)
        assert records.values.dtype == np.float64
        assert (records.frames, records.values.tolist()) == as_columns(
            dets, E.DETECTION_FIELDS)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        dets = [det(0, 1, 2, 30, 40), det(1, 5, 6, 70, 80)]
        log = tmp_path / "det.jsonl"
        log.write_text("\n" + dets[0].to_json() + "\n  \n\t\n"
                       + dets[1].to_json() + "\n\n")
        records = E.load_detection_log(log)
        assert (records.frames, records.values.tolist()) == as_columns(
            dets, E.DETECTION_FIELDS)
        log.write_text(log.read_text() + "{}\n")
        with pytest.raises(ValueError, match="det.jsonl:7: bad detection"):
            E.load_detection_log(log)

    def test_ground_truth_parsing(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text('{"frame": 0, "x1": 1, "y1": 2, "x2": 3, "y2": 4, '
                        '"label": "Mask"}\n')
        records = E.load_ground_truth(path)
        assert (records.frames, records.values.tolist()) == as_columns(
            [truth(0, 1, 2, 3, 4)], E.TRUTH_FIELDS)

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

    @pytest.mark.parametrize("load, kind", [
        (E.load_detection_log, "detection"),
        (E.load_ground_truth, "ground-truth")], ids=["detection", "truth"])
    @pytest.mark.parametrize("record", ["[1, 2]", "5", '"x"', "null"])
    def test_record_that_is_not_an_object_says_so(self, tmp_path, load, kind,
                                                  record):
        path = tmp_path / "records.jsonl"
        path.write_text(record + "\n")
        with pytest.raises(ValueError, match=f"records.jsonl:1: bad {kind} "
                                             "record: expected a JSON object"):
            load(path)

    @pytest.mark.parametrize("load, fields", [
        (E.load_detection_log, E.DETECTION_FIELDS),
        (E.load_ground_truth, E.TRUTH_FIELDS)], ids=["detection", "truth"])
    def test_only_newline_ends_a_record(self, tmp_path, load, fields):
        """U+2028, U+2029 and U+0085 break lines for ``str.splitlines``,
        and ``json.dumps(..., ensure_ascii=False)`` leaves them raw inside a
        string; a "\\r" before the "\\n" is whitespace to JSON."""
        record = {"frame": 3, "x1": 1, "y1": 2, "x2": 30, "y2": 40,
                  "label": "NoMask", "confidence": 0.75, "face_score": 0.5,
                  "note": "a\u2028b\u2029c\x85d"}
        path = tmp_path / "records.jsonl"
        line = json.dumps(record, ensure_ascii=False) + "\r\n"
        path.write_bytes(2 * line.encode())
        records = load(path)
        row = [1.0 if name == "label" else record[name] for name in fields]
        assert (records.frames, records.values.tolist()) == (
            [3, 3], [[value, value] for value in row])


# Fields of a valid record as JSON text, to be overridden one at a time.
DET_JSON = {"frame": "1000", "x1": "10", "y1": "20", "x2": "30", "y2": "40",
            "label": '"NoMask"', "confidence": "0.75", "face_score": "0.5"}
TRUTH_JSON = {"frame": "1000", "x1": "10.5", "y1": "20", "x2": "30",
              "y2": "40", "label": '"Mask"'}
LOADERS = {"det": (E.load_detection_log, E._DETECTIONS, DET_JSON),
           "truth": (E.load_ground_truth, E._TRUTHS, TRUTH_JSON)}


def record(kind, **raw):
    """A record's line, ``raw`` replacing fields with JSON text."""
    fields = {**LOADERS[kind][2], **raw}
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"


def outcome(load):
    """What a load gives: frames and the values' shape and bytes, or the
    text of its ValueError."""
    try:
        frames, values = load()
    except ValueError as exc:
        return str(exc)
    return frames, values.shape, values.tobytes()


def per_line_outcome(path, kind):
    """The outcome of checking the whole file one line at a time."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    return outcome(lambda: E._check_lines(path, LOADERS[kind][1], lines, 1))


def multi_block_log(path, blocks=4, width=120):
    """A detection log a little over ``blocks`` read blocks long, every line
    ``width`` bytes with its "\n" and every seventh blank (spaces only).
    Returns the line number each block starts at."""
    lines = []
    for i in range(blocks * T._BLOCK_BYTES // width + 2_000):
        text = "" if i % 7 == 3 else Detection(
            frame_index=i // 5, x1=i % 50, y1=i % 30, x2=60 + i % 40,
            y2=40 + i % 20, label=(MaskLabel.MASK, MaskLabel.NO_MASK)[i % 2],
            confidence=0.5 + i % 8 / 16, face_score=0.75).to_json()
        lines.append(text.ljust(width - 1) + "\n")
    path.write_text("".join(lines))
    starts, first = [], 1
    with open(path, "rb") as fh:
        while block := fh.readlines(T._BLOCK_BYTES):
            starts.append(first)
            first += len(block)
    assert len(starts) > blocks
    return starts


def replace_line(path, lineno, text):
    """Line ``lineno`` of ``path`` replaced by ``text`` padded to its length,
    so no block boundary moves."""
    lines = path.read_text().split("\n")
    lines[lineno - 1] = text.ljust(len(lines[lineno - 1]))
    path.write_text("\n".join(lines))


class TestBlockReading:
    """The loaders check a block of lines as columns and fall back to one
    line at a time when a check fails; either way the records and every
    error message are those of :func:`evaluate._check_lines` on the whole
    file."""

    @pytest.mark.parametrize("kind, lines, bad_line", [
        # Joined into one JSON array these two lines are one valid object.
        ("det", [record("det"), record("det")[:-1] + ', "a": [{}', "{}]}"],
         2),
        ("det", [record("det"), record("det") + ", " + record("det")], 2),
        ("det", [" \t" + record("det") + "\t \r", "\r" + record("det")],
         None),
        ("truth", [record("truth"), "\u3000", record("truth")], None),
        ("truth", [record("truth"), "\u3000" + record("truth")], 2),
        ("det", ["\ufeff" + record("det"), record("det")], 1),
        ("truth", [record("truth", x1="NaN"), record("truth")], 1),
        ("truth", [record("truth"), record("truth", y2="NaN")], 2),
        ("truth", [record("truth", x2="Infinity"), record("truth")], 1),
        ("truth", [record("truth"), record("truth", x1="-Infinity")], 2),
        ("det", [record("det", x1=str(-2 ** 53), y2=str(2 ** 53))], None),
        ("truth", [record("truth", y1=str(-2 ** 53), x2=str(2 ** 53))], None),
        ("det", [record("det"), record("det", x2=str(2 ** 53 + 1))], 2),
        ("truth", [record("truth", y1=str(-2 ** 53 - 1))], 1),
        ("det", [record("det", y2=str(2 ** 60))], 1),
        ("truth", [record("truth"), record("truth", x1="-1e300")], 2),
        ("det", [record("det", confidence=str(2 ** 63 + 1))], None),
        ("det", [record("det"), record("det", face_score="1" + "0" * 400)],
         2),
        ("det", [record("det", frame=str(-2 ** 70)),
                 record("det", frame=str(2 ** 64 + 5))], None),
        ("truth", [record("truth", frame=str(2 ** 64 + 5))], None),
        ("det", ['{"frame": "x", ' + record("det")[1:]], None),
        ("det", [record("det")[:-1] + ', "x1": "5"}'], 1),
        ("det", [record("det"), record("det", label='["Mask"]')], 2),
        ("truth", [record("truth", label='["Mask"]')], 1),
        ("det", [record("det"), record("det", label='"mask"')], 2),
        ("det", [record("det"), record("det")[:-1] + ', "a": '
                 + "[" * 100_000 + "]" * 100_000 + "}"], 2),
    ], ids=["array-split-over-lines", "two-objects-on-a-line",
            "json-whitespace", "ideographic-space-line",
            "ideographic-space-before-record", "leading-bom",
            "nan-first", "nan-last", "infinity-first", "infinity-last",
            "det-corners-at-2**53", "truth-corners-at-2**53",
            "corner-2**53+1", "corner-below-2**53", "corner-2**60",
            "corner--1e300", "confidence-2**63+1",
            "score-too-large-for-float", "huge-det-frames",
            "huge-truth-frame", "duplicate-key", "duplicate-key-mistyped",
            "list-label-det", "list-label-truth", "unknown-label",
            "past-recursion-limit"])
    def test_same_as_one_line_at_a_time(self, tmp_path, kind, lines,
                                        bad_line):
        path = tmp_path / "records.jsonl"
        path.write_bytes("".join(line + "\n" for line in lines).encode())
        got = outcome(lambda: LOADERS[kind][0](path))
        assert got == per_line_outcome(path, kind)
        if bad_line is None:
            assert not isinstance(got, str), got
        else:
            assert got.startswith(f"{path}:{bad_line}: bad "), got

    def test_first_bad_line_of_the_file_is_named(self, tmp_path):
        path = tmp_path / "det.jsonl"
        starts = multi_block_log(path)
        early, late = starts[1], starts[3] - 1  # block 2's first, 3's last
        replace_line(path, late, '{"frame": 0}')
        replace_line(path, early, "[1, 2]")
        message = (f"{path}:{early}: bad detection record: expected a JSON "
                   "object")
        with pytest.raises(ValueError) as exc:
            E.load_detection_log(path)
        assert str(exc.value) == message
        assert per_line_outcome(path, "det") == message
        replace_line(path, early, "")
        with pytest.raises(ValueError, match=f"det.jsonl:{late}: bad "
                                             "detection record: 'x1'"):
            E.load_detection_log(path)

    def test_any_block_size_gives_the_same_records(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "det.jsonl"
        multi_block_log(path, blocks=1, width=110)
        expected = per_line_outcome(path, "det")
        assert outcome(lambda: E.load_detection_log(path)) == expected
        for budget in (1, 500, 40_000):
            monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
            assert outcome(lambda: E.load_detection_log(path)) == expected

    @pytest.mark.parametrize("by_line", [False, True],
                             ids=["columns", "one-line-at-a-time"])
    def test_equal_frames_share_one_int(self, tmp_path, monkeypatch,
                                        by_line):
        def failing_check(*args):
            raise ValueError("a check failed")
        # Each path alone: the other one fails if it is called.
        monkeypatch.setattr(E, "_check_block" if by_line else "_check_lines",
                            failing_check)
        for kind in LOADERS:
            path = tmp_path / f"{kind}.jsonl"
            path.write_text(f"{record(kind)}\n{record(kind)}\n")
            frames = LOADERS[kind][0](path).frames
            assert frames == [1000, 1000]
            assert frames[0] is frames[1]
