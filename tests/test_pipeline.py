import json
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cascadet import detector as D
from cascadet import fixtures
from cascadet import pipeline as P
from cascadet import tensor as T
from cascadet import weights as W
from cascadet.classifier import (BackboneSpec, MaskLabel, MaskPrediction,
                                 build_classifier, classify_all)

from generate_golden import compute_golden

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.json"


def make_frame(seed=0, width=64, height=48, index=0):
    return P.Frame(index=index, width=width, height=height,
                   pixels=fixtures.synthetic_frame(seed, width, height))


class TestPpm:
    def test_documented_two_pixel_file(self):
        data = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255])
        pixels = P.parse_ppm(data)
        assert pixels.shape == (1, 2, 3)
        assert tuple(pixels[0, 0]) == (255, 0, 0)
        assert tuple(pixels[0, 1]) == (0, 0, 255)

    def test_header_comments_allowed(self):
        data = b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6)
        assert P.parse_ppm(data).shape == (1, 2, 3)

    def test_wrong_magic_rejected(self):
        with pytest.raises(P.FrameReadError, match="magic"):
            P.parse_ppm(b"P5\n2 1\n255\n" + bytes(6))

    def test_wrong_maxval_rejected(self):
        with pytest.raises(P.FrameReadError, match="maxval"):
            P.parse_ppm(b"P6\n2 1\n65535\n" + bytes(12))

    def test_truncated_pixels_rejected(self):
        with pytest.raises(P.FrameReadError, match="truncated"):
            P.parse_ppm(b"P6\n2 2\n255\n" + bytes(5))

    @pytest.mark.parametrize("data, message", [
        (b"P6\n2 1", "truncated PPM header"),
        (b"P6\ntwo 1\n255\n" + bytes(6), "malformed PPM header"),
        (b"P6\n0 1\n255\n", "bad dimensions 0x1"),
        (b"P6\n2 1\n# runs to the end", "truncated PPM header"),
        (b"P6\n2#c 1\n255\n" + bytes(6), "malformed PPM header"),
        (b"P6#c\n2 1\n255\n" + bytes(6), r"not a binary PPM \(magic b'P6#c'\)"),
    ], ids=["truncated-header", "non-integer-size", "zero-width",
            "comment-to-end", "hash-in-size", "hash-in-magic"])
    def test_malformed_header_rejected(self, data, message):
        with pytest.raises(P.FrameReadError, match=message):
            P.parse_ppm(data)

    @pytest.mark.parametrize("data", [
        b"P6\t2\r1\x0b255\x0c",
        b"P6\r\n2 1\r\n255\r",
        b"P6\n2 1\n# maxval follows\n255\n",
        b"P6 2 1 #c\n255\n",
    ], ids=["tab-cr-vt-ff", "crlf", "comment-before-maxval",
            "comment-after-space"])
    def test_header_separators_accepted(self, data):
        pixels = P.parse_ppm(data + bytes(range(6)))
        assert pixels.tobytes() == bytes(range(6))

    def test_write_read_round_trip(self, tmp_path):
        frame = make_frame()
        path = tmp_path / "f.ppm"
        P.write_ppm(path, frame.pixels)
        np.testing.assert_array_equal(P.parse_ppm(path.read_bytes()),
                                      frame.pixels)

    def test_strided_pixels_written_in_row_order(self, tmp_path):
        """A channels-last view of planar memory writes the bytes of its
        contiguous copy."""
        pixels = make_frame().pixels
        planar = np.ascontiguousarray(pixels.transpose(2, 0, 1))
        view = planar.transpose(1, 2, 0)
        assert not view.flags.c_contiguous
        P.write_ppm(tmp_path / "view.ppm", view)
        P.write_ppm(tmp_path / "copy.ppm", pixels)
        assert ((tmp_path / "view.ppm").read_bytes()
                == (tmp_path / "copy.ppm").read_bytes())


def load_manifest(manifest):
    """Every manifest frame, loaded the way ``P.run`` loads each one."""
    return [P._load_frame(index, *entry)
            for index, entry in enumerate(P.list_manifest(manifest))]


class TestReadFrames:
    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "frames.txt"
        manifest.write_text("")
        assert P.list_manifest(manifest) == []

    def test_entries_resolve_against_manifest_directory(self, tmp_path):
        elsewhere = tmp_path / "elsewhere" / "b.ppm"
        manifest = tmp_path / "list" / "frames.txt"
        manifest.parent.mkdir()
        manifest.write_text(f"# frames\n\nsub/a.ppm\n  {elsewhere}  \n")
        assert P.list_manifest(manifest) == [
            (3, tmp_path / "list" / "sub" / "a.ppm", "sub/a.ppm"),
            (4, elsewhere, str(elsewhere))]

    def test_indices_follow_manifest_order(self, tmp_path):
        names = []
        for i in range(3):
            name = f"img{i}.ppm"
            P.write_ppm(tmp_path / name, make_frame(seed=i).pixels)
            names.append(name)
        manifest = tmp_path / "frames.txt"
        manifest.write_text("\n".join(names) + "\n")
        frames = load_manifest(manifest)
        assert [f.index for f in frames] == [0, 1, 2]
        assert [f.source for f in frames] == names

    def test_missing_file_names_the_line(self, tmp_path):
        manifest = tmp_path / "frames.txt"
        P.write_ppm(tmp_path / "ok.ppm", make_frame().pixels)
        manifest.write_text("ok.ppm\nmissing.ppm\n")
        with pytest.raises(P.FrameReadError, match="line 2"):
            load_manifest(manifest)

    def test_bad_ppm_names_the_line(self, tmp_path):
        manifest = tmp_path / "frames.txt"
        (tmp_path / "bad.ppm").write_bytes(b"not a ppm at all")
        manifest.write_text("bad.ppm\n")
        with pytest.raises(P.FrameReadError, match="line 1"):
            load_manifest(manifest)

    def test_unreadable_manifest_rejected(self, tmp_path):
        with pytest.raises(P.FrameReadError, match="cannot read manifest"):
            P.list_manifest(tmp_path)  # a directory, not a file

    def test_only_newline_ends_an_entry(self, tmp_path):
        # U+0085 and U+2028 break lines for str.splitlines, not in a manifest.
        manifest = tmp_path / "frames.txt"
        manifest.write_bytes("a.ppm\r\nframes/c\x85d.ppm\nx\u2028y.ppm\n"
                             .encode())
        assert P.list_manifest(manifest) == [
            (1, tmp_path / "a.ppm", "a.ppm"),
            (2, tmp_path / "frames" / "c\x85d.ppm", "frames/c\x85d.ppm"),
            (3, tmp_path / "x\u2028y.ppm", "x\u2028y.ppm")]

    def test_undecodable_entry_names_its_line(self, tmp_path):
        manifest = tmp_path / "frames.txt"
        manifest.write_bytes(b"a.ppm\nb\xff.ppm\n")
        with pytest.raises(P.FrameReadError, match=r"frames\.txt:2: 'utf-8' "
                                                    "codec can't decode"):
            P.list_manifest(manifest)


class TestAnnotate:
    def detection(self, **kwargs):
        args = dict(frame_index=0, x1=10, y1=12, x2=30, y2=32,
                    label=MaskLabel.MASK, confidence=0.87, face_score=0.9)
        args.update(kwargs)
        return P.Detection(**args)

    def test_no_detections_returns_frame_unchanged(self):
        frame = make_frame()
        out = P.annotate(frame, [])
        assert out.pixels.tobytes() == frame.pixels.tobytes()

    def test_mask_outline_is_pure_green(self):
        frame = make_frame()
        out = P.annotate(frame, [self.detection()])
        changed = np.argwhere((out.pixels != frame.pixels).any(axis=2))
        assert len(changed) > 0
        det = self.detection()
        outline = [tuple(yx) for yx in changed
                   if det.y1 <= yx[0] < det.y2 and det.x1 <= yx[1] < det.x2]
        assert outline
        for y, x in outline:
            assert tuple(out.pixels[y, x]) == (0, 255, 0)

    def test_nomask_outline_is_pure_red(self):
        frame = make_frame()
        out = P.annotate(frame, [self.detection(label=MaskLabel.NO_MASK)])
        det = self.detection()
        assert tuple(out.pixels[det.y1, det.x1]) == (255, 0, 0)

    def test_changes_confined_to_outline_and_label(self):
        frame = make_frame()
        det = self.detection()
        out = P.annotate(frame, [det])
        changed = np.argwhere((out.pixels != frame.pixels).any(axis=2))
        for y, x in changed:
            in_box = det.x1 <= x < det.x2 and det.y1 <= y < det.y2
            above = det.x1 <= x and y < det.y1
            assert in_box or above, (y, x)

    def test_annotation_idempotent(self):
        frame = make_frame()
        dets = [self.detection(), self.detection(x1=40, y1=2, x2=60, y2=22,
                                                 label=MaskLabel.NO_MASK)]
        once = P.annotate(frame, dets)
        twice = P.annotate(once, dets)
        assert once.pixels.tobytes() == twice.pixels.tobytes()

    def test_label_moves_below_top_edge(self):
        frame = make_frame()
        det = self.detection(y1=0, y2=20)
        out = P.annotate(frame, [det])  # must not raise or write out of bounds
        assert out.pixels.shape == frame.pixels.shape

    def test_never_writes_outside_frame(self):
        frame = make_frame(width=40, height=30)
        det = self.detection(x1=35, y1=25, x2=40, y2=30)
        out = P.annotate(frame, [det])
        assert out.width == 40 and out.height == 30

    def test_source_frame_unmodified(self):
        frame = make_frame()
        snapshot = frame.pixels.copy()
        P.annotate(frame, [self.detection()])
        np.testing.assert_array_equal(frame.pixels, snapshot)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def stack():
    networks = D.CascadeNetworks.from_archive(fixtures.fixture_cascade_archive())
    spec = BackboneSpec()
    classifier = build_classifier(spec,
                                  fixtures.fixture_classifier_archive(spec))
    return networks, classifier, spec


@pytest.fixture(scope="module")
def fresh_golden():
    return compute_golden()


class TestProcessFrame:
    def test_matches_golden_trace(self, golden, fresh_golden):
        assert fresh_golden["trace"] == golden["trace"]
        assert fresh_golden["candidates"] == golden["candidates"]
        assert fresh_golden["detections"] == golden["detections"]

    def test_golden_trace_bytes(self, fresh_golden):
        # Parsed dicts compare 10 == 10.0; the file pins int vs float too.
        written = json.dumps(fresh_golden, indent=2) + "\n"
        assert written.encode() == GOLDEN_PATH.read_bytes()

    def test_trace_counts_match_golden(self, golden, stack):
        networks, classifier, spec = stack
        seed, width, height = (golden["frame"][key]
                               for key in ("seed", "width", "height"))
        frame = P.Frame(index=0, width=width, height=height,
                        pixels=fixtures.synthetic_frame(seed, width, height))
        trace = {}
        P.process_frame(frame, networks, classifier, D.CascadeConfig(), spec,
                        trace=trace)
        assert trace == golden["trace"]

    def test_timing_keys_and_funnel(self, golden, stack):
        """``detect_faces`` times its four stages under their keys (the
        pyramid plan, then stages 1-3, the level resizing inside stage 1)
        and counts the golden funnel."""
        networks, _, _ = stack
        seed, width, height = (golden["frame"][key]
                               for key in ("seed", "width", "height"))
        frame = D.frame_to_tensor(fixtures.synthetic_frame(seed, width, height))
        timings, trace = {}, {}
        D.detect_faces(frame, networks, D.CascadeConfig(), timings=timings,
                       trace=trace)
        assert sorted(timings) == ["pyramid", "stage1", "stage2", "stage3"]
        assert all(seconds >= 0 for seconds in timings.values())
        assert trace == golden["trace"]

    def test_1080p_peak_memory(self, stack):
        """A 1920x1080 frame's arrays are its float32 tensor (23.7 MiB) plus
        those of the units in flight. Over 27 runs on three frames, on one
        core and on two, the call peaked at 36.9-43.8 MiB. It was 47.5 MiB
        when ``frame_to_tensor`` held two float32 frames, 59.8-61.4 MiB with
        a zero-bordered copy of the frame for crops, and 187-212 MiB with
        whole pyramid levels and crop batches. The bound is the largest
        peak measured plus 25%."""
        networks, classifier, spec = stack
        frame = P.Frame(index=0, width=1920, height=1080,
                        pixels=fixtures.synthetic_frame(0, 1920, 1080))
        tracemalloc.start()
        try:
            P.process_frame(frame, networks, classifier, D.CascadeConfig(),
                            spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 43.8 * 2**20, peak / 2**20

    def test_concurrent_frames_match_golden(self, golden, stack):
        """Three threads run the golden frame at once, their units sharing
        the helper pool; each gets the golden funnel and detections."""
        networks, classifier, spec = stack
        seed, width, height = (golden["frame"][key]
                               for key in ("seed", "width", "height"))
        frame = P.Frame(index=0, width=width, height=height,
                        pixels=fixtures.synthetic_frame(seed, width, height))
        results = {}

        def job(k):
            trace = {}
            detections = P.process_frame(frame, networks, classifier,
                                         D.CascadeConfig(), spec, trace=trace)
            results[k] = trace, [json.loads(d.to_json()) for d in detections]

        threads = [threading.Thread(target=job, args=(k,), daemon=True)
                   for k in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        want = golden["trace"], golden["detections"]
        assert results == {k: want for k in range(3)}

    def test_frame_layout_never_changes_bits(self, golden, stack):
        """The channels-last view ``frame_to_tensor`` returns and its
        contiguous copy give the same faces and predictions."""
        networks, classifier, _ = stack
        seed, width, height = (golden["frame"][key]
                               for key in ("seed", "width", "height"))
        view = D.frame_to_tensor(fixtures.synthetic_frame(seed, width, height))
        assert not view.flags.c_contiguous

        def outputs(frame):
            faces = D.detect_faces(frame, networks, D.CascadeConfig())
            return faces, classify_all(classifier, frame, faces)

        got = outputs(view)
        assert len(got[0]) == golden["trace"]["final"]
        assert outputs(np.ascontiguousarray(view)) == got

    def test_block_size_never_changes_bits(self, golden, stack, monkeypatch):
        """With a one-byte budget, so one row per crop block and network
        chunk, the crops, the rnet forward on every stage-1 crop, the onet
        forward and the classifier give the bytes they give at the default
        budget on the golden frame."""
        networks, classifier, spec = stack
        seed, width, height = (golden["frame"][key]
                               for key in ("seed", "width", "height"))
        frame = D.frame_to_tensor(fixtures.synthetic_frame(seed, width, height))
        forward_crops = D.forward_crops
        squares = []
        monkeypatch.setattr(D, "forward_crops",
                            lambda image, boxes, *args: squares.append(boxes)
                            or forward_crops(image, boxes, *args))
        faces = D.detect_faces(frame, networks, D.CascadeConfig())
        monkeypatch.undo()
        stage1, stage2 = squares
        assert len(stage1) == golden["trace"]["stage1"]

        # The regions rnet's and onet's heads read, as the detector crops them.
        def outputs():
            rnet_crops = D.crop_resize_batch(frame, stage1, 24, 21)
            onet_crops = D.crop_resize_batch(frame, stage2, 48, 41)
            rnet = networks.rnet.forward(rnet_crops, taps=("rnet.reg",))
            onet = networks.onet.forward(
                onet_crops, taps=("onet.reg", "onet.landmarks"))
            arrays = [rnet_crops, onet_crops, rnet[0], *rnet[1].values(),
                      onet[0], *onet[1].values()]
            return ([array.tobytes() for array in arrays],
                    classify_all(classifier, frame, faces))

        # Each call's batch rows, row bytes and chunk sizes, for the crop
        # sampler and for every network.
        calls = []
        chunks = T.row_chunks

        def record(n, row_bytes):
            slices = chunks(n, row_bytes)
            calls.append((n, row_bytes, [b.stop - b.start for b in slices]))
            return slices
        for module in (D, T):
            monkeypatch.setattr(module, "row_chunks", record)
        default = outputs()
        # The stage-1 crops span several 49-crop blocks; rnet runs them in
        # 49-row chunks and onet in 12-row ones.
        rnet_bytes, onet_bytes, classifier_bytes = (3 * e * e * 4
                                                    for e in (21, 41, 96))
        assert calls[0][:2] == (len(stage1), rnet_bytes)
        assert calls[0][2][0] == 49 < len(stage1)
        assert (len(stage1), rnet_bytes, calls[0][2]) in calls[2:]
        assert any(sizes[0] == 12 and len(sizes) > 1
                   for _, row_bytes, sizes in calls if row_bytes == onet_bytes)
        calls.clear()
        monkeypatch.setattr(T, "_BLOCK_BYTES", 1)
        assert outputs() == default
        # Every crop block and network chunk holds one row.
        assert {row_bytes for _, row_bytes, _ in calls} == {
            rnet_bytes, onet_bytes, classifier_bytes}
        for n, _, sizes in calls:
            assert sizes == ([1] * n if n else [0])

    def test_boxes_inside_frame(self, golden):
        for det in golden["detections"]:
            assert 0 <= det["x1"] < det["x2"] <= golden["frame"]["width"]
            assert 0 <= det["y1"] < det["y2"] <= golden["frame"]["height"]

    def test_empty_frame_gives_no_detections(self, stack):
        networks, classifier, spec = stack
        frame = P.Frame(index=0, width=64, height=48,
                        pixels=np.zeros((48, 64, 3), np.uint8))
        dets = P.process_frame(frame, networks, classifier,
                               D.CascadeConfig(), spec)
        assert dets == []

    def test_boxes_rounded_half_up_and_collapsed_dropped(self, monkeypatch):
        # Rows as detect_faces returns them: clamped to the 40x30 frame.
        rows = [((10.5, 0.0, 20.4, 12.5), 0.6),    # -> (11, 0, 20, 13)
                ((30.6, 10.0, 31.4, 20.0), 0.9),   # both x round to 31
                ((0.0, 5.0, 40.0, 29.6), 0.8)]     # -> left, right, bottom edge
        faces = [D.FaceCandidate(D.BoundingBox(*box), score)
                 for box, score in rows]
        prediction = MaskPrediction(MaskLabel.MASK, 0.75)
        monkeypatch.setattr(P, "detect_faces", lambda *args, **kw: faces)
        monkeypatch.setattr(P, "classify_all", lambda clf, tensor, found, **kw:
                            [(face, prediction) for face in found])
        frame = P.Frame(index=5, width=40, height=30,
                        pixels=np.zeros((30, 40, 3), np.uint8))
        dets = P.process_frame(frame, None, None, D.CascadeConfig(),
                               BackboneSpec())
        assert [(d.x1, d.y1, d.x2, d.y2) for d in dets] == [
            (11, 0, 20, 13), (0, 5, 40, 30)]
        assert [d.face_score for d in dets] == [0.6, 0.8]
        assert [json.loads(d.to_json())["x2"] for d in dets] == [20, 40]
        assert all(type(v) is int for d in dets for v in (d.x1, d.y1, d.x2, d.y2))


class MinimalNetwork:
    """Only what ``perfbench``'s traced pass hands the detector and
    classifier in place of a ``Network``: ``forward``, ``layers`` and
    ``input_shape``."""

    def __init__(self, network):
        self._forward = network.forward
        self.layers = network.layers
        self.input_shape = network.input_shape

    def forward(self, x, taps=()):
        return self._forward(x, taps=taps)


def test_networks_used_only_through_forward_layers_input_shape(stack):
    networks, classifier, _ = stack
    tensor = D.frame_to_tensor(fixtures.synthetic_frame(2, 320, 180))
    config = D.CascadeConfig()
    faces = D.detect_faces(tensor, networks, config)
    minimal = D.CascadeNetworks(MinimalNetwork(networks.pnet),
                                MinimalNetwork(networks.rnet),
                                MinimalNetwork(networks.onet))
    assert faces and D.detect_faces(tensor, minimal, config) == faces
    assert (classify_all(MinimalNetwork(classifier), tensor, faces)
            == classify_all(classifier, tensor, faces))


def write_run_setup(tmp_path, frame_seeds, width=320, height=240,
                    extra_config=""):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir(exist_ok=True)
    lines = []
    for i, seed in enumerate(frame_seeds):
        name = f"frame{i:03d}.ppm"
        P.write_ppm(frames_dir / name,
                    fixtures.synthetic_frame(seed, width, height))
        lines.append(f"frames/{name}")
    (tmp_path / "frames.txt").write_text("\n".join(lines) + ("\n" if lines else ""))

    W.save(fixtures.fixture_cascade_archive(), tmp_path / "cascade.cwts")
    W.save(fixtures.fixture_classifier_archive(), tmp_path / "classifier.cwts")
    (tmp_path / "run.cfg").write_text(
        "manifest=frames.txt\n"
        "output_dir=out\n"
        "cascade_weights=cascade.cwts\n"
        "classifier_weights=classifier.cwts\n"
        + extra_config)
    return tmp_path / "run.cfg"


class TestRun:
    def test_empty_manifest(self, tmp_path):
        config_path = write_run_setup(tmp_path, [])
        config = P.parse_config(config_path)
        summary = P.run(config)
        assert summary.frames == 0
        assert summary.detections == 0
        assert (tmp_path / "out" / "detections.jsonl").read_text() == ""

    def test_log_line_count_equals_detections(self, tmp_path):
        config_path = write_run_setup(tmp_path, [0, 1])
        summary = P.run(P.parse_config(config_path))
        lines = (tmp_path / "out" / "detections.jsonl").read_text().splitlines()
        assert len(lines) == summary.detections
        for line in lines:
            obj = json.loads(line)
            assert list(obj) == ["frame", "x1", "y1", "x2", "y2", "label",
                                 "confidence", "face_score"]

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        config_path = write_run_setup(tmp_path, [0, 1, 2])
        config = P.parse_config(config_path)
        P.run(config)
        first_log = (tmp_path / "out" / "detections.jsonl").read_bytes()
        first_frames = {p.name: p.read_bytes()
                        for p in (tmp_path / "out").glob("*.ppm")}
        P.run(config)
        assert (tmp_path / "out" / "detections.jsonl").read_bytes() == first_log
        for p in (tmp_path / "out").glob("*.ppm"):
            assert p.read_bytes() == first_frames[p.name]

    def test_helpers_and_frame_workers_never_change_bytes(self, tmp_path,
                                                          monkeypatch):
        """Two frame workers sharing the helper pool write the log and the
        annotated frames that one worker without helpers writes."""
        config = P.parse_config(write_run_setup(tmp_path, [0, 1, 2]))
        outputs = {}
        for workers, helpers in ((2, T._helpers), (1, lambda: None)):
            monkeypatch.setattr(T, "_helpers", helpers)  # None: no helpers
            out = tmp_path / f"out{workers}"
            P.run(replace(config, workers=workers, output_dir=out))
            outputs[workers] = {p.name: p.read_bytes()
                                for p in sorted(out.iterdir())
                                if p.name != "summary.json"}
        assert outputs[2] == outputs[1]
        assert len(outputs[1]) == 4 and outputs[1]["detections.jsonl"]

    def test_annotated_frames_mirror_input_names(self, tmp_path):
        config_path = write_run_setup(tmp_path, [0])
        P.run(P.parse_config(config_path))
        assert (tmp_path / "out" / "frame000.ppm").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_shared_output_name_refused_before_writing(self, tmp_path):
        config_path = write_run_setup(tmp_path, [0])
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            P.write_ppm(tmp_path / sub / "f.ppm",
                        fixtures.synthetic_frame(0, 32, 24))
        (tmp_path / "frames.txt").write_text("a/f.ppm\nb/f.ppm\n")
        with pytest.raises(P.FrameReadError, match="line 2.*line 1"):
            P.run(P.parse_config(config_path))
        assert not (tmp_path / "out").exists()

    def test_output_dir_over_inputs_refused(self, tmp_path):
        config_path = write_run_setup(tmp_path, [0])
        config = P.parse_config(config_path)
        config.output_dir = tmp_path / "frames"
        before = (tmp_path / "frames" / "frame000.ppm").read_bytes()
        with pytest.raises(P.FrameReadError, match="line 1"):
            P.run(config)
        assert (tmp_path / "frames" / "frame000.ppm").read_bytes() == before
        assert not (tmp_path / "frames" / "detections.jsonl").exists()

    @pytest.mark.parametrize("output", [
        "detections.jsonl", "summary.json", "frame000.ppm"])
    @pytest.mark.parametrize("field, label", [
        ("manifest", "the manifest"),
        ("cascade_weights", "the cascade weights"),
        ("classifier_weights", "the classifier weights")])
    def test_output_over_config_input_refused(self, tmp_path, field, label,
                                              output):
        """The manifest and both weight archives are inputs too: an output
        that lands on one is refused before anything is written."""
        config_path = write_run_setup(tmp_path, [0])
        # An absolute frame path keeps the frame found from any manifest
        # directory; the annotated output is still named frame000.ppm.
        (tmp_path / "frames.txt").write_text(
            f"{tmp_path / 'frames' / 'frame000.ppm'}\n")
        config = P.parse_config(config_path)
        (tmp_path / "out").mkdir()
        target = tmp_path / "out" / output
        getattr(config, field).rename(target)
        setattr(config, field, target)
        before = target.read_bytes()
        with pytest.raises(P.FrameReadError,
                           match=f"{output} would overwrite {label}"):
            P.run(config)
        assert target.read_bytes() == before
        assert [p.name for p in (tmp_path / "out").iterdir()] == [output]

    def test_failed_frame_skipped(self, tmp_path, capsys):
        config_path = write_run_setup(tmp_path, [0, 1, 2])
        frames_dir = tmp_path / "frames"
        (frames_dir / "frame001.ppm").write_bytes(b"P6\n9 9\n255\n")
        summary = P.run(P.parse_config(config_path))
        assert summary.frames == 3
        assert summary.failed_frames == 1

    def test_majority_failure_raises(self, tmp_path):
        config_path = write_run_setup(tmp_path, [0, 1])
        for name in ("frame000.ppm", "frame001.ppm"):
            (tmp_path / "frames" / name).write_bytes(b"P6\n9 9\n255\n")
        with pytest.raises(P.FrameReadError, match="failed"):
            P.run(P.parse_config(config_path))

    def test_missing_weights_rejected(self, tmp_path):
        config_path = write_run_setup(tmp_path, [0])
        (tmp_path / "cascade.cwts").unlink()
        with pytest.raises(P.FrameReadError, match="cascade.cwts"):
            P.run(P.parse_config(config_path))

    def test_peak_memory_flat_over_frames(self, tmp_path, monkeypatch):
        """Each frame's pixels and annotated copy are released once written:
        the frame loop of a 60-frame run peaks within 2 MiB of a 10-frame
        run's. Loading the weights peaks higher than the loop and would hide
        retained frames, so the peak is reset once the networks are built;
        every frame is the same, so each has the same working set."""
        build = P.build_classifier

        def build_then_reset_peak(*args):
            classifier = build(*args)
            tracemalloc.reset_peak()
            return classifier

        monkeypatch.setattr(P, "build_classifier", build_then_reset_peak)
        peaks = {}
        for count in (10, 60):
            run_dir = tmp_path / f"run{count}"
            run_dir.mkdir()
            config = P.parse_config(write_run_setup(
                run_dir, [0] * count, extra_config="min_face_size=120\n"))
            tracemalloc.start()
            try:
                assert P.run(config).detections == count
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[60] - peaks[10] < 2 * 2**20, peaks

    def test_slow_frame_bounds_frames_in_flight(self, tmp_path, monkeypatch):
        """While frame 0 is slow, at most 2 * workers frames have finished
        when it is written; the rest are written after it, in frame order,
        and a failing frame is skipped without stopping its neighbours."""
        workers, count = 2, 12
        config = P.parse_config(write_run_setup(
            tmp_path, [0] * count, width=32, height=24,
            extra_config=f"workers={workers}\n"))
        lock = threading.Lock()
        finished = []
        others_done = threading.Event()

        def slow_first_frame(frame, *args, **kwargs):
            if frame.index == 0:
                # Returns at once if every other frame could finish first.
                others_done.wait(timeout=1.0)
            with lock:
                finished.append(frame.index)
                if len(finished) == count - 1 and 0 not in finished:
                    others_done.set()
            if frame.index == 5:
                raise ValueError("planted failure")
            return []

        written = []
        write = P.write_ppm

        def record_write(path, pixels):
            with lock:
                written.append((Path(path).name, len(finished)))
            write(path, pixels)

        monkeypatch.setattr(P, "process_frame", slow_first_frame)
        monkeypatch.setattr(P, "write_ppm", record_write)
        summary = P.run(config)
        assert (summary.frames, summary.failed_frames) == (count, 1)
        assert [name for name, _ in written] == [
            f"frame{i:03d}.ppm" for i in range(count) if i != 5]
        assert written[0][1] <= 2 * workers, written


def poison_third_level(monkeypatch):
    """NaN pixels in frame 0's third pyramid level; returns the message a
    plain loop over the levels raises."""
    resize, calls = D.bilinear_resize, []

    def resize_poisoned(image, out_h, out_w, rows=slice(None)):
        calls.append(out_h)
        level = resize(image, out_h, out_w, rows)
        return np.full_like(level, np.nan) if len(calls) == 3 else level

    monkeypatch.setattr(D, "bilinear_resize", resize_poisoned)
    return "face scores must be finite"


def poison_second_crop_block(monkeypatch):
    """A zero-step slice for the second block of frame 0's rnet crops;
    returns the message numpy raises for one."""
    chunks, poisoned = D.row_chunks, []

    def chunks_poisoned(n, row_bytes):
        slices = chunks(n, row_bytes)
        if row_bytes == 3 * 21 * 21 * 4 and not poisoned:
            poisoned.append(n)
            assert len(slices) > 2
            slices[1] = slice(slices[1].start, slices[1].stop, 0)
        return slices

    monkeypatch.setattr(D, "row_chunks", chunks_poisoned)
    with pytest.raises(ValueError) as caught:
        np.empty(1)[::0]
    return str(caught.value)


class TestRunFailureIsolation:
    @pytest.mark.parametrize("poison", [poison_third_level,
                                        poison_second_crop_block])
    def test_failed_unit_fails_only_its_frame(self, tmp_path, monkeypatch,
                                              caplog, poison):
        """A unit that fails on a helper thread fails its frame alone, with
        the message a plain loop would have raised."""
        message = poison(monkeypatch)
        config = P.parse_config(write_run_setup(tmp_path, [0, 1]))
        summary = P.run(config)
        assert (summary.frames, summary.failed_frames) == (2, 1)
        assert [r.getMessage() for r in caplog.records
                if r.levelname == "WARNING"] == [
            f"frame 0 (frames/frame000.ppm): {message}"]
        assert (tmp_path / "out" / "frame001.ppm").exists()
        assert not (tmp_path / "out" / "frame000.ppm").exists()

    def test_missing_frame_is_frame_level_failure(self, tmp_path, caplog):
        config_path = write_run_setup(tmp_path, [0, 1])
        (tmp_path / "frames.txt").write_text(
            "frames/frame000.ppm\nframes/none.ppm\n")
        summary = P.run(P.parse_config(config_path))
        assert summary.frames == 2
        assert summary.failed_frames == 1
        assert "none.ppm" in caplog.text


class TestParseConfig:
    def test_minimal_config(self, tmp_path):
        config_path = write_run_setup(tmp_path, [])
        config = P.parse_config(config_path)
        assert config.manifest == tmp_path / "frames.txt"
        assert config.workers == 1
        assert config.annotate is True
        assert config.cascade.min_face_size == 20

    def test_overrides_from_file(self, tmp_path):
        config_path = write_run_setup(
            tmp_path, [], extra_config="min_face_size=40\nworkers=4\n"
                                       "annotate=false\nclassifier_extent=64\n")
        config = P.parse_config(config_path)
        assert config.cascade.min_face_size == 40
        assert config.workers == 4
        assert config.annotate is False
        assert config.backbone.input_extent == 64

    def test_environment_overrides(self, tmp_path):
        config_path = write_run_setup(tmp_path, [], extra_config="workers=2\n")
        config = P.parse_config(config_path,
                                env={"CASCADET_WORKERS": "8",
                                     "CASCADET_PYRAMID_FACTOR": "0.5"})
        assert config.workers == 8
        assert config.cascade.pyramid_factor == 0.5

    @pytest.mark.parametrize("field", [f.name for f in fields(D.CascadeConfig)])
    def test_every_cascade_field_is_a_key(self, tmp_path, field):
        default = getattr(D.CascadeConfig(), field)
        value = default + 1 if isinstance(default, int) else default / 2
        config_path = write_run_setup(tmp_path, [],
                                      extra_config=f"{field}={value}\n")
        config = P.parse_config(config_path)
        assert getattr(config.cascade, field) == value

    def test_unknown_environment_override_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("manifest=frames.txt\noutput_dir=out\n"
                        "cascade_weights=c.cwts\nclassifier_weights=k.cwts\n")
        with pytest.raises(P.ConfigError,
                           match="unknown environment override CASCADET_HOME"):
            P.parse_config(path, env={"CASCADET_HOME": "/x"})

    def test_unknown_key_rejected(self, tmp_path):
        config_path = write_run_setup(tmp_path, [], extra_config="typo_key=1\n")
        with pytest.raises(P.ConfigError, match="typo_key"):
            P.parse_config(config_path)

    def test_missing_required_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("manifest=frames.txt\n")
        with pytest.raises(P.ConfigError, match="output_dir"):
            P.parse_config(path)

    def test_workers_below_one_rejected(self, tmp_path):
        config_path = write_run_setup(tmp_path, [], extra_config="workers=0\n")
        with pytest.raises(P.ConfigError, match="workers"):
            P.parse_config(config_path)

    @pytest.mark.parametrize("setting", [
        "pyramid_factor=2.0", "min_face_size=0", "min_face_size=-5",
        "width_multiplier=inf", "width_multiplier=nan", "head_hidden=0"])
    def test_bad_value_rejected(self, tmp_path, setting):
        config_path = write_run_setup(tmp_path, [], extra_config=setting + "\n")
        with pytest.raises(P.ConfigError, match=setting.partition("=")[0]):
            P.parse_config(config_path)

    @pytest.mark.parametrize("setting, env, where", [
        ("workers=zero", {}, r"run\.cfg:5: workers: "),
        ("annotate=maybe", {}, r"run\.cfg:5: annotate: "),
        ("min_face_size=1.5", {}, r"run\.cfg:5: min_face_size: "),
        ("", {"CASCADET_WORKERS": "zero"},
         "environment override CASCADET_WORKERS: workers: "),
    ], ids=["workers=zero", "annotate=maybe", "min_face_size=1.5",
            "CASCADET_WORKERS=zero"])
    def test_parse_error_names_key_and_source(self, tmp_path, setting, env,
                                              where):
        config_path = write_run_setup(tmp_path, [], extra_config=setting + "\n")
        with pytest.raises(P.ConfigError, match=where):
            P.parse_config(config_path, env=env)

    @pytest.mark.parametrize("setting", [
        "classifier_extent=16", "threshold_pnet=1.5", "min_face_size=0",
        "workers=0", "width_multiplier=1e308"])
    def test_out_of_range_value_names_key_and_line(self, tmp_path, setting):
        key, _, value = setting.partition("=")
        variable = f"CASCADET_{key.upper()}"
        config_path = write_run_setup(tmp_path, [], extra_config=setting + "\n")
        with pytest.raises(P.ConfigError, match=rf"run\.cfg:5: {key}: "):
            P.parse_config(config_path)
        with pytest.raises(P.ConfigError,
                           match=f"environment override {variable}: {key}: "):
            P.parse_config(config_path, env={variable: value})

    def test_workers_checked_in_code(self, tmp_path):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            P.RunConfig(manifest=tmp_path / "frames.txt", output_dir=tmp_path,
                        cascade_weights=tmp_path / "c.cwts",
                        classifier_weights=tmp_path / "k.cwts", workers=0)

    def test_key_given_twice_rejected(self, tmp_path):
        config_path = write_run_setup(tmp_path, [],
                                      extra_config="workers=1\nworkers=4\n")
        with pytest.raises(P.ConfigError, match=r":6: key workers already set "
                                                r"on line 5"):
            P.parse_config(config_path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(P.ConfigError, match="key=value"):
            P.parse_config(path)

    def test_only_newline_ends_a_line(self, tmp_path):
        # A comment holding U+2028 or U+0085 stays one line, and a "\r"
        # before the "\n" is not part of the line.
        path = tmp_path / "run.cfg"
        text = ("# frames\u2028and\x85weights\r\nmanifest=frames.txt\r\n"
                "output_dir=out\r\ncascade_weights=c.cwts\r\n"
                "classifier_weights=k.cwts\r\n")
        path.write_bytes(text.encode())
        config = P.parse_config(path)
        assert config.manifest == tmp_path / "frames.txt"
        assert config.classifier_weights == tmp_path / "k.cwts"
        path.write_bytes((text + "just some words\r\n").encode())
        with pytest.raises(P.ConfigError, match=r"run\.cfg:6: expected "
                                                r"key=value, got 'just some "
                                                r"words'$"):
            P.parse_config(path)
