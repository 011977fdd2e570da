import logging
import tracemalloc

import numpy as np
import pytest

from cascadet import detector as D
from cascadet import fixtures, oracles
from cascadet import tensor as T
from cascadet.tensor import Network, parameter_shapes
from cascadet.weights import WeightArchive


def boxes(*rows):
    """(N, 4) float64 box array from (x1, y1, x2, y2) rows."""
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def zero_archive_for(layers, overrides=None):
    archive = WeightArchive()
    for name, shape in parameter_shapes(layers):
        archive.put(name, np.zeros(shape, np.float32))
    for name, value in (overrides or {}).items():
        archive.get(name)[...] = np.asarray(value, np.float32)
    return archive


@pytest.fixture(scope="module")
def cascade():
    return D.CascadeNetworks.from_archive(fixtures.fixture_cascade_archive())


class TestPyramid:
    def test_documented_scale_sequence(self):
        frame = np.zeros((1, 3, 100, 100), np.float32)
        levels = D.build_image_pyramid(frame, D.CascadeConfig())
        got = [scale for scale, _ in levels]
        want = [0.6, 0.4254, 0.30161, 0.21384, 0.15161]
        assert len(got) == 5
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_exact_minimum_single_level(self):
        frame = np.zeros((1, 3, 12, 12), np.float32)
        config = D.CascadeConfig(min_face_size=12)
        levels = D.build_image_pyramid(frame, config)
        assert len(levels) == 1
        scale, extents = levels[0]
        assert scale == 1.0
        assert D.bilinear_resize(frame, *extents).shape == (1, 3, 12, 12)

    def test_short_side_equal_to_min_face_gets_a_level(self):
        """A frame whose short side equals min_face_size keeps its first
        level even where ``side * (12 / side)`` rounds below 12 (47, 94,
        147, ...), and that level's short side is 12 even where the product
        rounds above 12 (187, 273, 275, ...); the long side is the integer
        ceiling of (side + 3) * 12 / side. Zero channels keep 1989 pyramids
        cheap."""
        for side in range(12, 2001):
            frame = np.zeros((1, 0, side, side + 3), np.float32)
            config = D.CascadeConfig(min_face_size=side)
            levels = D.build_image_pyramid(frame, config)
            assert levels, side
            scale, extents = levels[0]
            assert scale == 12 / side
            image = D.bilinear_resize(frame, *extents)
            assert image.shape[2:] == (12, -(-(side + 3) * 12 // side)), side

    def test_too_small_frame_gives_empty_pyramid(self, caplog):
        frame = np.zeros((1, 3, 10, 10), np.float32)
        with caplog.at_level(logging.WARNING):
            levels = D.build_image_pyramid(frame, D.CascadeConfig())
        assert levels == []
        assert any("empty pyramid" in r.message for r in caplog.records)

    def test_scales_strictly_decreasing_and_floored(self):
        frame = np.zeros((1, 3, 240, 320), np.float32)
        config = D.CascadeConfig()
        levels = D.build_image_pyramid(frame, config)
        scales = [scale for scale, _ in levels]
        assert all(a > b for a, b in zip(scales, scales[1:]))
        for _, extents in levels:
            assert min(D.bilinear_resize(frame, *extents).shape[2:]) >= 12
        # No valid scale omitted: one more factor step must fall below the floor.
        assert 240 * scales[-1] * config.pyramid_factor < 12

    def test_recurrence_matches_stated_formula(self):
        frame = np.zeros((1, 3, 180, 300), np.float32)
        config = D.CascadeConfig(min_face_size=24, pyramid_factor=0.8)
        levels = D.build_image_pyramid(frame, config)
        for k, (scale, _) in enumerate(levels):
            assert scale == pytest.approx(
                (12 / 24) * 0.8 ** k, rel=1e-12)


class TestResampling:
    def test_full_frame_crop_is_identity(self):
        rng = np.random.default_rng(0)
        frame = rng.uniform(-1, 1, (1, 3, 8, 8)).astype(np.float32)
        out = D.crop_resize_batch(frame, boxes((0, 0, 8, 8)), 8)
        np.testing.assert_allclose(out, frame, atol=1e-6)

    def test_fully_outside_box_is_zero(self):
        rng = np.random.default_rng(1)
        frame = rng.uniform(-1, 1, (1, 3, 8, 8)).astype(np.float32)
        out = D.crop_resize_batch(frame, boxes((20, 20, 30, 30)), 4)
        np.testing.assert_array_equal(out, np.zeros((1, 3, 4, 4), np.float32))

    def test_off_edge_boxes_match_explicitly_padded_frame(self):
        """Off-edge crops have the bytes of crops of the frame padded with
        +0.0; on a frame of negative values, each sample wholly outside it
        is +0.0, never -0.0."""
        rng = np.random.default_rng(11)
        frame = rng.uniform(-1, 1, (1, 3, 30, 40)).astype(np.float32)
        # Off the left, top, right and bottom edges. 20-pixel sides at E=8
        # keep every sample position exact under the 8-pixel shift.
        edge_boxes = boxes((-6, 5, 14, 25), (10, -7, 30, 13),
                           (28, 4, 48, 24), (12, 18, 32, 38))
        negative = -np.abs(frame) - 0.25
        for image in (frame, negative):
            padded = np.pad(image, ((0, 0), (0, 0), (8, 8), (8, 8)))
            crops = D.crop_resize_batch(image, edge_boxes, 8)
            assert all((crop == 0).any() and (crop != 0).any()
                       for crop in crops)
            assert crops.tobytes() == D.crop_resize_batch(
                padded, edge_boxes + 8, 8).tobytes()
        # ``crops`` are the negative frame's: any zero came from outside it.
        assert not np.signbit(crops[crops == 0]).any()

    def test_huge_boxes_crop_to_positive_zero(self):
        """Boxes out to 1e300 are finite, so they pass ``calibrate``; their
        crops are +0.0, with no floating-point warning (pytest makes every
        warning an error)."""
        frame = np.full((1, 3, 10, 10), -0.5, np.float32)
        huge = boxes((1e40, 1e40, 2e40, 2e40), (-2e40, -2e40, -1e40, -1e40),
                     (-1e300, 2, -1e299, 8), (2, 1e299, 8, 1e300),
                     (-1e300, -1e300, 1e300, 1e300))
        for extent, count in ((4, None), (24, 21), (48, 41)):
            crops = D.crop_resize_batch(frame, huge, extent, count)
            assert (crops == 0).all() and not np.signbit(crops).any()

    def test_square_of_a_box_past_the_float_range_crops_to_zero(self):
        """A finite box 2e308 wide squares to finite corners, since
        ``square_pad`` halves them first; its crop's side overflows to inf,
        which puts every sample past the far edge: +0.0, with no
        floating-point warning."""
        frame = np.full((1, 3, 10, 10), -0.5, np.float32)
        square = D.square_pad(boxes((-1e308, 0, 1e308, 10)))
        assert square.tolist() == [[-1e308, 5 - 1e308, 1e308, 5 + 1e308]]
        crops = D.crop_resize_batch(frame, square, 24)
        assert (crops == 0).all() and not np.signbit(crops).any()

    @pytest.mark.parametrize("extent, counts", [(24, (21, 24, 1)),
                                                (48, (41, 47)), (5, (3,))])
    def test_counted_crop_is_the_full_crops_corner(self, extent, counts):
        """Sampling the first ``count`` grid points on each axis gives the
        bytes of the full crop's top-left corner, off-frame boxes too."""
        frame = D.frame_to_tensor(fixtures.synthetic_frame(4, 160, 120))
        rng = np.random.default_rng(extent)
        corner = rng.uniform(-30, 150, (50, 2))
        crop_boxes = np.hstack([corner, corner + rng.uniform(3, 90, (50, 2))])
        full = D.crop_resize_batch(frame, crop_boxes, extent)
        for count in counts:
            got = D.crop_resize_batch(frame, crop_boxes, extent, count)
            assert got.shape == (50, 3, count, count)
            assert got.tobytes() == np.ascontiguousarray(
                full[:, :, :count, :count]).tobytes()

    def test_downscale_preserves_constant(self):
        frame = np.full((1, 3, 16, 16), 0.625, np.float32)
        out = D.crop_resize_batch(frame, boxes((0, 0, 16, 16)), 8)
        np.testing.assert_allclose(out, np.full((1, 3, 8, 8), 0.625), atol=1e-6)
        resized = D.bilinear_resize(frame, 8, 8)
        np.testing.assert_allclose(resized, np.full((1, 3, 8, 8), 0.625),
                                   atol=1e-6)

    def test_bilinear_resize_matches_crop_oracle(self):
        """Downscaling a square frame to E x E samples it as the whole-frame
        crop does: cell centres, every sample inside the frame."""
        rng = np.random.default_rng(13)
        for side, extents in ((16, (12, 8, 5, 1)), (37, (24, 13, 12))):
            frame = rng.uniform(-1, 1, (1, 3, side, side)).astype(np.float32)
            for extent in extents:
                want = oracles.naive_crop_resize(frame, (0, 0, side, side),
                                                 extent)
                got = D.bilinear_resize(frame, extent, extent)
                np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-6)

    def test_bilinear_resize_returns_channels_last_memory(self):
        """Pyramid levels come back channels-last, the memory pnet's first
        convolution reads in contiguous runs."""
        frame = np.random.default_rng(15).uniform(
            -1, 1, (1, 3, 20, 30)).astype(np.float32)
        out = D.bilinear_resize(frame, 13, 17)
        assert out.shape == (1, 3, 13, 17) and out.dtype == np.float32
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_bilinear_upscale_clamps_to_edge(self):
        """Upscaled, the outer samples fall outside the pixel centres and
        clamp to the edge: each corner output is its corner pixel exactly,
        where a zero-bordered crop would blend it toward 0."""
        rng = np.random.default_rng(14)
        frame = rng.uniform(0.5, 1, (1, 3, 5, 7)).astype(np.float32)
        out = D.bilinear_resize(frame, 12, 16)
        corners = (slice(None), slice(None), [0, 0, -1, -1], [0, -1, 0, -1])
        np.testing.assert_array_equal(out[corners], frame[corners])

    def test_batch_rows_equal_single_box_crops(self, monkeypatch):
        rng = np.random.default_rng(10)
        frame = rng.uniform(-1, 1, (1, 3, 40, 50)).astype(np.float32)
        channels_last = np.ascontiguousarray(
            frame.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        # Three blocks of 24x24 crops, the last with half a block more.
        crop_bytes = 3 * 24 * 24 * 4
        per_block = T._BLOCK_BYTES // crop_bytes
        n = 3 * per_block + per_block // 2
        xy = rng.uniform(-10, 45, (n, 2))
        batch_boxes = np.hstack([xy, xy + rng.uniform(1, 30, (n, 2))])
        row_bytes = []
        chunks = D.row_chunks
        monkeypatch.setattr(D, "row_chunks", lambda n, size:
                            row_bytes.append(size) or chunks(n, size))
        assert len(chunks(n, crop_bytes)) == 3
        for image in (frame, channels_last):
            batch = D.crop_resize_batch(image, batch_boxes, 24)
            assert batch.shape == (n, 3, 24, 24)
            assert row_bytes[-1] == crop_bytes
            for i in range(n):
                alone = D.crop_resize_batch(image, batch_boxes[i:i + 1], 24)
                assert batch[i:i + 1].tobytes() == alone.tobytes()
        empty = D.crop_resize_batch(frame, np.zeros((0, 4)), 24)
        assert empty.shape == (0, 3, 24, 24)

    def test_crop_peak_memory_is_block_sized(self):
        """A stage-1-sized call of 1,400 24x24 crops allocates its output
        and one block's temporaries, not the batch's (unblocked, it peaks
        at 52 MiB)."""
        rng = np.random.default_rng(1400)
        frame = D.frame_to_tensor(fixtures.synthetic_frame(5, 640, 360))
        side = rng.uniform(12, 200, (1400, 1))
        corner = rng.uniform(-20, 620, (1400, 2))
        crop_boxes = np.hstack([corner, corner + side])
        tracemalloc.start()
        try:
            D.crop_resize_batch(frame, crop_boxes, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, peak / 2**20

    def test_1080p_crops_never_copy_the_frame(self, cascade):
        """Eight boxes cropped from a 1920x1080 frame tensor, inside it and
        past its edges, allocate only what grows with the boxes: 1.03 MiB
        through ``crop_resize_batch`` and 3.71 MiB through ``forward_crops``
        with onet, where a zero-bordered copy of the frame alone was 24
        MiB. The bound is the larger peak plus 50%."""
        frame = D.frame_to_tensor(fixtures.synthetic_frame(0, 1920, 1080))
        rng = np.random.default_rng(1080)
        corner = rng.uniform(-100, 1900, (8, 2))
        crop_boxes = np.hstack([corner, corner + rng.uniform(20, 400, (8, 1))])
        for crop in (lambda: D.crop_resize_batch(frame, crop_boxes, 48),
                     lambda: D.forward_crops(frame, crop_boxes, cascade.onet,
                                             48, ("onet.reg", "onet.landmarks"))):
            tracemalloc.start()
            try:
                crop()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * 3.71 * 2**20, peak / 2**20

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(12)
        frame = rng.uniform(-1, 1, (1, 3, 9, 11)).astype(np.float32)
        # Inside, off each edge and corner, larger than the frame, and
        # wholly outside it on each side.
        crop_boxes = boxes((1.3, 2.1, 7.9, 6.4), (-4.5, 1, 3.5, 8),
                           (2, -3.2, 9, 4), (7.5, 3, 14, 9.5),
                           (3, 6.5, 8, 12.25), (-2, -2, 4, 4),
                           (8, 6, 15, 13), (-5, -4, 16, 14),
                           (-9, 0, -1, 8), (12, 1, 20, 9),
                           (0, -9, 8, -1), (1, 10, 9, 18))
        for extent in (1, 5, 12):
            got = D.crop_resize_batch(frame, crop_boxes, extent)
            for box, crop in zip(crop_boxes, got):
                want = oracles.naive_crop_resize(frame, box, extent)
                np.testing.assert_allclose(crop, want, rtol=0, atol=1e-6)
        assert (D.crop_resize_batch(frame, crop_boxes[-4:], 12) == 0).all()

    def test_frame_to_tensor_normalization(self):
        pixels = np.zeros((2, 2, 3), np.uint8)
        pixels[0, 0] = (255, 127, 0)
        tensor = D.frame_to_tensor(pixels)
        assert tensor.shape == (1, 3, 2, 2)
        assert tensor[0, 0, 0, 0] == pytest.approx((255 - 127.5) / 128)
        assert tensor[0, 2, 0, 0] == pytest.approx(-127.5 / 128)

    def test_frame_to_tensor_bits_for_every_pixel_value(self):
        values = np.arange(256, dtype=np.uint8)
        tensor = D.frame_to_tensor(np.repeat(values, 3).reshape(1, 256, 3))
        want = (values.astype(np.float32) - 127.5) / 128.0
        for channel in tensor[0, :, 0]:
            assert channel.tobytes() == want.tobytes()

    def test_frame_to_tensor_holds_one_float32_frame(self):
        """At 1920x1080 the call peaks at its own 23.7 MiB output; a
        subtraction into a new array held two float32 frames, 47.5 MiB.
        The bound is one float32 frame plus 10%."""
        pixels = fixtures.synthetic_frame(0, 1920, 1080)
        tracemalloc.start()
        try:
            D.frame_to_tensor(pixels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 4 * pixels.size, peak / 2**20


class TestIoU:
    def test_identical_boxes(self):
        b = boxes((2, 3, 10, 12))
        assert D.iou(b, b).tolist() == [[1.0]]

    def test_disjoint_boxes(self):
        assert D.iou(boxes((0, 0, 5, 5)), boxes((10, 10, 15, 15))).tolist() == [[0.0]]

    def test_documented_case(self):
        got = D.iou(boxes((0, 0, 10, 10)), boxes((5, 5, 15, 15)))
        assert got[0, 0] == pytest.approx(25 / 175, abs=1e-6)

    def test_symmetry_and_raster_oracle(self):
        rng = np.random.default_rng(2)
        a_rows, b_rows = [], []
        for _ in range(30):
            x1, y1 = rng.integers(0, 10, 2)
            a_rows.append((x1, y1, x1 + rng.integers(1, 10), y1 + rng.integers(1, 10)))
            x1, y1 = rng.integers(0, 10, 2)
            b_rows.append((x1, y1, x1 + rng.integers(1, 10), y1 + rng.integers(1, 10)))
        got = D.iou(boxes(*a_rows), boxes(*b_rows))
        assert got.shape == (30, 30)
        assert got.tolist() == D.iou(boxes(*b_rows), boxes(*a_rows)).T.tolist()
        for i, a in enumerate(a_rows):
            for j, b in enumerate(b_rows):
                assert got[i, j] == pytest.approx(
                    oracles.raster_iou(D.BoundingBox(*a), D.BoundingBox(*b)),
                    abs=1e-6)

    def test_one_iff_identical(self):
        assert D.iou(boxes((0, 0, 10, 10)), boxes((0, 0, 10, 10.5)))[0, 0] < 1.0

    def test_leading_axes_broadcast_with_each_matrix_bytes(self):
        rng = np.random.default_rng(3)
        corner = rng.uniform(-50, 50, (3, 2, 7, 2))
        stack = np.concatenate([corner, corner + rng.uniform(0.5, 40, (3, 2, 7, 2))],
                               axis=-1)
        a, b = stack[:, 0, :5], stack[:, 1]
        got = D.iou(a, b)
        assert got.shape == (3, 5, 7)
        for i in range(3):
            assert got[i].tobytes() == D.iou(a[i], b[i]).tobytes()
        shared = D.iou(a[0], b)  # (5, 4) against (3, 7, 4)
        assert shared.tobytes() == np.stack([D.iou(a[0], m) for m in b]).tobytes()


def random_candidates(rng, n):
    """(boxes, scores) for n random boxes, drawn box by box."""
    rows, scores = [], []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 60, 2)
        rows.append((x1, y1, x1 + rng.uniform(2, 40), y1 + rng.uniform(2, 40)))
        scores.append(float(rng.uniform(0, 1)))
    return boxes(*rows), np.array(scores)


def pnet_level(rng, scale, count, width=640, height=360):
    """``count`` distinct cells of the proposal grid of a width x height
    frame's pyramid level at ``scale``, mapped to frame pixels as
    :func:`detector.generate_proposals` maps them (equal 12/scale boxes at
    stride 2/scale), with random scores."""
    rows = (int(np.ceil(height * scale)) - D.PNET_EXTENT) // D.PNET_STRIDE + 1
    cols = (int(np.ceil(width * scale)) - D.PNET_EXTENT) // D.PNET_STRIDE + 1
    cells = np.sort(rng.choice(rows * cols, size=count, replace=False))
    y, x = D.PNET_STRIDE * (cells // cols), D.PNET_STRIDE * (cells % cols)
    level = np.stack([x, y, x + D.PNET_EXTENT, y + D.PNET_EXTENT], axis=1)
    return level * (1.0 / scale), rng.uniform(0.6, 1.0, count)


class TestNMS:
    def test_single_candidate(self):
        assert D.nms(boxes((0, 0, 10, 10)), np.array([0.9]), 0.5).tolist() == [0]

    def test_two_identical_boxes_keep_higher_score(self):
        kept = D.nms(boxes((0, 0, 10, 10), (0, 0, 10, 10)),
                     np.array([0.8, 0.9]), 0.5)
        assert kept.tolist() == [1]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cand_boxes, scores = random_candidates(rng, 50)
            for mode in ("union", "min"):
                got = D.nms(cand_boxes, scores, 0.5, mode)
                want = oracles.greedy_loop_nms(cand_boxes, scores, 0.5, mode)
                assert got.tolist() == want.tolist()

    def test_survivor_pairwise_overlap_bounded(self):
        rng = np.random.default_rng(4)
        cand_boxes, scores = random_candidates(rng, 60)
        kept = cand_boxes[D.nms(cand_boxes, scores, 0.4, "union")]
        assert (np.triu(D.iou(kept, kept), k=1) <= 0.4).all()

    def test_idempotent_and_subset(self):
        rng = np.random.default_rng(5)
        cand_boxes, scores = random_candidates(rng, 40)
        once = D.nms(cand_boxes, scores, 0.5)
        again = D.nms(cand_boxes[once], scores[once], 0.5)
        assert again.tolist() == list(range(len(once)))
        assert len(set(once.tolist())) == len(once)
        assert all(0 <= i < 40 for i in once)

    def test_score_tie_keeps_lower_index(self):
        kept = D.nms(boxes((0, 0, 10, 10), (1, 1, 11, 11)),
                     np.array([0.5, 0.5]), 0.5)
        assert kept[0] == 0

    def test_empty_input(self):
        assert D.nms(boxes(), np.zeros(0), 0.5).size == 0

    @pytest.mark.parametrize("count, scored", [(5, 3), (3, 5)])
    def test_rejects_boxes_that_do_not_match_scores(self, count, scored):
        rng = np.random.default_rng(6)
        cand_boxes, _ = random_candidates(rng, count)
        with pytest.raises(ValueError, match=rf"\({count}, 4\).*\({scored},\)"):
            D.nms(cand_boxes, rng.uniform(0, 1, scored), 0.5)

    @pytest.mark.parametrize("mode", ["union", "min"])
    def test_pnet_level_peak_memory_is_bounded(self, mode):
        """Candidate pairs are made and scored a band pair at a time: on
        this 4,000-box level the peak measured 0.73 MiB in union mode and
        1.07 MiB in min mode, against 10 and 25 MiB when one band holds
        every box; the bound is the larger peak plus 50%."""
        level, scores = pnet_level(np.random.default_rng(7), 0.6, 4000)
        tracemalloc.start()
        try:
            D.nms(level, scores, 0.5, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 2**20, peak / 2**20


NMS_SETTINGS = [(mode, threshold) for mode in ("union", "min")
                for threshold in (0.3, 0.5, 0.7)]


class TestNMSMatchesGreedyLoop:
    """``nms`` scores only pairs that can suppress each other, yet keeps
    the same indices, in the same order and dtype, as the greedy loop."""

    @staticmethod
    def assert_same(cand_boxes, scores):
        for mode, threshold in NMS_SETTINGS:
            got = D.nms(cand_boxes, scores, threshold, mode)
            want = oracles.greedy_loop_nms(cand_boxes, scores, threshold, mode)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist(), (mode, threshold)

    def test_every_call_on_the_golden_frame(self, cascade, monkeypatch):
        calls = []
        real_nms = D.nms

        def recording_nms(cand_boxes, scores, threshold, mode="union"):
            calls.append((cand_boxes, scores))
            return real_nms(cand_boxes, scores, threshold, mode)

        monkeypatch.setattr(D, "nms", recording_nms)
        frame = D.frame_to_tensor(fixtures.synthetic_frame(0, 640, 360))
        D.detect_faces(frame, cascade, D.CascadeConfig())
        monkeypatch.undo()
        assert len(calls) >= 4 and max(len(s) for _, s in calls) > 1000
        for cand_boxes, scores in calls:
            self.assert_same(cand_boxes, scores)

    @pytest.mark.parametrize("scale, count", [(0.6, 4000), (0.6, 600),
                                              (0.4254, 2000), (0.1077, 60)])
    def test_pnet_shaped_grids(self, scale, count):
        rng = np.random.default_rng(int(scale * 1e4) + count)
        self.assert_same(*pnet_level(rng, scale, count))

    def test_mixed_size_cross_level_sets(self):
        """Survivors of several levels, some shifted off the grid, with
        sizes from 20 to 313 pixels, as the cross-level call sees them."""
        rng = np.random.default_rng(9)
        for _ in range(3):
            levels = [pnet_level(rng, 0.6 * 0.709 ** k, max(4, 400 >> k))
                      for k in range(9)]
            cand_boxes = np.concatenate([level for level, _ in levels])
            cand_boxes += rng.normal(0, 2, (len(cand_boxes), 1)) * (
                rng.uniform(size=(len(cand_boxes), 1)) < 0.5)
            scores = np.concatenate([s for _, s in levels])
            self.assert_same(cand_boxes, scores)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
    def test_pairs_at_the_threshold(self, threshold):
        """Far-apart pairs whose IoU lies within a few ulps of the
        threshold: shifted along x, along y or both, of equal or unequal
        widths, near the origin and a million pixels out. A limit of the
        sweep that is too tight drops a pair that suppresses."""
        rng = np.random.default_rng(int(threshold * 10))
        t = threshold
        rows = []
        for k in range(300):
            w, h = rng.uniform(2, 60, 2)
            w2 = w * rng.choice([1.0, rng.uniform(0.8, 1.25)])
            # IoU (w - d) / (w2 + d) equals t at this x shift d, at equal y.
            d = (w - t * w2) / (1 + t)
            d = d + rng.integers(-3, 4) * np.spacing(d)
            a, b = (0, 0, w, h), (d, 0, d + w2, h)
            if k % 3 == 1:  # the same pair along y
                a, b = (0, 0, h, w), (0, d, h, d + w2)
            elif k % 3 == 2:  # part of the shift along y, equal sizes
                e = rng.uniform(0, 0.5) * h * (1 - t) / (1 + t)
                inter = 2 * t / (1 + t) * w * h
                d = w - inter / (h - e)
                d = d + rng.integers(-3, 4) * np.spacing(d)
                a, b = (0, 0, w, h), (d, e, d + w, e + h)
            origin = np.array([k * 200.0, 0, k * 200.0, 0])
            if k % 2:
                origin += 1e6
            rows += [np.add(a, origin), np.add(b, origin)]
        self.assert_same(np.array(rows), rng.uniform(0, 1, len(rows)))

    def test_degenerate_sets(self):
        """NaN and infinite corners, zero width or height, inverted boxes,
        areas that overflow or underflow, duplicates, tied and NaN scores.
        Both sides compute the same NaN and infinite overlaps, whose
        floating-point warnings are silenced here."""
        rng = np.random.default_rng(10)
        nan, inf = np.nan, np.inf
        odd = boxes((nan, 0, 10, 10), (0, nan, 10, 10), (0, 0, nan, 10),
                    (0, 0, 10, nan), (-inf, 0, 10, 10), (0, 0, inf, 10),
                    (0, -inf, 10, inf), (inf, 0, inf, 10), (5, 5, 5, 20),
                    (5, 5, 20, 5), (20, 5, 5, 20), (20, 20, 5, 5),
                    (-1e308, 0, 1e308, 10), (-1e308, 20, 1e308, 30),
                    (0, -1e308, 10, 1e308), (20, -1e308, 30, 1e308),
                    (3, 3, 3 + 1e-200, 3 + 1e-200), (-1, -1, 1e200, 1e200))
        finite = odd[np.isfinite(odd).all(axis=1)]
        for trial in range(40):
            cand_boxes, scores = random_candidates(rng, 60)
            rows = rng.choice(60, size=12, replace=False)
            cand_boxes[rows[:6]] = odd[rng.choice(len(odd), size=6)]
            cand_boxes[rows[6:9]] = cand_boxes[rows[9:]]
            scores = np.round(scores, 1)
            scores[rng.choice(60, size=trial % 4, replace=False)] = nan
            with np.errstate(all="ignore"):
                self.assert_same(cand_boxes, scores)
                self.assert_same(odd, rng.permutation(len(odd)) / 10)
                self.assert_same(finite, rng.permutation(len(finite)) / 10)


class TestCalibrate:
    def test_zero_offsets_identity(self):
        b = boxes((3, 4, 13, 24))
        shifted, keep = D.calibrate(b, np.zeros((1, 4)))
        assert shifted.tolist() == b.tolist()
        assert keep.tolist() == [True]

    def test_documented_case(self):
        shifted, keep = D.calibrate(boxes((0, 0, 10, 10)),
                                    np.array([[0.1, 0.1, -0.1, -0.1]]))
        assert shifted.tolist() == [[1, 1, 9, 9]]
        assert keep.tolist() == [True]

    def test_degenerate_result_signals_discard(self):
        _, keep = D.calibrate(boxes((0, 0, 10, 10)),
                              np.array([[0.6, 0.0, -0.6, 0.0]]))
        assert keep.tolist() == [False]

    def test_non_finite_result_raises(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                D.calibrate(boxes((0, 0, 10, 10), (5, 5, 20, 20)),
                            np.array([[0.0, 0.0, 0.0, 0.0], [0.0, bad, 0.0, 0.0]]))

    def test_commutes_with_uniform_scaling(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x1, y1 = rng.uniform(0, 50, 2)
            b = boxes((x1, y1, x1 + rng.uniform(1, 30), y1 + rng.uniform(1, 30)))
            offsets = rng.uniform(-0.2, 0.2, (1, 4))
            alpha = float(rng.uniform(0.5, 3.0))
            direct, _ = D.calibrate(b, offsets)
            scaled, _ = D.calibrate(b * alpha, offsets)
            for u, v in zip(direct[0], scaled[0]):
                assert u * alpha == pytest.approx(v, abs=1e-4)


class TestSquarePad:
    def test_square_unchanged(self):
        b = boxes((2, 2, 12, 12))
        assert D.square_pad(b).tolist() == b.tolist()

    def test_documented_case(self):
        assert D.square_pad(boxes((0, 0, 10, 20))).tolist() == [[-5, 0, 15, 20]]

    def test_always_square(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            x1, y1 = rng.uniform(-10, 50, 2)
            b = boxes((x1, y1, x1 + rng.uniform(1, 40), y1 + rng.uniform(1, 40)))
            sq = D.square_pad(b)
            width, height = sq[0, 2:] - sq[0, :2]
            assert width == pytest.approx(height, abs=1e-9)
            assert width == pytest.approx(max(b[0, 2:] - b[0, :2]), abs=1e-9)

    def test_bits_of_the_center_and_half_side_formula(self):
        """Halving the corners first keeps the bits of ``(x1 + x2) / 2``
        minus and plus ``max(x2 - x1, y2 - y1) / 2``, at scales up to 1e300."""
        rng = np.random.default_rng(31)
        for scale in (1e-3, 1.0, 1e6, 1e100, 1e300):
            lo = rng.uniform(-1, 1, (10_000, 2)) * scale
            hi = lo + rng.uniform(0, 1, (10_000, 2)) * scale
            size = hi - lo
            half = (np.maximum(size[:, 0], size[:, 1]) / 2.0)[:, None]
            center = (lo + hi) / 2.0
            want = np.hstack([center - half, center + half])
            assert D.square_pad(np.hstack([lo, hi])).tobytes() == want.tobytes()


class TestProposals:
    def test_unreachable_threshold_gives_empty(self):
        archive = zero_archive_for(D.build_pnet_layers())
        pnet = Network(D.build_pnet_layers(), archive)
        image = np.zeros((1, 3, 20, 20), np.float32)
        props, scores, offsets = D.generate_proposals(
            image, (1.0, (20, 20)), pnet, threshold=1.0)
        assert (props.shape, scores.shape, offsets.shape) == ((0, 4), (0,), (0, 4))

    def test_grid_cell_coordinate_mapping(self, cascade):
        rng = np.random.default_rng(8)
        image = rng.uniform(-1, 1, (1, 3, 16, 16)).astype(np.float32)
        props, _, _ = D.generate_proposals(image, (0.5, (16, 16)),
                                           cascade.pnet, threshold=0.0)
        assert len(props) == 9   # 3x3 grid from a 16x16 level
        assert props[0].tolist() == [0.0, 0.0, 24.0, 24.0]
        # Row-major enumeration: second cell is (r=0, c=1) -> x1 = 2/0.5.
        assert props[1, :2].tolist() == [4.0, 0.0]

    def test_fully_convolutional_equals_sliding_window(self, cascade):
        rng = np.random.default_rng(9)
        image = rng.uniform(-1, 1, (1, 3, 24, 24)).astype(np.float32)
        _, scores, _ = D.generate_proposals(image, (1.0, (24, 24)),
                                            cascade.pnet, threshold=0.0)
        assert len(scores) == 49  # 7x7 cells over a 24x24 image
        k = 0
        for r in range(7):
            for c in range(7):
                window = image[:, :, 2 * r:2 * r + 12, 2 * c:2 * c + 12]
                probs = cascade.pnet.forward(window)
                assert scores[k] == pytest.approx(
                    float(probs[0, 1, 0, 0]), abs=1e-4)
                k += 1


class RecordingNetwork:
    """A network as the detector uses it (``forward``, ``layers``,
    ``input_shape``) that keeps every forward's input shape and result."""

    def __init__(self, network):
        self.network = network
        self.layers, self.input_shape = network.layers, network.input_shape
        self.shapes, self.results = [], []

    def forward(self, x, taps=()):
        result = self.network.forward(x, taps=taps)
        self.shapes.append(x.shape)
        self.results.append(result)
        return result


def banded_level(frame, level, pnet):
    """Proposals of one level and pnet's forwards on its bands; asserts
    that the bands, in order, hold the rows of the whole level's
    probability map and ``pnet.reg`` output byte for byte."""
    recording = RecordingNetwork(pnet)
    proposals = D.generate_proposals(frame, level, recording, threshold=0.6)
    image = D.bilinear_resize(frame, *level[1])
    prob, taps = pnet.forward(image, taps=("pnet.reg",))
    bands = recording.results
    assert np.concatenate([p for p, _ in bands], axis=2).tobytes() == prob.tobytes()
    assert np.concatenate([t["pnet.reg"] for _, t in bands],
                          axis=2).tobytes() == taps["pnet.reg"].tobytes()
    return proposals, recording.shapes


class TestBandedProposals:
    """pnet runs on bands of a level's grid rows, each band resized from
    the frame, and gives the whole level's bytes."""

    def test_every_level_of_a_1080p_frame(self, cascade):
        frame = D.frame_to_tensor(fixtures.synthetic_frame(3, 1920, 1080))
        levels = D.build_image_pyramid(frame, D.CascadeConfig())
        assert len(levels) == 12
        bands = [len(banded_level(frame, level, cascade.pnet)[1])
                 for level in levels]
        # Level 0, 1152x648, has 319 grid rows, each reading 27,648 more
        # bytes of level rows: 9 grid rows to a band.
        assert bands[0] == 319 // 9 and bands[-1] == 1, bands

    @pytest.mark.parametrize("h, w", [(12, 12), (13, 40), (12, 57), (27, 16),
                                      (41, 33), (64, 21)])
    def test_band_sizes_and_level_shapes(self, cascade, monkeypatch, h, w):
        """Levels with one grid row (heights 12 and 13), odd heights, and
        an up- and a downscale of the frame, at four budgets: one grid row
        per band, the largest budget that gives more than one band, the
        smallest that gives one, and the default. Every budget gives the
        same proposals."""
        frame = D.frame_to_tensor(fixtures.synthetic_frame(6, 48, 36))
        level = (0.75, (h, w))
        grid_rows = (h - 12) // 2 + 1
        row_bytes = 2 * w * 3 * 4
        split, whole = (row_bytes * (grid_rows // 2 + k) for k in (0, 1))
        want = None
        for budget in (1, split, whole, T._BLOCK_BYTES):
            monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
            proposals, shapes = banded_level(frame, level, cascade.pnet)
            if budget == 1:
                assert len(shapes) == grid_rows
            elif budget == split:
                assert (len(shapes) > 1) == (grid_rows > 1), shapes
            elif budget == whole:
                assert len(shapes) == 1
            # Each band reads its grid rows' level rows and no more.
            assert sum(shape[2] - 10 for shape in shapes) == 2 * grid_rows
            got = [array.tobytes() for array in proposals]
            want = want or got
            assert got == want

    def test_min_face_size_one_peak_memory_is_band_sized(self, cascade):
        """min_face_size=1 upscales a 64x48 frame to a 768x576 first level,
        whose whole-level forward peaked at 103-115 MiB; in bands the call
        peaked at 11.7-12.9 MiB over nine runs. The bound is the largest
        peak plus 50%."""
        frame = D.frame_to_tensor(fixtures.synthetic_frame(1, 64, 48))
        config = D.CascadeConfig(min_face_size=1)
        assert D.build_image_pyramid(frame, config)[0] == (12.0, (576, 768))
        tracemalloc.start()
        try:
            D.detect_faces(frame, cascade, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 12.9 * 2**20, peak / 2**20

    def test_detect_faces_equal_with_whole_levels(self, cascade, monkeypatch):
        """The golden frame's faces and funnel are the same with bands of
        one grid row, at the default budget, and with every level (and
        every crop batch) in one piece."""
        frame = D.frame_to_tensor(fixtures.synthetic_frame(0, 640, 360))
        config = D.CascadeConfig()
        results = {}
        for budget in (1, T._BLOCK_BYTES, 1 << 40):
            monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
            pnet = RecordingNetwork(cascade.pnet)
            networks = D.CascadeNetworks(pnet, cascade.rnet, cascade.onet)
            trace = {}
            results[budget] = (D.detect_faces(frame, networks, config,
                                              trace=trace), trace)
            if budget == 1 << 40:
                assert len(pnet.shapes) == trace["levels"] == 9
            else:
                assert len(pnet.shapes) > trace["levels"]
        _, (faces, trace) = results.popitem()
        assert faces and all(result == (faces, trace)
                             for result in results.values())


def crafted_onet(prob_bias=(-5.0, 5.0), landmark_bias=0.5):
    layers = D.build_onet_layers()
    overrides = {
        "onet.prob_fc.bias": np.array(prob_bias, np.float32),
        "onet.landmarks.bias": np.full(10, landmark_bias, np.float32),
    }
    return Network(layers, zero_archive_for(layers, overrides),
                   input_shape=(3, D.ONET_EXTENT, D.ONET_EXTENT))


def crafted_rnet(overrides=None):
    layers = D.build_rnet_layers()
    return Network(layers, zero_archive_for(layers, overrides),
                   input_shape=(3, D.RNET_EXTENT, D.RNET_EXTENT))


RNET_HEADS = ("rnet.reg",)
ONET_HEADS = ("onet.reg", "onet.landmarks")


class TestRefineStage:
    def test_empty_input(self, cascade):
        frame = np.zeros((1, 3, 64, 64), np.float32)
        refined, scores, landmarks = D.refine_stage(frame, boxes(), cascade.rnet,
                                                    0.5, RNET_HEADS)
        assert (refined.shape, scores.shape, landmarks) == ((0, 4), (0,), None)

    def test_empty_input_with_landmarks(self, cascade):
        frame = np.zeros((1, 3, 64, 64), np.float32)
        refined, scores, landmarks = D.refine_stage(frame, boxes(), cascade.onet,
                                                    0.5, ONET_HEADS)
        assert (refined.shape, scores.shape, landmarks.shape) == (
            (0, 4), (0,), (0, 5, 2))

    @pytest.mark.parametrize("stage", ["rnet", "onet"])
    def test_zero_row_forward(self, cascade, stage):
        network = getattr(cascade, stage)
        probs, tapped = network.forward(
            np.zeros((0,) + network.input_shape, np.float32),
            taps=(f"{stage}.reg",))
        assert probs.shape == (0, 2)
        assert tapped[f"{stage}.reg"].shape == (0, 4)

    @pytest.mark.parametrize("stage, region", [("rnet", 21), ("onet", 41)])
    def test_crops_only_the_region_its_heads_read(self, cascade, stage,
                                                  region):
        """The network gets the corner of each crop that its heads read."""
        network = getattr(cascade, stage)
        shapes = []

        class Recording:
            layers, input_shape = network.layers, network.input_shape

            def forward(self, x, taps=()):
                shapes.append(x.shape)
                return network.forward(x, taps=taps)

        frame = D.frame_to_tensor(fixtures.synthetic_frame(1, 64, 64))
        heads = RNET_HEADS if stage == "rnet" else ONET_HEADS
        D.refine_stage(frame, boxes((10, 10, 30, 30), (-5, 0, 40, 50)),
                       Recording(), 0.5, heads)
        assert shapes == [(2, 3, region, region)]

    @pytest.mark.parametrize("stage, heads", [("rnet", RNET_HEADS),
                                              ("onet", ONET_HEADS),
                                              ("rnet", ())])
    def test_forward_crops_equals_one_forward(self, cascade, stage, heads):
        """Crops sampled and forwarded unit by unit give the bytes of one
        forward over the whole batch of crops, taps included."""
        network = getattr(cascade, stage)
        extent = network.input_shape[-1]
        rng = np.random.default_rng(len(heads) + extent)
        frame = D.frame_to_tensor(fixtures.synthetic_frame(3, 160, 120))
        corner = rng.uniform(-20, 150, (230, 2))
        crop_boxes = np.hstack([corner, corner + rng.uniform(8, 60, (230, 2))])
        recording = RecordingNetwork(network)
        got = D.forward_crops(frame, crop_boxes, recording, extent, heads)
        count, _ = T.read_extent(network.layers, (extent, extent), heads)
        want = network.forward(
            D.crop_resize_batch(frame, crop_boxes, extent, count), taps=heads)
        assert len(recording.shapes) > 2
        assert {shape[1:] for shape in recording.shapes} == {(3, count, count)}
        if heads:
            (got, got_taps), (want, want_taps) = got, want
            assert {name: got_taps[name].tobytes() for name in heads} == {
                name: want_taps[name].tobytes() for name in heads}
        assert got.tobytes() == want.tobytes()

    def test_all_rejected_when_scores_low(self):
        rnet = crafted_rnet()  # every score 0.5
        frame = np.zeros((1, 3, 64, 64), np.float32)
        refined, _, _ = D.refine_stage(frame, boxes((10, 10, 30, 30)), rnet,
                                       threshold=0.7, heads=RNET_HEADS)
        assert len(refined) == 0

    def test_landmark_coordinate_mapping(self):
        onet = crafted_onet()
        frame = np.zeros((1, 3, 64, 64), np.float32)
        refined, _, landmarks = D.refine_stage(frame, boxes((10, 10, 30, 30)),
                                               onet, 0.5, ONET_HEADS)
        assert len(refined) == 1
        assert landmarks.shape == (1, 5, 2)
        for x, y in landmarks[0].tolist():
            assert (x, y) == (20.0, 20.0)

    def test_rnet_output_carries_no_landmarks(self):
        rnet = crafted_rnet({"rnet.prob_fc.bias": [-5.0, 5.0]})
        frame = np.zeros((1, 3, 64, 64), np.float32)
        refined, _, landmarks = D.refine_stage(frame, boxes((0, 0, 48, 48)),
                                               rnet, 0.5, RNET_HEADS)
        assert len(refined) == 1
        assert landmarks is None


class TestDetectFaces:
    def test_zero_networks_give_empty_result(self):
        archive = WeightArchive()
        for name, shape in D.cascade_parameter_shapes():
            archive.put(name, np.zeros(shape, np.float32))
        nets = D.CascadeNetworks.from_archive(archive)
        frame = np.zeros((1, 3, 80, 80), np.float32)
        assert D.detect_faces(frame, nets, D.CascadeConfig()) == []

    def test_boxes_clamped_with_positive_area(self, cascade):
        frame = D.frame_to_tensor(fixtures.synthetic_frame(0, 320, 240))
        faces = D.detect_faces(frame, cascade, D.CascadeConfig())
        for face in faces:
            assert 0 <= face.box.x1 < face.box.x2 <= 320
            assert 0 <= face.box.y1 < face.box.y2 <= 240
            assert face.score <= 1.0
            assert face.landmarks is not None

    def test_ordering_and_determinism(self, cascade):
        frame = D.frame_to_tensor(fixtures.synthetic_frame(1, 320, 240))
        first = D.detect_faces(frame, cascade, D.CascadeConfig())
        second = D.detect_faces(frame, cascade, D.CascadeConfig())
        assert first == second
        scores = [f.score for f in first]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("bias", ["pnet.reg.bias", "rnet.reg.bias",
                                      "pnet.prob_conv.bias", "rnet.prob_fc.bias",
                                      "onet.prob_fc.bias"])
    def test_non_finite_regression_raises(self, bias):
        archive = fixtures.fixture_cascade_archive()
        archive.get(bias)[...] = np.nan
        nets = D.CascadeNetworks.from_archive(archive)
        frame = D.frame_to_tensor(fixtures.synthetic_frame(0, 320, 240))
        with pytest.raises(ValueError, match="finite"):
            D.detect_faces(frame, nets, D.CascadeConfig())

    def test_trace_counts_are_consistent(self, cascade):
        frame = D.frame_to_tensor(fixtures.synthetic_frame(2, 320, 240))
        trace = {}
        faces = D.detect_faces(frame, cascade, D.CascadeConfig(), trace=trace)
        assert trace["final"] == len(faces)
        assert trace["levels"] > 0
        assert trace["proposals"] >= trace["stage1"] >= trace["stage2"] >= 0
