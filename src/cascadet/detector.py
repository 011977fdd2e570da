"""Three-stage cascaded face detector.

An image pyramid feeds a fully convolutional proposal network whose output
grid cells map to 12x12 windows at stride 2 in scaled coordinates. Two
refinement networks (24x24 and 48x48 crops) then re-score, regress and
finally localize five facial landmarks, with greedy non-maximum suppression
between every stage. Candidates move between stages as (N, 4) float64
(x1, y1, x2, y2) frame-pixel box arrays with parallel score, offset and
landmark arrays; only returned faces become :class:`FaceCandidate` objects.
:func:`iou` compares two such box arrays pairwise.

No per-frame array grows with a whole pyramid level or a whole batch of
crops. The pyramid is a plan of level extents; pnet runs on bands of a
level's output rows, each resizing only the level rows it reads straight
from the frame. A refinement stage (and the classifier, through
:func:`forward_crops`) samples and forwards its crops one
:func:`row_chunks` unit at a time from one zero-bordered table of the
frame. Every output is byte-identical to a whole-level, whole-batch run:
each matrix product row is batch-invariant, pooling and element-wise
layers work per position, and a band starts on an even level row, so 2x2
pooling keeps its alignment.

Pixel tensors entering the cascade are normalized as (v - 127.5) / 128;
:func:`frame_to_tensor` applies the convention.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .tensor import (Network, Tensor, conv_layer, dense_layer, prelu_layer,
                     LayerSpec, parallel_map, parameter_shapes, read_extent,
                     row_chunks)

log = logging.getLogger(__name__)

PNET_EXTENT = 12
PNET_STRIDE = 2
RNET_EXTENT = 24
ONET_EXTENT = 48


class BoundingBox(NamedTuple):
    """Frame-pixel box (origin top-left) as :func:`detect_faces` returns it."""
    x1: float
    y1: float
    x2: float
    y2: float


@dataclass(frozen=True)
class FaceCandidate:
    """A returned face; ``landmarks`` holds five (x, y) frame-pixel points
    (eyes, nose, mouth corners)."""
    box: BoundingBox
    score: float
    landmarks: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class CascadeConfig:
    """Tunables the cascade depends on; defaults follow common practice."""
    min_face_size: int = 20
    pyramid_factor: float = 0.709
    threshold_pnet: float = 0.6
    threshold_rnet: float = 0.7
    threshold_onet: float = 0.7
    nms_pyramid: float = 0.5    # within one pyramid level, union mode
    nms_stage1: float = 0.7     # across levels, union mode
    nms_stage2: float = 0.7     # after refinement, union mode
    nms_stage3: float = 0.7     # after landmarks, min mode

    def __post_init__(self):
        if self.min_face_size < 1:
            raise ValueError(
                f"min_face_size must be at least 1, got {self.min_face_size}")
        if not 0 < self.pyramid_factor < 1:
            raise ValueError(
                f"pyramid_factor must be in (0, 1), got {self.pyramid_factor}")
        for name in ("threshold_pnet", "threshold_rnet", "threshold_onet",
                     "nms_pyramid", "nms_stage1", "nms_stage2", "nms_stage3"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must be in (0, 1), got {value}")


def frame_to_tensor(pixels: np.ndarray) -> Tensor:
    """HxWx3 uint8 RGB -> normalized (1, 3, H, W) float32 tensor, a view of
    channels-last memory."""
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected HxWx3 pixels, got shape {arr.shape}")
    arr = (arr.astype(np.float32) - 127.5) / 128.0
    return arr.transpose(2, 0, 1)[None]


def bilinear_resize(image: Tensor, out_h: int, out_w: int,
                    rows: slice = slice(None)) -> Tensor:
    """Bilinear resample of an (N, C, H, W) tensor to out_h x out_w, edges
    clamped, or only its output rows ``rows``, each pixel with the bits it
    has in the whole resample; the result is a view of channels-last
    memory."""
    n, c, h, w = image.shape
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output extents must be positive, got {out_h}x{out_w}")
    src_y = (np.arange(out_h, dtype=np.float64)[rows] + 0.5) * (h / out_h) - 0.5
    src_x = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    src_y = np.clip(src_y, 0.0, h - 1.0)
    src_x = np.clip(src_x, 0.0, w - 1.0)
    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (src_y - y0).astype(np.float32)[:, None, None]
    fx = (src_x - x0).astype(np.float32)[:, None]

    # Gathers with take() come back C-ordered: (N, outH, outW, C) memory.
    pixels = image.transpose(0, 2, 3, 1)
    rows0 = pixels.take(y0, axis=1)
    rows1 = pixels.take(y1, axis=1)
    top = rows0.take(x0, axis=2) * (1 - fx) + rows0.take(x1, axis=2) * fx
    bottom = rows1.take(x0, axis=2) * (1 - fx) + rows1.take(x1, axis=2) * fx
    out = top * (1 - fy) + bottom * fy
    return out.astype(np.float32, copy=False).transpose(0, 3, 1, 2)


def build_image_pyramid(frame: Tensor, config: CascadeConfig
                        ) -> list[tuple[float, tuple[int, int]]]:
    """Plan of a geometric pyramid: one ``(scale, (h, w))`` per level,
    scales (12/min_face) * factor^k. The first level exists whenever
    min(H, W) >= min_face; each later one keeps min(H, W) * scale >= 12.
    Extents round up. No level is resized here: :func:`generate_proposals`
    resizes each level band by band."""
    _, _, h, w = frame.shape
    if min(h, w) < config.min_face_size:
        log.warning("frame %dx%d smaller than min face size %d; empty pyramid",
                    w, h, config.min_face_size)
        return []
    levels = []
    scale = PNET_EXTENT / config.min_face_size
    # The first level is admitted and sized in integers: when min(H, W)
    # equals min_face, the float product side * scale can round just below
    # 12, or just above it, which would give a 13-pixel level.
    extents = (-(-h * PNET_EXTENT // config.min_face_size),
               -(-w * PNET_EXTENT // config.min_face_size))
    while not levels or min(h, w) * scale >= PNET_EXTENT:
        levels.append((scale, extents))
        scale *= config.pyramid_factor
        extents = (int(np.ceil(h * scale)), int(np.ceil(w * scale)))
    return levels


def build_pnet_layers() -> list[LayerSpec]:
    """Fully convolutional proposal network (12x12 receptive field).

    Output heads: ``pnet.prob`` is the 2-channel [not-face, face] softmax
    map and ``pnet.reg`` the 4-channel offset map; the effective window
    stride is 2 (one 2x2 stride-2 pool).
    """
    return [
        conv_layer("pnet.conv1", 3, 10, 3),
        prelu_layer("pnet.prelu1", 10),
        LayerSpec(kind="max-pool", name="pnet.pool1", kernel=2, stride=2),
        conv_layer("pnet.conv2", 10, 16, 3),
        prelu_layer("pnet.prelu2", 16),
        conv_layer("pnet.conv3", 16, 32, 3),
        prelu_layer("pnet.prelu3", 32),
        conv_layer("pnet.reg", 32, 4, 1, feeds_from="pnet.prelu3"),
        conv_layer("pnet.prob_conv", 32, 2, 1, feeds_from="pnet.prelu3"),
        LayerSpec(kind="softmax", name="pnet.prob"),
    ]


def build_rnet_layers() -> list[LayerSpec]:
    """Refinement network on 24x24 crops; heads ``rnet.prob``/``rnet.reg``."""
    return [
        conv_layer("rnet.conv1", 3, 28, 3),
        prelu_layer("rnet.prelu1", 28),
        LayerSpec(kind="max-pool", name="rnet.pool1", kernel=3, stride=2),
        conv_layer("rnet.conv2", 28, 48, 3),
        prelu_layer("rnet.prelu2", 48),
        LayerSpec(kind="max-pool", name="rnet.pool2", kernel=3, stride=2),
        conv_layer("rnet.conv3", 48, 64, 2),
        prelu_layer("rnet.prelu3", 64),
        dense_layer("rnet.fc", 64 * 2 * 2, 128),
        prelu_layer("rnet.prelu4", 128),
        dense_layer("rnet.reg", 128, 4, feeds_from="rnet.prelu4"),
        dense_layer("rnet.prob_fc", 128, 2, feeds_from="rnet.prelu4"),
        LayerSpec(kind="softmax", name="rnet.prob"),
    ]


def build_onet_layers() -> list[LayerSpec]:
    """Output network on 48x48 crops; heads prob/reg plus ``onet.landmarks``
    (10 values: five x coordinates then five y, normalized to the crop)."""
    return [
        conv_layer("onet.conv1", 3, 32, 3),
        prelu_layer("onet.prelu1", 32),
        LayerSpec(kind="max-pool", name="onet.pool1", kernel=3, stride=2),
        conv_layer("onet.conv2", 32, 64, 3),
        prelu_layer("onet.prelu2", 64),
        LayerSpec(kind="max-pool", name="onet.pool2", kernel=3, stride=2),
        conv_layer("onet.conv3", 64, 64, 3),
        prelu_layer("onet.prelu3", 64),
        LayerSpec(kind="max-pool", name="onet.pool3", kernel=2, stride=2),
        conv_layer("onet.conv4", 64, 128, 2),
        prelu_layer("onet.prelu4", 128),
        dense_layer("onet.fc", 128 * 2 * 2, 256),
        prelu_layer("onet.prelu5", 256),
        dense_layer("onet.reg", 256, 4, feeds_from="onet.prelu5"),
        dense_layer("onet.landmarks", 256, 10, feeds_from="onet.prelu5"),
        dense_layer("onet.prob_fc", 256, 2, feeds_from="onet.prelu5"),
        LayerSpec(kind="softmax", name="onet.prob"),
    ]


def cascade_parameter_shapes() -> list[tuple[str, tuple[int, ...]]]:
    shapes = []
    for layers in (build_pnet_layers(), build_rnet_layers(), build_onet_layers()):
        shapes.extend(parameter_shapes(layers))
    return shapes


@dataclass(frozen=True)
class CascadeNetworks:
    pnet: Network
    rnet: Network
    onet: Network

    @classmethod
    def from_archive(cls, archive) -> "CascadeNetworks":
        return cls(pnet=Network(build_pnet_layers(), archive),
                   rnet=Network(build_rnet_layers(), archive,
                                input_shape=(3, RNET_EXTENT, RNET_EXTENT)),
                   onet=Network(build_onet_layers(), archive,
                                input_shape=(3, ONET_EXTENT, ONET_EXTENT)))


def generate_proposals(frame: Tensor, level: tuple[float, tuple[int, int]],
                       pnet: Network, threshold: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates from one pyramid level, ``(scale, (h, w))`` as
    :func:`build_image_pyramid` plans it, in row-major grid order.

    Grid cell (r, c) corresponds to the 12x12 window at (2c, 2r) in scaled
    coordinates; boxes are mapped back to frame pixels by dividing by
    ``scale``. pnet runs, in order, on :func:`row_chunks` bands of the
    grid's rows, sized by the two level rows each further grid row reads:
    band ``[a, b)`` resizes only level rows ``[2a, 2b + 10)`` from
    ``frame``. Returns ``(boxes, scores, offsets)``, the offsets (N, 4).
    Raises ValueError if any grid cell's face score is non-finite.
    """
    scale, (h, w) = level
    grid_rows = (h - PNET_EXTENT) // PNET_STRIDE + 1
    found = []
    for band in row_chunks(grid_rows, PNET_STRIDE * w * frame.shape[1] * 4):
        first, last = band.start, band.stop - 1
        image = bilinear_resize(frame, h, w, slice(
            PNET_STRIDE * first, PNET_STRIDE * last + PNET_EXTENT))
        prob_map, taps = pnet.forward(image, taps=("pnet.reg",))
        face_prob = prob_map[0, 1]
        if not np.isfinite(face_prob).all():
            raise ValueError("face scores must be finite")
        rows, cols = np.nonzero(face_prob >= threshold)
        found.append((first + rows, cols,
                      face_prob[rows, cols].astype(np.float64),
                      taps["pnet.reg"][0][:, rows, cols].T.astype(np.float64)))
    rows, cols, scores, offsets = map(np.concatenate, zip(*found))
    x, y = PNET_STRIDE * cols, PNET_STRIDE * rows
    inv = 1.0 / scale
    boxes = np.stack([x, y, x + PNET_EXTENT, y + PNET_EXTENT], axis=1) * inv
    return boxes, scores, offsets


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of every box in ``a`` (..., N, 4) with every
    box in ``b`` (..., M, 4), as a (..., N, M) float64 array; 0 for disjoint
    pairs. Leading axes broadcast, and each cell is the same expression
    whatever the rank, so a stack of matrices has each matrix's bytes."""
    a, b = a[..., :, None, :], b[..., None, :, :]
    overlap = np.maximum(0.0, np.minimum(a[..., 2:], b[..., 2:])
                         - np.maximum(a[..., :2], b[..., :2]))
    inter = overlap[..., 0] * overlap[..., 1]
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return np.divide(inter, area_a + area_b - inter,
                     out=np.zeros(inter.shape), where=inter > 0.0)


def nms(boxes: np.ndarray, scores: np.ndarray, threshold: float,
        mode: str = "union") -> np.ndarray:
    """Greedy suppression: keep the best-scoring box, drop everything
    overlapping it by more than ``threshold``, repeat.

    ``mode`` selects the overlap measure: IoU ("union") or intersection over
    the smaller area ("min"). Ties in score keep the lower original index.
    Returns the indices of the survivors in descending score order.
    Raises ValueError unless ``boxes`` is ``(len(scores), 4)``.

    Only pairs that can suppress each other are scored: a box of positive,
    finite extent meets only the boxes whose x and y intervals overlap its
    own (in union mode, by enough to exceed the threshold), and any other
    box meets every box (see :func:`_candidate_pairs`). Each pair is scored
    with the greedy loop's expressions, the higher-ranked box first, and a
    NaN overlap suppresses; so the indices, their order and dtype equal
    those of the loop that scores each kept box against every remaining
    box, on every input.
    """
    if mode not in ("union", "min"):
        raise ValueError(f"unknown NMS mode {mode!r}")
    if not 0 < threshold < 1:
        raise ValueError(f"NMS threshold must be in (0, 1), got {threshold}")
    if scores.ndim != 1 or boxes.shape != (len(scores), 4):
        raise ValueError(f"expected boxes of shape (len(scores), 4), got "
                         f"boxes {boxes.shape} and scores {scores.shape}")
    # Work on ranks: descending score, ties by the lower original index.
    order = np.lexsort((np.arange(len(scores)), -scores))
    ranked = boxes[order]
    x1, y1, x2, y2 = ranked.T
    areas = (x2 - x1) * (y2 - y1)
    reach = 0.0
    if mode == "union" and boxes.dtype == np.float64:
        reach = max(0.0, 0.98 * threshold / (1 + threshold) - 2.0**-40)
    hitters, targets = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for a, b in _candidate_pairs(ranked, areas, reach):
        i, j = np.minimum(a, b), np.maximum(a, b)
        ix = np.maximum(0.0, np.minimum(x2[i], x2[j]) - np.maximum(x1[i], x1[j]))
        iy = np.maximum(0.0, np.minimum(y2[i], y2[j]) - np.maximum(y1[i], y1[j]))
        inter = ix * iy
        if mode == "union":
            overlap = inter / (areas[i] + areas[j] - inter)
        else:
            overlap = inter / np.minimum(areas[i], areas[j])
        hit = ~(overlap <= threshold)
        hitters.append(i[hit])
        targets.append(j[hit])
    # One pass in rank order: a box that is not dropped drops its targets.
    hitters, targets = np.concatenate(hitters), np.concatenate(targets)
    by_hitter = np.argsort(hitters, kind="stable")
    hitters, targets = hitters[by_hitter], targets[by_hitter].tolist()
    starts = np.flatnonzero(np.diff(hitters, prepend=-1))
    dropped = bytearray(len(order))
    for i, start, stop in zip(hitters[starts].tolist(), starts.tolist(),
                              [*starts[1:].tolist(), len(targets)]):
        if not dropped[i]:
            for j in targets[start:stop]:
                dropped[j] = 1
    return order[np.frombuffer(dropped, np.uint8) == 0]


_BAND = 256  # regular boxes per band; a pair of bands is one block of pairs
_MIN_SIDE = np.float64(2.0**-500)


def _candidate_pairs(boxes: np.ndarray, areas: np.ndarray, reach: float):
    """Yield blocks ``(a, b)`` of index pairs into ``boxes`` that include
    every pair whose overlap, as :func:`nms` computes it, can exceed its
    threshold or be NaN.

    A box is regular when its width and height are at least 2**-500 and
    its area is finite, which makes its corners finite; every other box is
    paired with all boxes. Regular boxes are cut into bands of ``_BAND`` in
    y1 order and each band is sorted by x1. Along each axis a box gets a
    limit, ``far - reach * (side + least) + 2**-40 * (|far| + side +
    least)``, from its far edge (x2 or y2), its side (width or height) and
    the least regular side: box i pairs with a box j that starts no earlier
    along x only when j's x1 lies below i's x limit, a band with a later
    band only while that band's least y1 lies below its greatest y limit,
    and a pair is kept when its ``iy`` exceeds ``reach * (h_i + h_j)``.

    ``reach`` is 0, or 0.98 t / (1 + t) less 2**-40 for float64 boxes in
    union mode at threshold t. An IoU above t needs ``inter > t / (1 + t)
    * (a_i + a_j)``; as ``inter <= ix * min(h_i, h_j)`` and ``a_i + a_j >=
    (w_i + w_j) * min(h_i, h_j)``, that needs ``ix > t / (1 + t) * (w_i +
    w_j)``, and likewise ``iy`` along y, where ``ix`` is at most i's x2
    less j's x1. The 2% and 2**-40 margins and the least side of 2**-500
    cover every float64 rounding of these expressions. With ``reach`` 0 a
    kept pair's intervals meet, which a regular pair needs for a nonzero
    intersection and so for any overlap above 0.
    """
    x1, y1, x2, y2 = boxes.T
    width, height = x2 - x1, y2 - y1
    regular = ((width >= _MIN_SIDE) & (height >= _MIN_SIDE)
               & (areas > 0) & (areas < np.inf))
    by_y = np.flatnonzero(regular)
    by_y = by_y[np.argsort(y1[by_y], kind="stable")]
    x_limit = np.empty(len(areas))
    x_limit[by_y] = _limit(x2[by_y], width[by_y], reach)
    y_limit = _limit(y2[by_y], height[by_y], reach)
    bands = [by_y[k:k + _BAND] for k in range(0, len(by_y), _BAND)]
    tops = [y1[band[0]] for band in bands]
    bottoms = [y_limit[k:k + _BAND].max() for k in range(0, len(by_y), _BAND)]
    bands = [band[np.argsort(x1[band], kind="stable")] for band in bands]
    for s, band in enumerate(bands):
        left = x1[band]
        spans = [_spans(band, band, np.arange(1, len(band) + 1),
                        np.searchsorted(left, x_limit[band]))]
        for t in range(s + 1, len(bands)):
            if tops[t] >= bottoms[s]:
                break
            other = bands[t]
            other_left = x1[other]
            spans.append(_spans(band, other, np.searchsorted(other_left, left),
                                np.searchsorted(other_left, x_limit[band])))
            spans.append(_spans(other, band,
                                np.searchsorted(left, other_left, "right"),
                                np.searchsorted(left, x_limit[other])))
        for a, b in spans:
            iy = np.maximum(0.0, np.minimum(y2[a], y2[b]) - np.maximum(y1[a], y1[b]))
            meet = iy > reach * (height[a] + height[b])
            yield a[meet], b[meet]
    everyone = np.arange(len(areas))
    for i in np.flatnonzero(~regular):
        yield np.full(len(everyone) - 1, i), np.delete(everyone, i)


def _limit(far: np.ndarray, side: np.ndarray, reach: float) -> np.ndarray:
    """Per box, the start below which a partner must begin along one axis
    (see :func:`_candidate_pairs`)."""
    span = side + side.min(initial=np.inf)
    return far - reach * span + 2.0**-40 * (np.abs(far) + span)


def _spans(rows: np.ndarray, cols: np.ndarray, starts: np.ndarray,
           stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(rows[k], cols[c])`` for every k and ``starts[k] <= c <
    stops[k]``."""
    counts = stops - starts
    first = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return np.repeat(rows, counts), cols[first + np.arange(len(first))]


def _positive_area(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])


def calibrate(boxes: np.ndarray,
              offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift box corners by width/height-scaled offsets.

    Returns the shifted boxes and a keep mask, False (discard signal) where
    a box collapsed. Raises ValueError on any non-finite coordinate.
    """
    shifted = boxes + offsets * np.tile(boxes[:, 2:] - boxes[:, :2], 2)
    if not np.isfinite(shifted).all():
        raise ValueError("bounding box coordinates must be finite")
    return shifted, _positive_area(shifted)


def square_pad(boxes: np.ndarray) -> np.ndarray:
    """Smallest squares with the same centers and side max(width, height)."""
    size = boxes[:, 2:] - boxes[:, :2]
    half = (np.maximum(size[:, 0], size[:, 1]) / 2.0)[:, None]
    center = (boxes[:, :2] + boxes[:, 2:]) / 2.0
    return np.hstack([center - half, center + half])


def crop_resize_batch(frame: Tensor, boxes: np.ndarray, out_extent: int,
                      count: int | None = None) -> Tensor:
    """Bilinearly sample each box region of the frame into an E x E crop,
    or only its top-left ``count`` x ``count`` samples.

    Returns a (len(boxes), C, count, count) batch (count defaults to E), a
    view of channels-last memory. The sample points are those of the E x E
    grid, one box side / E apart, so a cut crop's bytes are the full crop's
    ``[:, :, :count, :count]``. Sample points outside the frame contribute
    zero, so boxes hanging past the edges come back zero-padded. The crops
    are filled in :func:`row_chunks` blocks, side by side through
    :func:`parallel_map`; each crop's bits depend only on its own box, not
    on the block size or the rest of the batch.
    """
    sample = _crop_sampler(frame, out_extent, count)
    e, c = out_extent if count is None else count, frame.shape[1]
    out = np.empty((len(boxes), e, e * c), np.float32)
    parallel_map(lambda b: sample(boxes[b], out[b]),
                 row_chunks(len(out), out[:1].nbytes))
    return out.reshape(-1, e, e, c).transpose(0, 3, 1, 2)


def _crop_sampler(frame: Tensor, out_extent: int, count: int | None = None
                  ) -> Callable[..., Tensor]:
    """``sample(boxes, out=None)``: the crops :func:`crop_resize_batch`
    makes of ``boxes``, written to ``out`` ((N, count, count*C) float32)
    when given. The frame's zero-bordered copy is made here, once for every
    call of ``sample``; each call works out only its own boxes' sample
    points, so its arrays grow with its boxes, not with all of them."""
    if out_extent < 1:
        raise ValueError(f"out_extent must be positive, got {out_extent}")
    e = out_extent if count is None else count
    _, c, h, w = frame.shape
    grid = np.arange(e, dtype=np.float64) + 0.5
    # Pixel (y, x) is row (y + 1) * (W + 2) + x + 1 of the zero-bordered
    # (H+2)*(W+2) x C table; every sample outside the frame clips onto the
    # border. Each gathered pixel is then one take of C adjacent values.
    table = np.pad(frame[0].transpose(1, 2, 0),
                   ((1, 1), (1, 1), (0, 0))).reshape(-1, c)
    last = np.array([[w], [h]])  # x of the right border, y of the bottom

    def gather(row: np.ndarray, col: np.ndarray) -> Tensor:
        """Pixels at (row[n, i], col[n, j]) -> (N, e, e*C)."""
        rows = table.take(row[:, :, None] + col[:, None, :], axis=0)
        return rows.reshape(len(rows), e, e * c)

    def sample(boxes: np.ndarray, out: np.ndarray | None = None) -> Tensor:
        origin = boxes[:, :2, None]
        src = origin + grid * ((boxes[:, 2:, None] - origin) / out_extent) - 0.5
        lo = np.floor(src)  # (N, 2, e): x, then y
        fx, fy = (src - lo).astype(np.float32).transpose(1, 0, 2)
        lo = lo.astype(np.int64)
        (col0, row0), (col1, row1) = (
            (np.clip(i, -1, last) + 1).transpose(1, 0, 2) for i in (lo, lo + 1))
        row0, row1 = row0 * (w + 2), row1 * (w + 2)
        # Each crop row is e*C floats: the x-weights repeat over the
        # channels, so every product below runs one e*C-long inner loop.
        wx0, wx1 = (np.repeat(v, c, axis=1)[:, None, :] for v in (1 - fx, fx))
        wy0, wy1 = (1 - fy)[:, :, None], fy[:, :, None]
        top = gather(row0, col0) * wx0 + gather(row0, col1) * wx1
        bottom = gather(row1, col0) * wx0 + gather(row1, col1) * wx1
        out = np.add(top * wy0, bottom * wy1, out=out)
        return out.reshape(-1, e, e, c).transpose(0, 3, 1, 2)

    return sample


def forward_crops(frame: Tensor, boxes: np.ndarray, network: Network,
                  extent: int, taps: tuple[str, ...] = ()):
    """``network.forward`` on the ``extent`` x ``extent`` crops of
    ``boxes``, returned as one forward over all of the crops returns it.

    Only the region of each crop that the output and ``taps`` read
    (:func:`read_extent` of ``network.layers``) is sampled. The boxes are
    split into :func:`row_chunks` units by that region's bytes, and each
    unit, side by side through :func:`parallel_map`, samples its own crops
    from one zero-bordered copy of the frame and runs its own forward, so
    the whole batch of crops never exists.
    """
    count, _ = read_extent(network.layers, (extent, extent), taps)
    sample = _crop_sampler(frame, extent, count)

    def unit(chunk: slice) -> list[Tensor]:
        if not taps:
            return [network.forward(sample(boxes[chunk]))]
        out, tapped = network.forward(sample(boxes[chunk]), taps=taps)
        return [out, *(tapped[name] for name in taps)]

    parts = parallel_map(unit, row_chunks(
        len(boxes), frame.shape[1] * count * count * 4))
    current, *tapped = map(np.concatenate, zip(*parts))
    return (current, dict(zip(taps, tapped))) if taps else current


def refine_stage(frame: Tensor, boxes: np.ndarray, network: Network,
                 threshold: float, heads: tuple[str, ...]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Re-score boxes on square crops; keep, calibrate and annotate.

    Each box is square-padded, cropped to the region of the network's
    declared input that its output and ``heads`` read (21x21 of rnet's
    24x24, 41x41 of onet's 48x48) and scored through
    :func:`forward_crops`; survivors (score >= threshold) get their box
    recalibrated by the offsets of ``heads[0]``, the regression head.
    Returns ``(boxes, scores, landmarks)``: landmarks are None unless
    ``heads[1]`` names a landmark head, else (N, 5, 2) frame points mapped
    from crop-normalized coordinates by the pre-calibration square.
    Raises ValueError on any non-finite score.
    """
    squares = square_pad(boxes)
    probs, tapped = forward_crops(frame, squares, network,
                                  network.input_shape[-1], heads)
    scores = probs[:, 1].astype(np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("face scores must be finite")
    passed = scores >= threshold
    squares, scores = squares[passed], scores[passed]
    refined, keep = calibrate(squares, tapped[heads[0]][passed].astype(np.float64))
    if len(heads) == 1:
        return refined[keep], scores[keep], None
    # Five x coordinates then five y -> (N, 5, 2) (x, y) points.
    points = tapped[heads[1]][passed].reshape(-1, 2, 5).transpose(0, 2, 1)
    corner = squares[:, None, :2]
    landmarks = corner + points * (squares[:, None, 2:] - corner)
    return refined[keep], scores[keep], landmarks[keep]


def detect_faces(frame: Tensor, networks: CascadeNetworks,
                 config: CascadeConfig, timings: dict | None = None,
                 trace: dict | None = None) -> list[FaceCandidate]:
    """Full cascade on one normalized frame tensor.

    Pipeline: pyramid -> proposals with per-level then cross-level NMS and
    calibration -> 24x24 refinement + NMS -> 48x48 refinement with landmarks
    + min-mode NMS -> clamp to frame. Faces come in descending score order,
    ties by index, as the last NMS leaves them. Pyramid levels, each with
    its bands and per-level NMS, run side by side through
    :func:`parallel_map`.

    When ``timings`` is given, per-stage wall-clock seconds are accumulated
    into it under keys pyramid/stage1/stage2/stage3: ``pyramid`` plans the
    levels, and ``stage1`` resizes them as pnet reads them. When ``trace``
    is given, per-stage candidate counts are recorded in it.
    """
    def tick(stage: str, since: float) -> float:
        now = time.perf_counter()
        if timings is not None:
            timings[stage] = timings.get(stage, 0.0) + (now - since)
        return now

    _, _, height, width = frame.shape
    t = time.perf_counter()
    pyramid = build_image_pyramid(frame, config)
    t = tick("pyramid", t)

    def propose(level: tuple[float, tuple[int, int]]):
        """One level's proposal count and its per-level NMS survivors."""
        boxes, scores, offsets = generate_proposals(frame, level, networks.pnet,
                                                    config.threshold_pnet)
        keep = nms(boxes, scores, config.nms_pyramid, "union")
        return len(scores), (boxes[keep], scores[keep], offsets[keep])

    proposed = parallel_map(propose, pyramid)
    counts = {"levels": len(pyramid),
              "proposals": sum(count for count, _ in proposed)}
    survivors = [(np.zeros((0, 4)), np.zeros(0), np.zeros((0, 4))),
                 *(kept for _, kept in proposed)]
    boxes, scores, offsets = (np.concatenate(part) for part in zip(*survivors))
    keep = nms(boxes, scores, config.nms_stage1, "union")
    boxes, ok = calibrate(boxes[keep], offsets[keep])
    boxes = boxes[ok]
    counts["stage1"] = len(boxes)
    t = tick("stage1", t)

    boxes, scores, _ = refine_stage(frame, boxes, networks.rnet,
                                    config.threshold_rnet, ("rnet.reg",))
    boxes = boxes[nms(boxes, scores, config.nms_stage2, "union")]
    counts["stage2"] = len(boxes)
    t = tick("stage2", t)

    boxes, scores, landmarks = refine_stage(
        frame, boxes, networks.onet, config.threshold_onet,
        ("onet.reg", "onet.landmarks"))
    keep = nms(boxes, scores, config.nms_stage3, "min")
    boxes, scores, landmarks = boxes[keep], scores[keep], landmarks[keep]
    counts["stage3"] = len(boxes)
    tick("stage3", t)

    boxes = np.minimum(np.maximum(boxes, 0.0), [width, height, width, height])
    ok = _positive_area(boxes)
    if trace is not None:
        trace.update(counts, final=int(ok.sum()))
    return [FaceCandidate(box=BoundingBox(*box), score=score,
                          landmarks=tuple(map(tuple, points)))
            for box, score, points in zip(boxes[ok].tolist(), scores[ok].tolist(),
                                          landmarks[ok].tolist())]
