"""Frame-sequence pipeline: read PPM frames, detect, classify, annotate.

Frames arrive as a manifest (one PPM path per line) rather than container
video; extraction from a video file is a one-liner with any external tool
(e.g. ``ffmpeg -i clip.mp4 frames/%04d.ppm``). Frames are processed by a
bounded worker pool over immutable shared networks; each frame's outputs are
written in frame-index order as soon as that frame finishes, so results are
byte-identical regardless of worker count. At most ``2 * workers`` frames
are submitted and not yet written, so memory does not grow with the manifest.
"""

from __future__ import annotations

import json
import logging
import math
import re
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import font
from .classifier import BackboneSpec, MaskLabel, build_classifier, classify_all
from .detector import (CascadeConfig, CascadeNetworks, detect_faces,
                       frame_to_tensor)
from .tensor import Network
from .weights import load as load_archive

GREEN = (0, 255, 0)
RED = (255, 0, 0)
OUTLINE_THICKNESS = 2
LABEL_GAP = 2

log = logging.getLogger(__name__)


class FrameReadError(Exception):
    """A manifest entry could not be turned into a frame."""


class ConfigError(Exception):
    """The run configuration file is malformed."""


@dataclass(frozen=True)
class Frame:
    index: int
    width: int
    height: int
    pixels: np.ndarray  # (height, width, 3) uint8 RGB
    source: str = ""

    def __post_init__(self):
        if self.pixels.shape != (self.height, self.width, 3):
            raise ValueError(
                f"frame {self.index}: pixel block {self.pixels.shape} does not "
                f"match {self.height}x{self.width}x3")


def check_json_types(obj: dict, integers: tuple[str, ...],
                     numbers: tuple[str, ...]) -> None:
    """Raise TypeError unless each ``integers`` field of a parsed JSON object
    is a JSON integer and each ``numbers`` field a JSON number (true and
    false are neither)."""
    for key in integers:
        if type(obj[key]) is not int:
            raise TypeError(f"{key} must be an integer, got {obj[key]!r}")
    for key in numbers:
        if type(obj[key]) not in (int, float):
            raise TypeError(f"{key} must be a number, got {obj[key]!r}")


# Integers up to 2**53 are exact as floats, and an area of corners within
# this range stays below 2**108, so IoU arithmetic cannot overflow.
CORNER_LIMIT = 2 ** 53


def check_box(x1, y1, x2, y2) -> None:
    """Raise ValueError unless -2**53 <= x1 < x2 <= 2**53 and likewise for y
    (NaN, infinities and larger integers are out of range)."""
    if not (-CORNER_LIMIT <= x1 < x2 <= CORNER_LIMIT
            and -CORNER_LIMIT <= y1 < y2 <= CORNER_LIMIT):
        if all(-CORNER_LIMIT <= c <= CORNER_LIMIT for c in (x1, y1, x2, y2)):
            raise ValueError(f"degenerate box ({x1}, {y1}, {x2}, {y2})")
        raise ValueError("bounding box coordinates must be finite and within "
                         "[-2**53, 2**53]")


@dataclass(frozen=True)
class Detection:
    frame_index: int
    x1: int
    y1: int
    x2: int
    y2: int
    label: MaskLabel
    confidence: float
    face_score: float

    def __post_init__(self):
        check_box(self.x1, self.y1, self.x2, self.y2)

    def to_json(self) -> str:
        return json.dumps({
            "frame": self.frame_index,
            "x1": self.x1, "y1": self.y1, "x2": self.x2, "y2": self.y2,
            "label": self.label.value,
            "confidence": self.confidence,
            "face_score": self.face_score,
        })

    @classmethod
    def from_json(cls, line: str) -> Detection:
        """Inverse of :meth:`to_json`. Raises KeyError, TypeError or ValueError
        on a malformed or mistyped record, a non-finite score or a bad box."""
        obj = json.loads(line)
        check_json_types(obj, ("frame", "x1", "y1", "x2", "y2"),
                         ("confidence", "face_score"))
        det = cls(frame_index=obj["frame"], x1=obj["x1"], y1=obj["y1"],
                  x2=obj["x2"], y2=obj["y2"],
                  label=MaskLabel(obj["label"]),
                  confidence=float(obj["confidence"]),
                  face_score=float(obj["face_score"]))
        if not (math.isfinite(det.confidence) and math.isfinite(det.face_score)):
            raise ValueError("confidence and face_score must be finite")
        return det


# One PPM header token after any whitespace and '#' comments (a comment
# runs to the end of its line); a '#' inside a token is part of it.
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def parse_ppm(data: bytes, origin: str = "<bytes>") -> np.ndarray:
    """Binary PPM (P6, maxval 255) -> (H, W, 3) uint8 pixels."""
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        match = _PPM_TOKEN.match(data, pos)
        pos = match.end()
        if not match[1]:
            raise FrameReadError(f"{origin}: truncated PPM header")
        return match[1]

    magic = next_token()
    if magic != b"P6":
        raise FrameReadError(f"{origin}: not a binary PPM (magic {magic!r})")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise FrameReadError(f"{origin}: malformed PPM header") from exc
    if width < 1 or height < 1:
        raise FrameReadError(f"{origin}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FrameReadError(f"{origin}: maxval {maxval} unsupported (need 255)")
    pos += 1  # single whitespace after maxval
    expected = width * height * 3
    body = data[pos:pos + expected]
    if len(body) != expected:
        raise FrameReadError(
            f"{origin}: pixel data truncated ({len(body)} of {expected} bytes)")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + np.ascontiguousarray(pixels).tobytes())


def list_manifest(manifest_path: str | Path) -> list[tuple[int, Path, str]]:
    """Manifest entries as (line number, resolved path, raw entry) tuples.

    Relative frame paths resolve against the manifest's directory; blank
    lines and '#' comments are skipped.
    """
    manifest_path = Path(manifest_path)
    try:
        lines = manifest_path.read_text().splitlines()
    except OSError as exc:
        raise FrameReadError(f"cannot read manifest {manifest_path}: {exc}")
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        entry = raw.strip()
        if not entry or entry.startswith("#"):
            continue
        # An absolute entry replaces the parent whole.
        entries.append((lineno, manifest_path.parent / entry, entry))
    return entries


def _load_frame(index: int, lineno: int, path: Path, entry: str) -> Frame:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FrameReadError(f"manifest line {lineno}: {exc}")
    pixels = parse_ppm(data, f"manifest line {lineno} ({entry})")
    h, w = pixels.shape[:2]
    return Frame(index=index, width=w, height=h, pixels=pixels, source=entry)


def process_frame(frame: Frame, networks: CascadeNetworks, classifier: Network,
                  cascade_config: CascadeConfig, backbone_spec: BackboneSpec,
                  timings: dict | None = None,
                  trace: dict | None = None) -> list[Detection]:
    """Detect and classify every face in one frame.

    Boxes, clamped to the frame by :func:`detect_faces`, are rounded half up
    to integer pixels and ordered by descending face score then detection
    index; boxes that collapse under rounding are dropped. ``timings`` and
    ``trace`` are filled as by :func:`detect_faces`, plus classifier seconds.
    """
    tensor = frame_to_tensor(frame.pixels)
    faces = detect_faces(tensor, networks, cascade_config, timings=timings,
                         trace=trace)
    start = time.perf_counter()
    pairs = classify_all(classifier, tensor, faces,
                         input_extent=backbone_spec.input_extent)
    if timings is not None:
        timings["classifier"] = (timings.get("classifier", 0.0)
                                 + time.perf_counter() - start)
    boxes = np.array([f.box for f, _ in pairs], np.float64).reshape(-1, 4)
    rounded = np.floor(boxes + 0.5)
    kept = (rounded[:, 2:] > rounded[:, :2]).all(axis=1)
    return [Detection(frame_index=frame.index, x1=x1, y1=y1, x2=x2, y2=y2,
                      label=prediction.label, confidence=prediction.confidence,
                      face_score=face.score)
            for (x1, y1, x2, y2), (face, prediction), ok
            in zip(rounded.astype(int).tolist(), pairs, kept) if ok]


def annotate(frame: Frame, detections: list[Detection]) -> Frame:
    """New frame with a colored 2-pixel outline and label per detection.

    Mask boxes are pure green, NoMask pure red; the 5x7 bitmap label (class
    text plus confidence to two decimals) sits above the box, or just under
    the box's top border when the box touches the frame top. All drawing is
    clipped to the frame.
    """
    if not detections:
        return frame
    pixels = frame.pixels.copy()
    h, w = frame.height, frame.width
    for det in detections:
        color = GREEN if det.label is MaskLabel.MASK else RED
        _draw_rect(pixels, det.x1, det.y1, det.x2, det.y2, color)
        text = f"{det.label.display} {det.confidence:.2f}"
        ty = det.y1 - font.GLYPH_HEIGHT - LABEL_GAP
        if ty < 0:
            ty = det.y1 + OUTLINE_THICKNESS + 1
        for dx, dy in font.text_pixels(text):
            px, py = det.x1 + dx, ty + dy
            if 0 <= px < w and 0 <= py < h:
                pixels[py, px] = color
    return Frame(index=frame.index, width=frame.width, height=frame.height,
                 pixels=pixels, source=frame.source)


def _draw_rect(pixels: np.ndarray, x1: int, y1: int, x2: int, y2: int,
               color: tuple[int, int, int]):
    """2-pixel outline drawn just inside [x1, x2) x [y1, y2), clipped."""
    h, w = pixels.shape[:2]
    cx1, cy1 = max(0, x1), max(0, y1)
    cx2, cy2 = min(w, x2), min(h, y2)
    if cx2 <= cx1 or cy2 <= cy1:
        return
    t = OUTLINE_THICKNESS
    pixels[cy1:min(cy1 + t, cy2), cx1:cx2] = color
    pixels[max(cy2 - t, cy1):cy2, cx1:cx2] = color
    pixels[cy1:cy2, cx1:min(cx1 + t, cx2)] = color
    pixels[cy1:cy2, max(cx2 - t, cx1):cx2] = color


@dataclass
class RunConfig:
    manifest: Path
    output_dir: Path
    cascade_weights: Path
    classifier_weights: Path
    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    backbone: BackboneSpec = field(default_factory=BackboneSpec)
    workers: int = 1
    annotate: bool = True

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# Config key -> (section, field, parser). The section is the RunConfig field
# ("run" for RunConfig itself) whose dataclass receives the parsed value; a
# Path value is resolved against the config file's directory.
CONFIG_KEYS = {
    **{key: ("run", key, Path) for key in (
        "manifest", "output_dir", "cascade_weights", "classifier_weights")},
    **{f.name: ("cascade", f.name, type(f.default))
       for f in fields(CascadeConfig)},
    "classifier_extent": ("backbone", "input_extent", int),
    "width_multiplier": ("backbone", "width_multiplier", float),
    "head_hidden": ("backbone", "head_hidden", int),
    "workers": ("run", "workers", int),
    "annotate": ("run", "annotate", _parse_bool),
}


def parse_config(path: str | Path, env: dict | None = None) -> RunConfig:
    """key=value config file; CASCADET_<KEY> environment entries override."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    values: dict[str, tuple[str, str]] = {}  # key -> (value, where it was set)
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: key {key} already set on "
                              f"line {set_on[key]}")
        set_on[key] = lineno
        values[key] = value, f"{path}:{lineno}"
    for variable, value in (env or {}).items():
        if not variable.startswith("CASCADET_"):
            continue
        key = variable[len("CASCADET_"):].lower()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown environment override {variable}")
        values[key] = value, f"environment override {variable}"

    missing = [f.name for f in fields(RunConfig) if f.name not in values
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    # Each value is checked by its section's dataclass as it is read; the
    # placeholder paths of "run" are all replaced, none being missing.
    sections = {"run": RunConfig(*[path.parent] * 4),
                "cascade": CascadeConfig(), "backbone": BackboneSpec()}
    for key, (value, where) in values.items():
        section, name, parse = CONFIG_KEYS[key]
        try:
            parsed = parse(value)
            if parse is Path:
                parsed = path.parent / parsed
            sections[section] = replace(sections[section], **{name: parsed})
        except ValueError as exc:
            raise ConfigError(f"{where}: {key}: {exc}") from None
    return replace(sections["run"], cascade=sections["cascade"],
                   backbone=sections["backbone"])


@dataclass
class RunSummary:
    frames: int = 0
    failed_frames: int = 0
    detections: int = 0
    wall_time_s: float = 0.0
    stage_seconds: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "frames": self.frames,
            "failed_frames": self.failed_frames,
            "detections": self.detections,
            "wall_time_s": round(self.wall_time_s, 3),
            "stage_seconds": {k: round(v, 3)
                              for k, v in sorted(self.stage_seconds.items())},
        }


def _output_name(index: int, entry: str) -> str:
    """File name of a frame's annotated copy: the source's base name."""
    return Path(entry).name or f"frame{index:05d}.ppm"


def _refuse_clobbering(config: RunConfig,
                       entries: list[tuple[int, Path, str]]) -> None:
    """Raise FrameReadError if two frames would share an annotated output, or
    if any output would overwrite a frame, the manifest or a weight archive."""
    inputs = {path.resolve(): f"the frame of manifest line {lineno}"
              for lineno, path, _ in entries}
    inputs[config.manifest.resolve()] = "the manifest"
    inputs[config.cascade_weights.resolve()] = "the cascade weights"
    inputs[config.classifier_weights.resolve()] = "the classifier weights"
    writers = {"detections.jsonl": "the run log",
               "summary.json": "the run summary"}
    if config.annotate:
        for index, (lineno, _, entry) in enumerate(entries):
            name = _output_name(index, entry)
            if name in writers:
                raise FrameReadError(
                    f"manifest line {lineno}: annotated output {name} "
                    f"collides with {writers[name]}")
            writers[name] = f"manifest line {lineno}"
    for name in writers:
        target = (config.output_dir / name).resolve()
        if target in inputs:
            raise FrameReadError(
                f"output {target} would overwrite {inputs[target]}")


def run(config: RunConfig) -> RunSummary:
    """Process the whole manifest; write annotated frames, a JSONL log and
    summary.json into the output directory.

    Raises FrameReadError, before writing anything, when two frames would
    share an annotated output name or an output would overwrite an input
    (a frame, the manifest or a weight archive); and after the run when more
    than half the frames fail.
    Frame-level failures are logged as warnings and skipped.
    """
    for path in (config.manifest, config.cascade_weights,
                 config.classifier_weights):
        if not Path(path).exists():
            raise FrameReadError(f"required path does not exist: {path}")
    started = time.perf_counter()
    entries = list_manifest(config.manifest)
    _refuse_clobbering(config, entries)
    networks = CascadeNetworks.from_archive(load_archive(config.cascade_weights))
    clf = build_classifier(config.backbone, load_archive(config.classifier_weights))
    config.output_dir.mkdir(parents=True, exist_ok=True)
    summary = RunSummary(frames=len(entries))

    def job(index: int):
        frame = _load_frame(index, *entries[index])
        timings: dict = {}
        detections = process_frame(frame, networks, clf, config.cascade,
                                   config.backbone, timings=timings)
        annotated = annotate(frame, detections) if config.annotate else None
        return detections, timings, annotated

    window = 2 * config.workers
    with ThreadPoolExecutor(max_workers=config.workers) as pool, \
            open(config.output_dir / "detections.jsonl", "w") as log_file:
        pending: deque = deque()
        for index in range(len(entries)):
            # Only frames index..index + window - 1 are in flight, so a slow
            # frame cannot leave the rest of the manifest finished behind it.
            while len(pending) < window and index + len(pending) < len(entries):
                pending.append(pool.submit(job, index + len(pending)))
            entry = entries[index][2]
            try:
                detections, timings, annotated = pending.popleft().result()
            except Exception as exc:  # frame-level isolation
                log.warning("frame %d (%s): %s", index, entry, exc)
                summary.failed_frames += 1
                continue
            for det in detections:
                log_file.write(det.to_json() + "\n")
            summary.detections += len(detections)
            for stage, seconds in timings.items():
                summary.stage_seconds[stage] = (
                    summary.stage_seconds.get(stage, 0.0) + seconds)
            if annotated is not None:
                write_ppm(config.output_dir / _output_name(index, entry),
                          annotated.pixels)

    summary.wall_time_s = time.perf_counter() - started
    (config.output_dir / "summary.json").write_text(
        json.dumps(summary.to_dict(), indent=2) + "\n")
    if summary.frames and summary.failed_frames * 2 > summary.frames:
        raise FrameReadError(
            f"{summary.failed_frames} of {summary.frames} frames failed")
    return summary
