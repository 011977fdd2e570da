"""One workload pass, run in a fresh process by ``run.py``.

Usage: python3 perfbench/worker.py SPEC.json REPORT.json

Untraced mode (``trace`` 0) times the workload's own calls: ``pipeline.run``
for the batch workload and ``cli.main(["eval", ...])`` for the log workload. Traced mode (``trace`` 1)
repeats pairs of one untraced call and one traced pass over the same inputs;
the traced pass calls the package's public functions one by one inside
spans, with :class:`tracing.TracedNetwork` delegates in place of every
network. Both modes check outputs and write a JSON report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from cascadet import classifier, cli, detector, evaluate, pipeline, weights
from cascadet.classifier import BackboneSpec, MaskLabel
from cascadet.detector import CascadeConfig, CascadeNetworks

from inputs import WORKLOADS, bench_frame, eval_log
from tracing import Recorder, TracedNetwork, covered_seconds, forward_work

NETS = ("pnet", "rnet", "onet", "clf")
STAGE_NET = {"stage1": "pnet", "stage2": "rnet", "stage3": "onet"}
# funnel metric -> detect_faces trace key
FUNNEL = {"levels": "levels", "proposals": "proposals", "stage1": "stage1",
          "stage2": "stage2", "stage3": "stage3", "faces": "final"}
MIB = float(1 << 20)


def timed_loop(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while the next call, if it
    lasts as long as the last one, still ends within ``seconds``."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def normalized_digest(lines: list[str]) -> str:
    """Digest of one frame's log lines without the frame index, which
    depends on the frame's position in its call."""
    body = "\n".join(json.dumps({k: v for k, v in json.loads(line).items()
                                 if k != "frame"}, sort_keys=True)
                     for line in lines)
    return hashlib.sha256(body.encode()).hexdigest()


def to_detections(frame: pipeline.Frame, pairs) -> list[pipeline.Detection]:
    """Detection records from ``classify_all`` pairs, with the boundary
    rounding ``pipeline.process_frame`` applies (clamp, round half up, drop
    boxes that collapse). Kept separate so the traced pass can take funnel
    counts from ``detect_faces`` and still be checked byte for byte against
    ``pipeline.run``."""
    out = []
    for face, prediction in pairs:
        b = face.box
        x1 = max(0, min(frame.width, math.floor(b.x1 + 0.5)))
        y1 = max(0, min(frame.height, math.floor(b.y1 + 0.5)))
        x2 = max(0, min(frame.width, math.floor(b.x2 + 0.5)))
        y2 = max(0, min(frame.height, math.floor(b.y2 + 0.5)))
        if x2 <= x1 or y2 <= y1:
            continue
        out.append(pipeline.Detection(
            frame_index=frame.index, x1=x1, y1=y1, x2=x2, y2=y2,
            label=prediction.label, confidence=prediction.confidence,
            face_score=face.score))
    return out


class Pass:
    """Shared state of one workload pass: inputs, failures, digests."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.workload = WORKLOADS[spec["workload"]]
        self.seed = int(spec["seed"])
        self.seconds = float(spec["seconds"])
        self.work = Path(spec["work_dir"])
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.digests: dict[str, dict] = {}
        self.report: dict = {}

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, message)

    def record_digest(self, frame_seed: int, entry: dict) -> None:
        """Keep one digest per input frame; a frame seen twice in this pass
        must give the same outputs."""
        key = str(frame_seed)
        old = self.digests.get(key)
        if old is None:
            self.digests[key] = entry
            return
        for field_name, value in entry.items():
            if field_name in old and old[field_name] != value:
                self.fail(f"frame{frame_seed}",
                          f"frame {frame_seed}: {field_name} differs on repeat")
            old.setdefault(field_name, value)


class DetectionPass(Pass):
    """The batch workload: the cascade plus the classifier."""

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.config = CascadeConfig()
        self.backbone = BackboneSpec()
        self.networks = CascadeNetworks.from_archive(
            weights.load(spec["cascade_weights"]))
        self.classifier = classifier.build_classifier(
            self.backbone, weights.load(spec["classifier_weights"]))
        self.frames_dir = self.work / "frames"
        self.frames_dir.mkdir(parents=True, exist_ok=True)
        self.calls = 0

    # -- inputs -----------------------------------------------------------

    def frame(self, i: int, index: int) -> pipeline.Frame:
        wl = self.workload
        pixels = bench_frame(self.seed + i, wl.width, wl.height)
        return pipeline.Frame(index=index, width=wl.width, height=wl.height,
                              pixels=pixels, source=f"frame{self.seed + i}.ppm")

    def manifest(self, first: int, count: int) -> Path:
        """Write frames first..first+count-1 as PPM files plus a manifest."""
        names = []
        for i in range(first, first + count):
            path = self.frames_dir / f"frame{self.seed + i}.ppm"
            if not path.exists():
                pipeline.write_ppm(path, self.frame(i, 0).pixels)
            names.append(f"frames/{path.name}")
        manifest = self.work / f"manifest{first}-{count}.txt"
        manifest.write_text("\n".join(names) + "\n")
        return manifest

    # -- checks -----------------------------------------------------------

    def check_frame(self, frame_seed: int, lines: list[str],
                    annotated: np.ndarray | None) -> dict:
        """Validate one frame's outputs; return its digest entry."""
        wl = self.workload
        op = f"frame{frame_seed}"
        if annotated is None or annotated.shape != (wl.height, wl.width, 3):
            self.fail(op, f"frame {frame_seed}: annotated frame missing or "
                          "misshapen")
        last_score = math.inf
        for line in lines:
            d = json.loads(line)
            inside = (0 <= d["x1"] < d["x2"] <= wl.width
                      and 0 <= d["y1"] < d["y2"] <= wl.height)
            if not inside:
                self.fail(op, f"frame {frame_seed}: box outside frame: {line}")
            if d["label"] not in (MaskLabel.MASK.value, MaskLabel.NO_MASK.value):
                self.fail(op, f"frame {frame_seed}: bad label: {line}")
            if not 0.5 <= d["confidence"] <= 1.0:
                self.fail(op, f"frame {frame_seed}: bad confidence: {line}")
            if not self.config.threshold_onet <= d["face_score"] <= last_score:
                self.fail(op, f"frame {frame_seed}: face score out of order "
                              f"or below threshold: {line}")
            last_score = d["face_score"]
        return {"log": normalized_digest(lines),
                "annotated": hashlib.sha256(
                    b"" if annotated is None else annotated.tobytes()).hexdigest()}

    def direct(self, frame: pipeline.Frame) -> tuple[list[str], np.ndarray]:
        """``process_frame`` + ``annotate``: the reference for the warm-up
        frame."""
        detections = pipeline.process_frame(frame, self.networks,
                                            self.classifier, self.config,
                                            self.backbone)
        annotated = pipeline.annotate(frame, detections)
        return [d.to_json() for d in detections], annotated.pixels

    def run_call(self, first: int, count: int) -> tuple[float, dict]:
        """One ``pipeline.run`` call over frames first..first+count-1.

        Returns its wall time and, per frame position, the log lines and
        annotated pixels it wrote (None where the frame is missing).
        """
        wl = self.workload
        manifest = self.manifest(first, count)
        out = self.work / f"out{self.calls}"
        self.calls += 1
        config = pipeline.RunConfig(
            manifest=manifest, output_dir=out,
            cascade_weights=Path(self.spec["cascade_weights"]),
            classifier_weights=Path(self.spec["classifier_weights"]),
            cascade=self.config, backbone=self.backbone, workers=1,
            annotate=True)
        started = time.perf_counter()
        try:
            pipeline.run(config)
        except pipeline.FrameReadError as exc:
            self.fail(f"call{first}", f"pipeline.run failed: {exc}")
        wall = time.perf_counter() - started
        outputs = {pos: ([], None) for pos in range(count)}
        log = out / "detections.jsonl"
        if log.exists():
            for line in log.read_text().splitlines():
                outputs[json.loads(line)["frame"]][0].append(line)
        for pos in range(count):
            path = out / f"frame{self.seed + first + pos}.ppm"
            pixels = (pipeline.parse_ppm(path.read_bytes(), str(path))
                      if path.exists() else None)
            outputs[pos] = (outputs[pos][0], pixels)
        outputs["log_bytes"] = log.read_bytes() if log.exists() else b""
        shutil.rmtree(out, ignore_errors=True)
        return wall, outputs

    # -- warm-up ----------------------------------------------------------

    def warm_up(self) -> None:
        """Process frame 0 once, untimed: lazy numpy/BLAS start-up would
        inflate the first frame. Its outputs become the reference that the
        first timed call must reproduce byte for byte."""
        started = time.perf_counter()
        lines, pixels = self.direct(self.frame(0, 0))
        self.report["warmup_s"] = time.perf_counter() - started
        self.reference = (lines, pixels)

    def check_reference(self, lines: list[str], pixels) -> None:
        ref_lines, ref_pixels = self.reference
        if lines != ref_lines or pixels is None or \
                pixels.tobytes() != ref_pixels.tobytes():
            self.fail(f"frame{self.seed}",
                      f"frame {self.seed}: outputs differ from the direct "
                      "process_frame + annotate path")

    # -- untraced measurement -------------------------------------------------

    def measure(self) -> None:
        k = self.workload.call_frames
        calls = []

        def step():
            first = len(calls) * k
            wall, outputs = self.run_call(first, k)
            calls.append({"frames": k, "wall_s": wall})
            self.attempted += k
            for pos in range(k):
                lines, pixels = outputs[pos]
                if first + pos == 0:
                    self.check_reference(lines, pixels)
                self.record_digest(self.seed + first + pos,
                                   self.check_frame(self.seed + first + pos,
                                                    lines, pixels))

        timed_loop(self.seconds, step)
        frames = sum(c["frames"] for c in calls)
        wall = sum(c["wall_s"] for c in calls)
        self.report.update(calls=calls, frames=frames, wall_s=wall,
                           latency_unit="call",
                           latencies_s=[c["wall_s"] for c in calls])

    # -- traced pass ----------------------------------------------------------

    def traced(self, frames: list[pipeline.Frame], paths: list[Path],
               out: Path) -> tuple[float, Recorder, list, list]:
        """Public calls one by one, each in a span, frames in order: read each
        frame from its PPM file, detect, classify, annotate, and write the
        annotated frame and the log."""
        rec = Recorder()
        networks = CascadeNetworks(
            pnet=TracedNetwork(self.networks.pnet, "pnet", rec),
            rnet=TracedNetwork(self.networks.rnet, "rnet", rec),
            onet=TracedNetwork(self.networks.onet, "onet", rec))
        clf = TracedNetwork(self.classifier, "clf", rec)

        def job(pos: int):
            frame = frames[pos]
            timings, funnel = {}, {}
            with rec.frame_span(pos):
                with rec.span("pipeline.read"):
                    pixels = pipeline.parse_ppm(paths[pos].read_bytes(),
                                                str(paths[pos]))
                    frame = pipeline.Frame(
                        index=pos, width=pixels.shape[1],
                        height=pixels.shape[0], pixels=pixels,
                        source=frame.source)
                with rec.span("pipeline.process"):
                    tensor = detector.frame_to_tensor(frame.pixels)
                    faces = detector.detect_faces(
                        tensor, networks, self.config, timings=timings,
                        trace=funnel)
                    with rec.span("classifier.classify", faces=len(faces)):
                        pairs = classifier.classify_all(
                            clf, tensor, faces,
                            input_extent=self.backbone.input_extent)
                    detections = to_detections(frame, pairs)
                with rec.span("pipeline.annotate"):
                    annotated = pipeline.annotate(frame, detections)
                with rec.span("pipeline.write"):
                    pipeline.write_ppm(out / frame.source, annotated.pixels)
            return detections, annotated.pixels, timings, funnel

        started = time.perf_counter()
        results = [job(pos) for pos in range(len(frames))]
        lines = [[d.to_json() for d in r[0]] for r in results]
        with rec.span("pipeline.write", frame=-1):
            with open(out / "detections.jsonl", "w") as log:
                for frame_lines in lines:
                    for line in frame_lines:
                        log.write(line + "\n")
        wall = time.perf_counter() - started
        return wall, rec, results, lines

    def trace(self) -> None:
        k = self.workload.call_frames
        frames = [self.frame(i, i) for i in range(k)]
        pairs = []

        def step():
            self.attempted += k
            untraced_wall, outputs = self.run_call(0, k)
            untraced_log = outputs["log_bytes"]
            untraced_frames = [outputs[pos] for pos in range(k)]
            out = self.work / "traced"
            out.mkdir(exist_ok=True)
            paths = [self.frames_dir / f.source for f in frames]
            wall, rec, results, lines = self.traced(frames, paths, out)
            shutil.rmtree(out, ignore_errors=True)
            traced_log = "".join(line + "\n" for frame_lines in lines
                                 for line in frame_lines).encode()
            if traced_log != untraced_log:
                self.fail(f"pair{len(pairs)}", "untraced detections.jsonl "
                          "differs from the traced run's Detection.to_json lines")
            for pos, (detections, pixels, _, funnel) in enumerate(results):
                frame_seed = self.seed + pos
                other = untraced_frames[pos][1]
                if other is None or other.tobytes() != pixels.tobytes():
                    self.fail(f"frame{frame_seed}", f"frame {frame_seed}: "
                              "annotated frame differs between untraced and "
                              "traced runs")
                entry = self.check_frame(frame_seed, lines[pos], pixels)
                entry["funnel"] = [funnel[key] for key in FUNNEL.values()]
                self.record_digest(frame_seed, entry)
            pairs.append(self.layer_metrics(rec, results, k, wall, untraced_wall))

        timed_loop(self.seconds, step)
        self.report["per_layer"], self.report["per_layer_raw"] = \
            summarize_pairs(self, pairs)

    def layer_metrics(self, rec: Recorder, results, frames: int, wall: float,
                      untraced_wall: float) -> dict:
        """Per-frame layer metrics of one traced pass."""
        m = zero_metrics()
        layers = {"pnet": self.networks.pnet.layers,
                  "rnet": self.networks.rnet.layers,
                  "onet": self.networks.onet.layers,
                  "clf": self.classifier.layers}
        seconds = {net: 0.0 for net in NETS}
        macs = {net: 0 for net in NETS}  # integers: exact in any span order
        spans_by_name: dict[str, float] = {}
        children: dict[int, list] = {}
        frame_spans = []
        for span in rec.spans:
            spans_by_name[span.name] = spans_by_name.get(span.name, 0.0) + span.seconds
            if span.name == "frame":
                frame_spans.append(span)
            elif span.name.startswith("pipeline."):
                children.setdefault(span.frame, []).append((span.start, span.end))
            if span.name.startswith("tensor."):
                net = span.name.split(".")[1]
                span_macs, act = forward_work(layers[net], span.attrs["shape"])
                seconds[net] += span.seconds
                macs[net] += span_macs
                m[f"tensor.{net}.calls"] += 1
                m[f"tensor.{net}.rows"] += span.attrs["shape"][0]
                m[f"tensor.{net}.act_mb"] = max(m[f"tensor.{net}.act_mb"], act / MIB)
            if span.name == "classifier.classify":
                m["classifier.faces"] += span.attrs["faces"]
        for net in NETS:
            m[f"tensor.{net}.forward_s"] = seconds[net] / frames
            m[f"tensor.{net}.calls"] /= frames
            m[f"tensor.{net}.rows"] /= frames
            m[f"tensor.{net}.gmac"] = macs[net] / 1e9 / frames
            m[f"tensor.{net}.gmac_per_s"] = ratio(macs[net] / 1e9, seconds[net])
        stage = {key: sum(r[2].get(key, 0.0) for r in results)
                 for key in ("pyramid", "stage1", "stage2", "stage3")}
        m["detector.pyramid_s"] = stage["pyramid"] / frames
        for key, net in STAGE_NET.items():
            m[f"detector.{key}_s"] = stage[key] / frames
            m[f"detector.{key}_self_s"] = (stage[key] - seconds[net]) / frames
        counts = {name: sum(r[3][key] for r in results)
                  for name, key in FUNNEL.items()}
        for key in FUNNEL:
            m[f"detector.{key}"] = counts[key] / frames
        m["detector.rnet_pass_ratio"] = ratio(counts["stage2"], counts["stage1"])
        m["detector.onet_pass_ratio"] = ratio(counts["stage3"], counts["stage2"])
        classify = spans_by_name.get("classifier.classify", 0.0)
        m["classifier.classify_s"] = classify / frames
        m["classifier.s_per_face"] = ratio(classify, m["classifier.faces"])
        m["classifier.faces"] /= frames
        m["classifier.self_s"] = (classify - seconds["clf"]) / frames
        for name in ("read", "annotate", "write"):
            m[f"pipeline.{name}_s"] = spans_by_name.get(f"pipeline.{name}", 0.0) / frames
        m["trace.overhead_s"] = (wall - untraced_wall) / frames
        m["trace.coverage"] = coverage(frame_spans, children)
        return m


class EvalPass(Pass):
    """The ``cascadet eval`` path on a synthetic log with planted counts."""

    COUNTS = re.compile(r"^(Face|Mask) counts: TP=(\d+) FP=(\d+) FN=(\d+) TN=(\d+)$",
                        re.MULTILINE)

    def __init__(self, spec: dict):
        super().__init__(spec)
        log_lines, truth_lines, self.planted = eval_log(
            self.seed, self.workload.log_frames)
        self.log = self.work / "detections.jsonl"
        self.truth = self.work / "truth.jsonl"
        self.log.write_text("\n".join(log_lines) + "\n")
        self.truth.write_text("\n".join(truth_lines) + "\n")
        self.sizes = {"frames": self.workload.log_frames,
                      "detections": len(log_lines), "truths": len(truth_lines)}

    def cli_eval(self, op: str) -> tuple[float, str]:
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eval", "--log", str(self.log),
                             "--truth", str(self.truth)])
        wall = time.perf_counter() - started
        text = out.getvalue()
        counts = {kind.lower(): {"tp": int(tp), "fp": int(fp), "fn": int(fn),
                                 "tn": int(tn)}
                  for kind, tp, fp, fn, tn in self.COUNTS.findall(text)}
        if code != 0 or counts != self.planted:
            self.fail(op, f"eval exit {code}, counts {counts} != planted "
                          f"{self.planted}")
        return wall, text

    def warm_up(self) -> None:
        started = time.perf_counter()
        self.cli_eval("warmup")
        self.report["warmup_s"] = time.perf_counter() - started

    def measure(self) -> None:
        walls = []

        def step():
            self.attempted += 1
            walls.append(self.cli_eval(f"call{len(walls)}")[0])

        timed_loop(self.seconds, step)
        self.report.update(calls=[{"frames": self.sizes["frames"], "wall_s": w}
                                  for w in walls],
                           frames=self.sizes["frames"] * len(walls),
                           wall_s=sum(walls), latency_unit="call",
                           latencies_s=walls)

    def trace(self) -> None:
        pairs = []

        def step():
            op = f"pair{len(pairs)}"
            self.attempted += 1
            untraced_wall, text = self.cli_eval(op)
            rec = Recorder()
            started = time.perf_counter()
            with rec.frame_span(0):
                with rec.span("evaluate.load"):
                    detections = evaluate.load_detection_log(self.log)
                    truths = evaluate.load_ground_truth(self.truth)
                with rec.span("evaluate.match"):
                    report = evaluate.evaluate(detections, truths)
                with rec.span("evaluate.render"):
                    rendered = evaluate.render_report(report)
            wall = time.perf_counter() - started
            if rendered + "\n" != text:
                self.fail(op, "traced report differs from the cascadet eval output")
            m = zero_metrics()
            seconds = {s.name: s.seconds for s in rec.spans}
            for name in ("load", "match", "render"):
                m[f"evaluate.{name}_s"] = seconds[f"evaluate.{name}"]
            for name, size in self.sizes.items():
                m[f"evaluate.{name}"] = float(size)
            m["trace.overhead_s"] = wall - untraced_wall
            m["trace.coverage"] = coverage(
                [s for s in rec.spans if s.name == "frame"],
                {0: [(s.start, s.end) for s in rec.spans
                     if s.name.startswith("evaluate.")]})
            pairs.append(m)

        timed_loop(self.seconds, step)
        self.report["per_layer"], self.report["per_layer_raw"] = \
            summarize_pairs(self, pairs)


# -- per-layer metric bookkeeping --------------------------------------------

COUNT_METRICS = (
    [f"tensor.{n}.{s}" for n in NETS for s in ("calls", "rows", "gmac", "act_mb")]
    + [f"detector.{k}" for k in FUNNEL]
    + ["detector.rnet_pass_ratio", "detector.onet_pass_ratio",
       "classifier.faces", "evaluate.frames", "evaluate.detections",
       "evaluate.truths"])


def zero_metrics() -> dict:
    """Every per-layer metric declared in BENCHMARK.json at zero, except the
    weights layer, which ``run.py`` fills from its set-up probes. Layers a
    workload bypasses stay zero."""
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
    return {m["name"]: 0.0 for m in bench["per_layer"]
            if not m["name"].startswith("weights.")}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def coverage(frame_spans, children: dict) -> float:
    """Share of frame wall time that the frame's child spans cover."""
    total = sum(s.seconds for s in frame_spans)
    covered = sum(covered_seconds(children.get(s.frame, []), s.start, s.end)
                  for s in frame_spans)
    return ratio(covered, total)


def summarize_pairs(owner: Pass, pairs: list[dict]) -> tuple[dict, list]:
    """Median of each timed metric over the traced passes; counts must be
    identical in every pass and are taken from the first."""
    summary = {}
    for name in pairs[0]:
        values = [p[name] for p in pairs]
        if name in COUNT_METRICS:
            if any(v != values[0] for v in values):
                owner.fail(f"count:{name}", f"{name} differs between passes: {values}")
            summary[name] = values[0]
        else:
            summary[name] = statistics.median(values)
    return summary, pairs


def main(spec_path: str, report_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    kind = WORKLOADS[spec["workload"]].kind
    runner = EvalPass(spec) if kind == "eval" else DetectionPass(spec)
    runner.warm_up()
    if spec["trace"]:
        runner.trace()
    else:
        runner.measure()
    report = runner.report
    report.update(
        attempted=runner.attempted, failures=runner.failures,
        digests=runner.digests,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        numpy=np.__version__,
        blas_env={var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")})
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
