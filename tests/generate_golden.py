"""Regenerate the frozen golden trace for the deterministic pipeline tests.

Run from the repository root after an intentional behavior change:

    python3 tests/generate_golden.py

The trace captures, for the fixed fixture weights and the fixed synthetic
test frame, the per-stage candidate counts, the final face candidates, and
the pipeline detections. Tests compare fresh runs against this file
exactly, so regenerate it only when output changes are intended.
"""

import json
import sys
from pathlib import Path

GOLDEN_FRAME_SEED = 0
GOLDEN_WIDTH = 640
GOLDEN_HEIGHT = 360


def compute_golden() -> dict:
    from cascadet import detector as D
    from cascadet import fixtures
    from cascadet.classifier import BackboneSpec, build_classifier
    from cascadet.pipeline import Frame, process_frame

    networks = D.CascadeNetworks.from_archive(fixtures.fixture_cascade_archive())
    spec = BackboneSpec()
    classifier = build_classifier(spec, fixtures.fixture_classifier_archive(spec))
    pixels = fixtures.synthetic_frame(GOLDEN_FRAME_SEED, GOLDEN_WIDTH,
                                      GOLDEN_HEIGHT)
    tensor = D.frame_to_tensor(pixels)
    config = D.CascadeConfig()

    trace: dict = {}
    faces = D.detect_faces(tensor, networks, config, trace=trace)
    candidates = [{
        "x1": face.box.x1, "y1": face.box.y1,
        "x2": face.box.x2, "y2": face.box.y2,
        "score": face.score,
        "landmarks": [coord for point in face.landmarks for coord in point],
    } for face in faces]

    frame = Frame(index=0, width=GOLDEN_WIDTH, height=GOLDEN_HEIGHT,
                  pixels=pixels)
    detections = [json.loads(d.to_json())
                  for d in process_frame(frame, networks, classifier,
                                         config, spec)]
    return {
        "frame": {"seed": GOLDEN_FRAME_SEED, "width": GOLDEN_WIDTH,
                  "height": GOLDEN_HEIGHT},
        "trace": trace,
        "candidates": candidates,
        "detections": detections,
    }


def main():
    golden = compute_golden()
    path = Path(__file__).parent / "data" / "golden_trace.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {path}")
    print(f"trace: {golden['trace']}")
    print(f"detections: {len(golden['detections'])}")


if __name__ == "__main__":
    # Import the package from this checkout's src/ without installing it.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main()
