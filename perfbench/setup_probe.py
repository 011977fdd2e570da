"""Cold set-up timing in a fresh process.

Usage: python3 perfbench/setup_probe.py CASCADE.cwts CLASSIFIER.cwts

Imports come first and are not timed; then both archives are loaded with
``weights.load`` and bound with ``CascadeNetworks.from_archive`` and
``build_classifier``. Prints one JSON object with ``load_s`` and ``bind_s``.
"""

import json
import sys
import time

from cascadet import weights
from cascadet.classifier import BackboneSpec, build_classifier
from cascadet.detector import CascadeNetworks


def main(cascade_path: str, classifier_path: str) -> None:
    start = time.perf_counter()
    cascade = weights.load(cascade_path)
    classifier = weights.load(classifier_path)
    loaded = time.perf_counter()
    CascadeNetworks.from_archive(cascade)
    build_classifier(BackboneSpec(), classifier)
    bound = time.perf_counter()
    print(json.dumps({"load_s": loaded - start, "bind_s": bound - loaded}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
