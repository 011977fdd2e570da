"""Process-wide malloc policy: one glibc arena for every thread.

Each test runs a script in a fresh interpreter, since the policy is set once
per process when ``cascadet`` is imported. They are skipped off glibc.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def glibc_version() -> str | None:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr or that name
        return None


pytestmark = pytest.mark.skipif(not glibc_version(), reason="needs glibc")

# ``heaps()``: the number of heaps (arenas) glibc's malloc_info reports.
HEAPS = """
import ctypes

def heaps():
    libc = ctypes.CDLL(None)
    libc.open_memstream.restype = ctypes.c_void_p
    libc.open_memstream.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
    libc.fclose.argtypes = [ctypes.c_void_p]
    text, size = ctypes.c_char_p(), ctypes.c_size_t()
    stream = libc.open_memstream(ctypes.byref(text), ctypes.byref(size))
    libc.malloc_info(0, stream)
    libc.fclose(stream)
    return ctypes.string_at(text, size.value).count(b"<heap nr=")
"""


def run_script(script: str, *args: str) -> list[str]:
    """stdout lines of ``script`` run with ``src`` on the path and no BLAS
    thread variable set, so numpy imported first starts its BLAS threads."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", script, *args],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return done.stdout.splitlines()


def test_threads_before_and_after_the_import_share_one_heap():
    """numpy's BLAS threads run a product before ``import cascadet``, and
    four threads that allocate together start after it: malloc_info counts
    one heap. Without the limit each live thread has its own: 5 heaps."""
    script = HEAPS + """
import threading
import numpy as np
np.ones((256, 256)) @ np.ones((256, 256))
import cascadet
together = threading.Barrier(4)

def allocate():
    together.wait()
    [np.ones(n) for n in (10, 1000, 100000)]
    together.wait()

threads = [threading.Thread(target=allocate) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(heaps())
"""
    assert run_script(script) == ["1"]


def test_run_calls_reuse_the_warm_ups_memory(tmp_path):
    """A worker shaped like the clip640 benchmark: a warm-up frame on the
    main thread, then four one-frame ``pipeline.run`` calls at 640x360,
    whose frames run on a pool thread. Peak RSS (VmHWM) after the warm-up
    grew 0.5-8.1 MB over 40 runs on two cores (4.2 MB on one); with an
    arena per thread it grew 21.9-25.4 MB over ten (19.1-19.2 MB on one
    core). The bound is 1.5 times the largest growth measured."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    script = """
import sys
from pathlib import Path
from cascadet import detector as D, fixtures, pipeline as P, weights as W
from cascadet.classifier import BackboneSpec, build_classifier

def vmhwm_mb():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024

work = Path(sys.argv[1])
cascade, classifier = work / "cascade.cwts", work / "classifier.cwts"
W.save(fixtures.fixture_cascade_archive(), cascade)
W.save(fixtures.fixture_classifier_archive(), classifier)
spec = BackboneSpec()
frames = [fixtures.synthetic_frame(seed, 640, 360) for seed in range(5)]
warm = P.Frame(index=0, width=640, height=360, pixels=frames[0])
P.process_frame(warm, D.CascadeNetworks.from_archive(W.load(cascade)),
                build_classifier(spec, W.load(classifier)),
                D.CascadeConfig(), spec)
before = vmhwm_mb()
for i, pixels in enumerate(frames[1:], 1):
    P.write_ppm(work / f"frame{i}.ppm", pixels)
    (work / "frames.txt").write_text(f"frame{i}.ppm\\n")
    P.run(P.RunConfig(manifest=work / "frames.txt", output_dir=work / "out",
                      cascade_weights=cascade, classifier_weights=classifier,
                      backbone=spec, workers=1))
print(f"{vmhwm_mb() - before:.1f}")
"""
    growth = float(run_script(script, str(tmp_path))[0])
    assert growth < 1.5 * 8.1, growth
