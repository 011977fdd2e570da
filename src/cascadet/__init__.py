"""Masked-face detection toolkit: cascaded face detector, mask classifier,
losses with gradient checks, weight serialization, frame pipeline, and
evaluation metrics.

Everything runs on the CPU through a small deterministic operator library
(:mod:`cascadet.tensor`). Outputs are bit-reproducible for fixed inputs and
weights.

Importing the package sets two process-wide policies, whatever was imported
before it: BLAS runs on one thread, and on glibc, malloc keeps one arena for
every thread. The first keeps reductions in a fixed order; the second lets
the frame and helper threads reuse memory other threads freed, so a process
holds one heap rather than one per thread.
"""

import ctypes
import logging
import os
import sys

# Pin BLAS to one thread. Parallelism comes from frame-level workers and,
# inside a frame, from tensor.parallel_map's helper thread over independent
# units, each on a concurrent.futures.ThreadPoolExecutor; single-threaded
# GEMM keeps each unit's reductions in a fixed order, so runs are
# bit-identical regardless of worker or core count. The variables act only
# if numpy has not loaded yet; if it has, its OpenBLAS is pinned below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# The thread-count setters that OpenBLAS builds export: numpy's wheels ship
# scipy-openblas with 64-bit integers; other builds use the plain names.
_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                "openblas_set_num_threads64_", "openblas_set_num_threads")


class _PhdrInfo(ctypes.Structure):
    """The leading fields of ``struct dl_phdr_info``."""
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo),
                                  ctypes.c_size_t, ctypes.c_void_p)


def _loaded_libraries() -> list[str]:
    """Paths of the shared objects loaded in this process, from the C
    library's ``dl_iterate_phdr``; empty where it has none."""
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None)
        return []
    iterate.argtypes = [_PHDR_CALLBACK, ctypes.c_void_p]
    iterate.restype = ctypes.c_int
    paths = []

    def record(info, size, data) -> int:
        paths.append(os.fsdecode(info.contents.name or b""))
        return 0

    callback = _PHDR_CALLBACK(record)  # held until iterate returns
    iterate(callback, None)
    return paths


def _pin_loaded_openblas() -> bool:
    """Set every loaded OpenBLAS to one thread; False if none was found."""
    pinned = False
    for path in _loaded_libraries():
        if "openblas" not in os.path.basename(path).lower():
            continue
        library = ctypes.CDLL(path)
        for name in _SET_THREADS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned = True
                break
    return pinned


if "numpy" in sys.modules and not _pin_loaded_openblas():
    logging.getLogger(__name__).warning(
        "numpy was imported before cascadet and its BLAS could not be "
        "pinned to one thread, so outputs may not be bit-reproducible; set "
        "OPENBLAS_NUM_THREADS=1 (or OMP_NUM_THREADS=1, MKL_NUM_THREADS=1) "
        "before numpy is imported")

# mallopt's M_ARENA_MAX. glibc gives each new thread an arena of its own (up
# to eight per core on 64-bit hosts), and a freed block is reused only by the
# arena it came from, so frame and helper threads would grow heaps of their
# own beside the memory the main thread has freed (weight archives, a warm-up
# frame). Where memory lives never changes arithmetic: outputs keep their
# bits. Unless told, glibc fixes its limit only when a thread asks for a new
# arena while more than eight exist, so the call also holds for threads
# started before the import, except that a thread which already has an
# arena keeps it.
_M_ARENA_MAX = -8


def _limit_malloc_arenas() -> None:
    """Give every thread of this process glibc's main arena; elsewhere do
    nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr or that name
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


_limit_malloc_arenas()

__version__ = "0.1.0"
