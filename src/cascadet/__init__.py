"""Masked-face detection toolkit: cascaded face detector, mask classifier,
losses with gradient checks, weight serialization, frame pipeline, and
evaluation metrics.

Everything runs on the CPU through a small deterministic operator library
(:mod:`cascadet.tensor`). Outputs are bit-reproducible for fixed inputs and
weights.
"""

import os

# Pin BLAS to one thread before numpy loads anywhere in this package.
# Parallelism comes from frame-level workers and, inside a frame, from
# tensor.parallel_map's helper thread over independent units, each on a
# concurrent.futures.ThreadPoolExecutor; single-threaded GEMM keeps each
# unit's reductions in a fixed order, so runs are bit-identical regardless
# of worker or core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
