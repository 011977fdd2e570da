import faulthandler
import os
import sys

# Pin BLAS threading before numpy loads so test runs are bit-reproducible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_sessionfinish(session, exitstatus):
    """Arm a 60 s watchdog for interpreter exit, which joins the non-daemon
    ``tensor`` helper thread: a helper left deadlocked by a failed test
    would otherwise hang the run silently. On expiry every thread's stack
    is printed and the process exits."""
    faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
