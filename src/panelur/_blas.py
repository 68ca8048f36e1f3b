"""OpenBLAS thread counts: every analysis runs at one thread per OpenBLAS.

The analysis path loads one OpenBLAS, numpy's: its eigensolves are numpy's
too. With several threads, the idle threads of the pool busy-wait on after
each call, and pool workers oversubscribe the cores. So
`statistics.analyze_many`, which `analyze`, `panelur test` and the harness all
run, holds every loaded OpenBLAS at one thread and restores the caller's
counts on return, unless the user set OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS. The counts belong to the process: analyses in several
threads at once can leave them at one. The libraries are looked up once per
process (`_openblas_controls` is cached), so an OpenBLAS loaded after the
first analysis, such as scipy's when code imports scipy.linalg, is not
pinned.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

# Standard OpenBLAS / OpenMP thread variables: when either is set, the user's
# choice stands and the thread counts are left alone.
_BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@functools.cache
def _openblas_controls() -> tuple:
    """(set, get) thread-count functions of each OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            fields = (line.split(maxsplit=5) for line in fh)
            paths = sorted({f[5].strip() for f in fields
                            if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    except OSError:
        return ()
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        # Plain builds export openblas_*; the scipy-openblas wheels add a
        # scipy_ prefix and, for the 64-bit integer build, a 64_ suffix.
        for name in ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                     "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            if hasattr(lib, name % "set") and hasattr(lib, name % "get"):
                set_threads, get_threads = getattr(lib, name % "set"), getattr(lib, name % "get")
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
                break
    return tuple(controls)


def _blas_controls() -> tuple:
    """The OpenBLAS controls panelur may change: none when the user set a thread variable."""
    if any(name in os.environ for name in _BLAS_ENV_VARS):
        return ()
    return _openblas_controls()


def _set_blas_threads(controls: tuple, counts: list[int]) -> None:
    """Give each OpenBLAS its thread count, leaving alone those already there.

    After a fork, OpenBLAS restarts its thread pool on any set call, and the
    new pool threads busy-wait for about a tenth of a second of CPU: a forked
    worker that inherited one thread must not call the setter again. So a
    pin nested in another sets nothing.
    """
    for (set_threads, get_threads), count in zip(controls, counts):
        if get_threads() != count:
            set_threads(count)


def _pin_blas() -> None:
    """Set every controllable OpenBLAS to one thread."""
    controls = _blas_controls()
    _set_blas_threads(controls, [1] * len(controls))


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread per process, restoring the caller's counts on exit."""
    controls = _blas_controls()
    saved = [get_threads() for _, get_threads in controls]
    _pin_blas()
    try:
        yield
    finally:
        _set_blas_threads(controls, saved)


def blas_threads() -> int | None:
    """OpenBLAS threads per process while panelur analyzes; None when no OpenBLAS is found.

    That is 1 unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set, in
    which case OpenBLAS keeps the count the variable gave it.
    """
    counts = [get_threads() for _, get_threads in _openblas_controls()]
    return 1 if counts and _blas_controls() else max(counts, default=None)
