"""One BLAS thread for the solver's dense work.

numpy and scipy each bundle an OpenBLAS, and each starts a pool of one
thread per core when it loads.  An equations-of-motion call alternates
between the two on blocks of a few hundred rows, too small for threads to
pay, so on a 2-core machine four BLAS threads wait on two cores.
``single_thread`` sets every OpenBLAS mapped into the process to one
thread and restores the previous counts at the outermost exit.  Other BLAS
builds (MKL, Accelerate) are not found and are left alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

# the C entry points; the Fortran ones (a trailing "_", or "_64_") take
# their argument by pointer
_NAMES = [(f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
          for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
# the thread counts are process-wide library state, and so is the scope
_lock = threading.Lock()
_depth = 0
_saved = {}


@functools.cache
def libraries():
    """{basename: (get_num_threads, set_num_threads)} of every OpenBLAS
    the process has loaded, found once from /proc/self/maps ({} elsewhere)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return {}
    found = {}
    for path in sorted(p for p in paths if os.path.isfile(p)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except (OSError, AttributeError):
            continue
        for get, put in _NAMES:
            if hasattr(lib, get) and hasattr(lib, put):
                get, put = getattr(lib, get), getattr(lib, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found[os.path.basename(path)] = (get, put)
                break
    return found


def thread_counts():
    """{basename: thread count} of the OpenBLAS libraries found."""
    return {name: get() for name, (get, _) in libraries().items()}


@contextmanager
def single_thread():
    """Run the body with one thread in every OpenBLAS found.  Nested or
    concurrent entries share one scope: the counts found at the first
    entry come back at the last exit."""
    global _depth
    with _lock:
        if _depth == 0:
            _saved.update(thread_counts())
            for _, put in libraries().values():
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for name, (_, put) in libraries().items():
                    put(_saved.pop(name))
