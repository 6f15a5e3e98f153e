"""One BLAS thread for the solver's dense work.

numpy's OpenBLAS starts a pool of one thread per core when it loads.  An
equations-of-motion call works on blocks of a few hundred rows, too small
for threads to pay: on a 2-core machine a 160 x 18 LU solve took 8.1 ms
threaded against 0.56 ms on one thread.  ``single_thread`` sets every
OpenBLAS mapped into the process to one thread and restores the previous
counts at the outermost exit.  The solver loads one, numpy's, and takes
its LAPACK routines from there too (_lapack, which finds it through
``mapped``); a process that also imports scipy maps scipy's, which is set
as well.  Other BLAS builds (MKL, Accelerate) are not found and are left
alone.
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


def mapped():
    """[(path, handle)] of every OpenBLAS mapped into the process, in path
    order, found from /proc/self/maps ([] where it cannot be read)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths if os.path.isfile(p)):
        try:
            found.append((path, ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)))
        except (OSError, AttributeError):
            continue
    return found


@functools.cache
def libraries():
    """{basename: (get_num_threads, set_num_threads)} of every OpenBLAS
    the process has loaded, found once ({} where none is found)."""
    found = {}
    for path, lib in mapped():
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
