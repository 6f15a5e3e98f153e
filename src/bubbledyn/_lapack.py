"""LU factorization, LU solves and the reciprocal condition estimate of the
collocation systems: LAPACK's dgetrf, dgetrs and dgecon (Anderson et al.,
LAPACK Users' Guide, 3rd ed., SIAM 1999), under scipy.linalg's names
``lu_factor`` and ``lu_solve``, and one BLAS thread for the library they
come from.

``provider`` finds that library once per process, through the handle of an
extension module that links it: a symbol looked up through an extension's
handle resolves in what that extension links, not in whatever else the
process has loaded.  It is the OpenBLAS that numpy's linalg extension
links, so that the solver process loads numpy alone (importing
scipy.linalg for three routines took about half of a run's start-up) and
its LAPACK is the library its products run on.  Where numpy links another
LAPACK (MKL, Accelerate), it is the OpenBLAS that scipy's LAPACK extension
links, found the same way; where that is not an OpenBLAS either, the same
three routines come from scipy.linalg.lapack, with no thread calls.

numpy's OpenBLAS starts a pool of one thread per core when it loads.  An
equations-of-motion call works on blocks of a few hundred rows, too small
for threads to pay: on a 2-core machine a 160 x 18 LU solve took 8.1 ms
threaded against 0.56 ms on one thread.  ``single_thread`` sets the
library found, which runs the products and the LAPACK routines alike, to
one thread and restores its previous count at the outermost exit.  No
other library's pool is touched: not scipy's in a process that imported
scipy but solves on numpy's, and not a BLAS other than OpenBLAS (MKL,
Accelerate).

An LU stays in LAPACK's own form, a Fortran-ordered lu and one-based
pivots in the library's integer type: the pair that lu_factor returns is
read only by lu_solve and rcond, of the same provider, which neither
convert nor re-validate it.  They still check what LAPACK cannot, the
right-hand side's shape and ``trans``.

dgecon gets work arrays aligned to 64 bytes, so that the estimate of one
LU has the same bits whatever the heap held before the call.  The
scipy.linalg.lapack routines allocate their own work array, and there the
estimate can still differ in its last bits between calls.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

# the symbol forms OpenBLAS builds export: scipy's wheels prefix "scipy_",
# and an ILP64 build's LAPACK names end in "_64_", its C thread calls in
# "64_", and it takes 64-bit integers
_FORMS = [(prefix, suffix, threads, fint) for prefix in ("scipy_", "")
          for suffix, threads, fint in (("_64_", "64_", ctypes.c_int64),
                                        ("_", "", ctypes.c_int32))]


class Lapack(NamedTuple):
    """dgetrf, dgetrs and dgecon of one provider, with the thread calls of
    its library: getrf(a) -> (lu, piv, info), getrs(lu, piv, b, trans=0)
    -> (x, info), gecon(lu, anorm) -> (rcond, info), with (lu, piv) in
    LAPACK's form, trans 0 for A x = b and 1 (or 2, the same for real A)
    for A^T x = b (lu_solve rejects any other), and the 1-norm estimate;
    ``threads`` is {library basename: (get_num_threads, set_num_threads)},
    {} where the library is not an OpenBLAS."""

    getrf: Callable
    getrs: Callable
    gecon: Callable
    threads: dict


class _DlInfo(ctypes.Structure):
    _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]


def _aligned(n, dtype):
    """An empty array of ``n`` items whose data starts on a 64-byte
    boundary.  OpenBLAS's kernels sum in an order that depends on the
    alignment of the arrays they are given: with dgecon's work array as
    the heap left it, the estimate for one LU moved in its last bit from
    call to call."""
    size = n * np.dtype(dtype).itemsize
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype)


def _library_name(fn, default):
    """Basename of the shared library that defines the C function ``fn``
    (dladdr), or ``default`` where it cannot be told."""
    info = _DlInfo()
    dladdr = getattr(ctypes.CDLL(None), "dladdr", None)
    if dladdr is None:
        return default
    dladdr.argtypes, dladdr.restype = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)], ctypes.c_int
    if not dladdr(ctypes.cast(fn, ctypes.c_void_p), ctypes.byref(info)):
        return default
    return os.path.basename(os.path.realpath(os.fsdecode(info.fname)))


def _openblas(module) -> Lapack | None:
    """The routines and thread calls of the OpenBLAS that the extension
    module ``module`` (a dotted name, imported here) links, or None where
    it links none in a form of _FORMS.  Every argument goes by reference,
    and each character argument's length follows the last one, as gfortran
    passes it."""
    try:
        lib = ctypes.CDLL(importlib.import_module(module).__file__,
                          mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except (ImportError, OSError, AttributeError):
        return None
    for prefix, suffix, threads, fint in _FORMS:
        names = ([f"{prefix}{name}{suffix}" for name in ("dgetrf", "dgetrs", "dgecon")]
                 + [f"{prefix}openblas_{op}_num_threads{threads}" for op in ("get", "set")])
        if all(hasattr(lib, name) for name in names):
            break
    else:
        return None
    ptr, char, length = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
    ref = ctypes.byref
    dgetrf, dgetrs, dgecon, get, put = map(functools.partial(getattr, lib), names)
    for fn, argtypes in ((dgetrf, [ptr] * 6), (dgetrs, [char] + [ptr] * 8 + [length]),
                         (dgecon, [char] + [ptr] * 8 + [length]), (get, []),
                         (put, [ctypes.c_int])):
        fn.argtypes, fn.restype = argtypes, None
    get.restype = ctypes.c_int

    def getrf(a):
        lu = np.array(a, dtype=np.float64, order="F")
        if lu.ndim != 2 or lu.shape[0] != lu.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {lu.shape}")
        n = len(lu)
        piv, info = np.empty(n, dtype=fint), fint()
        dgetrf(ref(fint(n)), ref(fint(n)), lu.ctypes.data, ref(fint(max(1, n))),
               piv.ctypes.data, ref(info))
        return lu, piv, info.value

    def getrs(lu, piv, b, trans=0):
        n, x = len(piv), np.array(b, dtype=np.float64, order="F")
        if x.ndim not in (1, 2) or len(x) != n:
            raise ValueError(f"an LU of order {n} cannot solve for right-hand sides "
                             f"of shape {x.shape}")
        lead, info = ref(fint(max(1, n))), fint()
        dgetrs(b"NTC"[trans:trans + 1], ref(fint(n)),
               ref(fint(x.shape[1] if x.ndim == 2 else 1)), lu.ctypes.data, lead,
               piv.ctypes.data, x.ctypes.data, lead, ref(info), 1)
        return x, info.value

    def gecon(lu, anorm):
        n = len(lu)
        rcond, info = ctypes.c_double(), fint()
        work, iwork = _aligned(4 * n, np.float64), _aligned(n, fint)
        dgecon(b"1", ref(fint(n)), lu.ctypes.data, ref(fint(max(1, n))),
               ref(ctypes.c_double(anorm)), ref(rcond), work.ctypes.data,
               iwork.ctypes.data, ref(info), 1)
        return rcond.value, info.value

    return Lapack(getrf, getrs, gecon, {_library_name(get, module): (get, put)})


def _scipy_lapack() -> Lapack:
    """The routines of scipy.linalg.lapack (imports scipy.linalg), with the
    pivots one-based as LAPACK's own."""
    from scipy.linalg import lapack

    def getrf(a):
        lu, piv, info = lapack.dgetrf(a)
        return lu, piv + 1, info

    def getrs(lu, piv, b, trans=0):
        return lapack.dgetrs(lu, piv - 1, b, trans=trans)

    return Lapack(getrf, getrs, functools.partial(lapack.dgecon, norm="1"), {})


@functools.cache
def provider() -> Lapack:
    """The routines of the OpenBLAS numpy's linalg extension links, else of
    the one scipy's LAPACK extension links, else scipy.linalg.lapack's;
    found on first use and kept for the process."""
    return (_openblas("numpy.linalg._umath_linalg") or _openblas("scipy.linalg._flapack")
            or _scipy_lapack())


def lu_factor(a):
    """The LU of the square matrix ``a`` in LAPACK's form (lu, piv), for
    lu_solve and rcond alone.  An exactly zero pivot raises
    numpy.linalg.LinAlgError where scipy.linalg.lu_factor only warns."""
    lu, piv, info = provider().getrf(a)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    if info > 0:
        raise np.linalg.LinAlgError(f"exactly singular: U[{info - 1}, {info - 1}] is zero")
    return lu, piv


def lu_solve(lu_and_piv, b, trans=0):
    """Solution of A x = b (``trans`` 0) or A^T x = b (1, or 2 as for a
    complex A^H) from lu_factor's pair of A, shaped as ``b`` (a vector or
    a matrix of columns), as scipy.linalg.lu_solve."""
    if trans not in (0, 1, 2):
        raise ValueError(f"trans must be 0, 1 or 2, got {trans!r}")
    x, info = provider().getrs(*lu_and_piv, b, trans=trans)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def rcond(lu_and_piv, anorm) -> float:
    """Reciprocal 1-norm condition estimate of A from lu_factor's pair of A
    and A's 1-norm ``anorm``."""
    rc, info = provider().gecon(lu_and_piv[0], anorm)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of gecon")
    return float(rc)


def thread_counts():
    """{basename: thread count} of the OpenBLAS the solver's routines run
    on ({} where provider found none)."""
    return {name: get() for name, (get, _) in provider().threads.items()}


# the thread counts are process-wide library state, and so is the scope
_lock = threading.Lock()
_depth = 0
_saved = {}


@contextmanager
def single_thread():
    """Run the body with one thread in the OpenBLAS the solver's routines
    run on.  Nested or concurrent entries share one scope: the count found
    at the first entry comes back at the last exit."""
    global _depth
    with _lock:
        if _depth == 0:
            _saved.update(thread_counts())
            for _, put in provider().threads.values():
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for name, (_, put) in provider().threads.items():
                    put(_saved.pop(name))
