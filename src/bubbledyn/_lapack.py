"""LU factorization, LU solves and the reciprocal condition estimate of the
collocation systems: LAPACK's dgetrf, dgetrs and dgecon (Anderson et al.,
LAPACK Users' Guide, 3rd ed., SIAM 1999), under scipy.linalg's names
``lu_factor`` and ``lu_solve``.

The routines come through ctypes from the OpenBLAS that numpy itself
links, so that the solver process loads numpy alone: importing
scipy.linalg for three routines took about half of a run's start-up.
numpy's OpenBLAS is the one, among those ``_blas.mapped`` finds, whose
dgetrf numpy's own linalg extension resolves to.  So it is numpy's even
where scipy's OpenBLAS was loaded first, and its threads are the ones
``_blas.single_thread`` sets.  Where numpy links another LAPACK (MKL,
Accelerate) or /proc/self/maps cannot be read, the same three routines
come from scipy.linalg.lapack, imported only then.

dgecon gets work arrays aligned to 64 bytes, so that the estimate of one
LU has the same bits whatever the heap held before the call.  The
scipy.linalg.lapack fallback allocates its own work array, and there
the estimate can still differ in its last bits between calls.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Callable, NamedTuple

import numpy as np

from . import _blas

# the symbol forms OpenBLAS builds export, with their Fortran integer:
# scipy's wheels prefix "scipy_", and an ILP64 build ends in "_64_" and
# takes 64-bit integers
_FORMS = [(prefix, suffix, ctypes.c_int64 if suffix == "_64_" else ctypes.c_int32)
          for prefix in ("scipy_", "") for suffix in ("_64_", "_")]


class Lapack(NamedTuple):
    """dgetrf, dgetrs and dgecon of one provider, called as
    scipy.linalg.lapack calls them: getrf(a) -> (lu, piv, info),
    getrs(lu, piv, b, trans=0) -> (x, info), gecon(lu, anorm) ->
    (rcond, info), with lu in Fortran order, piv zero-based, trans 0 for
    A x = b and 1 (or 2, the same for real A) for A^T x = b, and the
    1-norm estimate."""

    getrf: Callable
    getrs: Callable
    gecon: Callable


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


def _openblas(lib, prefix, suffix, fint) -> Lapack:
    """The routines of the OpenBLAS ``lib``, whose symbols are
    ``prefix + name + suffix`` and whose integers are ``fint``.  Every
    argument goes by reference, and each character argument's length
    follows the last one, as gfortran passes it.  The shapes are checked
    here, since LAPACK cannot check them."""
    ptr, char, length = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
    ref = ctypes.byref

    def bind(name, argtypes):
        fn = getattr(lib, f"{prefix}{name}{suffix}")
        fn.argtypes, fn.restype = argtypes, None
        return fn

    dgetrf = bind("dgetrf", [ptr] * 6)
    dgetrs = bind("dgetrs", [char] + [ptr] * 8 + [length])
    dgecon = bind("dgecon", [char] + [ptr] * 8 + [length])

    def square(lu):
        lu = np.asfortranarray(lu, dtype=np.float64)
        if lu.ndim != 2 or lu.shape[0] != lu.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {lu.shape}")
        return lu, len(lu)

    def getrf(a):
        lu, n = square(np.array(a, dtype=np.float64, order="F"))
        piv, info = np.empty(n, dtype=fint), fint()
        dgetrf(ref(fint(n)), ref(fint(n)), lu.ctypes.data, ref(fint(max(1, n))),
               piv.ctypes.data, ref(info))
        piv -= 1
        return lu, piv, info.value

    def getrs(lu, piv, b, trans=0):
        if trans not in (0, 1, 2):
            raise ValueError(f"trans must be 0, 1 or 2, got {trans!r}")
        lu, n = square(lu)
        ipiv = np.asarray(piv, dtype=fint) + 1
        x = np.array(b, dtype=np.float64, order="F")
        if ipiv.shape != (n,) or x.ndim not in (1, 2) or len(x) != n:
            raise ValueError(f"LU of order {n} with pivots of shape {ipiv.shape} "
                             f"cannot solve for right-hand sides of shape {x.shape}")
        info = fint()
        dgetrs(b"NTC"[trans:trans + 1], ref(fint(n)),
               ref(fint(x.shape[1] if x.ndim == 2 else 1)),
               lu.ctypes.data, ref(fint(max(1, n))), ipiv.ctypes.data, x.ctypes.data,
               ref(fint(max(1, n))), ref(info), 1)
        return x, info.value

    def gecon(lu, anorm):
        lu, n = square(lu)
        rcond, info = ctypes.c_double(), fint()
        work, iwork = _aligned(4 * n, np.float64), _aligned(n, fint)
        dgecon(b"1", ref(fint(n)), lu.ctypes.data, ref(fint(max(1, n))),
               ref(ctypes.c_double(anorm)), ref(rcond), work.ctypes.data,
               iwork.ctypes.data, ref(info), 1)
        return rcond.value, info.value

    return Lapack(getrf, getrs, gecon)


def numpy_openblas():
    """The routines of the OpenBLAS numpy links, or None where numpy's
    LAPACK is not an OpenBLAS that _blas.mapped finds.  A symbol looked up
    through numpy's linalg extension resolves in what that extension
    links, not in whatever else the process has loaded."""
    candidates = _blas.mapped()
    if not candidates:
        return None
    try:
        from numpy.linalg import _umath_linalg
        linalg = ctypes.CDLL(_umath_linalg.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except (ImportError, OSError, AttributeError):
        return None
    for _, lib in candidates:
        for prefix, suffix, fint in _FORMS:
            name = f"{prefix}dgetrf{suffix}"
            ours, numpys = getattr(lib, name, None), getattr(linalg, name, None)
            if (ours is not None and numpys is not None
                    and ctypes.cast(ours, ctypes.c_void_p).value
                    == ctypes.cast(numpys, ctypes.c_void_p).value):
                return _openblas(lib, prefix, suffix, fint)
    return None


def scipy_lapack() -> Lapack:
    """The routines of scipy.linalg.lapack (imports scipy.linalg)."""
    from scipy.linalg import lapack
    return Lapack(lapack.dgetrf, lapack.dgetrs, functools.partial(lapack.dgecon, norm="1"))


@functools.cache
def provider() -> Lapack:
    """numpy's OpenBLAS routines, else scipy.linalg.lapack's; chosen on
    first use and kept for the process."""
    return numpy_openblas() or scipy_lapack()


def lu_factor(a):
    """(lu, piv) of the square matrix ``a``, as scipy.linalg.lu_factor
    returns them, except that an exactly zero pivot raises
    numpy.linalg.LinAlgError where scipy only warns."""
    lu, piv, info = provider().getrf(a)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    if info > 0:
        raise np.linalg.LinAlgError(f"exactly singular: U[{info - 1}, {info - 1}] is zero")
    return lu, piv


def lu_solve(lu_and_piv, b, trans=0):
    """Solution of A x = b (``trans`` 0) or A^T x = b (1, or 2 as for a
    complex A^H) from lu_factor's (lu, piv) of A, shaped as ``b`` (a
    vector or a matrix of columns), as scipy.linalg.lu_solve."""
    x, info = provider().getrs(*lu_and_piv, b, trans=trans)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def rcond(lu, anorm) -> float:
    """Reciprocal 1-norm condition estimate of A from lu_factor's lu of A
    and A's 1-norm ``anorm``."""
    rc, info = provider().gecon(lu, anorm)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of gecon")
    return float(rc)
