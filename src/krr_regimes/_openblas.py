"""The OpenBLAS that numpy bundles, called through ctypes: the in-place LAPACK
routines and the one-thread pin.

Every foreign call of the package goes through _library(), one handle on the
extension module that numpy.linalg runs; its OpenBLAS also runs numpy's
matrix products.  Where a symbol is missing (numpy links another BLAS or
LAPACK, or an OpenBLAS older than 0.3.27), each caller falls back: the
eigensolver to np.linalg.eigh, the Cholesky solve to np.linalg.cholesky and
np.linalg.solve, and the pin to nothing, so the solves' rounding then
follows the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

import numpy as np


@functools.cache
def _library():
    """The shared library of numpy.linalg's extension module, or None."""
    try:
        from numpy.linalg import _umath_linalg

        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None


def _function(symbol: str, argtypes: tuple, restype):
    """symbol of _library() with its signature set, or None where it is missing."""
    fn = getattr(_library(), symbol, None)
    if fn is not None and fn.argtypes is None:
        fn.restype, fn.argtypes = restype, argtypes  # argtypes last: it marks fn as set
    return fn


_INT_P, _PTR = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
# Arguments of the LAPACK routines called through ctypes: the Fortran ones, then
# the hidden lengths of the character arguments.
_LAPACK_ARGS = {
    # JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO
    "dsyevd": (ctypes.c_char_p, ctypes.c_char_p, _INT_P, _PTR, _INT_P, _PTR, _PTR, _INT_P,
               _PTR, _INT_P, _INT_P, ctypes.c_size_t, ctypes.c_size_t),
    # UPLO, N, A, LDA, INFO
    "dpotrf": (ctypes.c_char_p, _INT_P, _PTR, _INT_P, _INT_P, ctypes.c_size_t),
    # UPLO, N, NRHS, A, LDA, B, LDB, INFO
    "dpotrs": (ctypes.c_char_p, _INT_P, _INT_P, _PTR, _INT_P, _PTR, _INT_P, _INT_P,
               ctypes.c_size_t),
}


def _lapack(name: str):
    """LAPACK routine name (a key of _LAPACK_ARGS) of the ILP64 OpenBLAS that
    numpy wheels bundle, or None."""
    return _function(f"scipy_{name}_64_", _LAPACK_ARGS[name], None)


def _setter():
    """OpenBLAS's openblas_set_num_threads_local, which returns the count it replaces, or None."""
    return _function("openblas_set_num_threads_local", (ctypes.c_int,), ctypes.c_int)


def _eigh_overwrite(a: np.ndarray, work: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(a) of a symmetric, C-contiguous float64 matrix, computed in
    a's buffer, which then holds the eigenvectors.

    numpy's eigh runs dsyevd('V', 'L') with the queried workspace on a Fortran
    copy of its input; for a symmetric a that copy holds a's own bytes, so the
    same call on a's buffer gives the same bits without the copy and the
    separate eigenvector output.  work, a 1-D writeable, contiguous float64
    array that must not overlap a, supplies that workspace where it holds
    enough (2 n^2 + 6 n + 1 doubles); otherwise the workspace is allocated.
    Without the symbol it calls eigh.
    """
    dsyevd = _lapack("dsyevd")
    if dsyevd is None:
        return np.linalg.eigh(a)
    if not (a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
            and a.ndim == 2 and a.shape[0] == a.shape[1]):
        raise ValueError("dsyevd needs a square, writeable, C-contiguous float64 matrix")
    if work is not None and not (work.dtype == np.float64 and work.flags.c_contiguous
                                 and work.flags.writeable and work.ndim == 1
                                 and not np.may_share_memory(a, work)):
        raise ValueError("dsyevd's workspace must be a 1-D, writeable, contiguous float64 "
                         "array apart from the matrix")
    n = ctypes.c_int64(a.shape[0])
    evals = np.empty(a.shape[0])
    lwork, liwork, info = ctypes.c_int64(-1), ctypes.c_int64(-1), ctypes.c_int64(0)
    work_size, iwork_size = ctypes.c_double(0.0), ctypes.c_int64(0)

    def call(work, iwork):
        dsyevd(b"V", b"L", ctypes.byref(n), a.ctypes.data, ctypes.byref(n), evals.ctypes.data,
               work, ctypes.byref(lwork), iwork, ctypes.byref(liwork), ctypes.byref(info), 1, 1)
        if info.value != 0:
            raise np.linalg.LinAlgError(f"Eigenvalues did not converge (dsyevd info {info.value})")

    call(ctypes.addressof(work_size), ctypes.addressof(iwork_size))
    size = int(work_size.value)
    work = work[:size] if work is not None and work.size >= size else np.empty(size)
    iwork = np.empty(iwork_size.value, dtype=np.int64)
    lwork.value, liwork.value = work.size, iwork.size
    call(work.ctypes.data, iwork.ctypes.data)
    return evals, a.T


def _cholesky_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs for a symmetric, Fortran-ordered float64 a, which may be
    overwritten; raises LinAlgError where a is not positive definite.

    dpotrf('U') in a's buffer, then dpotrs('U') on a copy of rhs.  Where the
    symbols are missing, np.linalg.cholesky tests definiteness and
    np.linalg.solve solves: the same solution up to rounding, not to the bit.
    """
    dpotrf, dpotrs = _lapack("dpotrf"), _lapack("dpotrs")
    if dpotrf is None or dpotrs is None:
        np.linalg.cholesky(a)
        return np.linalg.solve(a, rhs)
    x = np.array(rhs, dtype=np.float64, order="F")
    if not (a.dtype == np.float64 and a.flags.f_contiguous and a.flags.writeable
            and a.ndim == 2 and a.shape[0] == a.shape[1] and x.ndim in (1, 2)
            and x.shape[0] == a.shape[0]):
        raise ValueError("Cholesky solve needs a square, writeable, Fortran-ordered "
                         "float64 matrix and a matching right-hand side")
    n, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64(0)
    dpotrf(b"U", ctypes.byref(n), a.ctypes.data, ctypes.byref(n), ctypes.byref(info), 1)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{info.value}-th leading minor not positive definite")
    nrhs = ctypes.c_int64(x.size // a.shape[0])
    dpotrs(b"U", ctypes.byref(n), ctypes.byref(nrhs), a.ctypes.data, ctypes.byref(n),
           x.ctypes.data, ctypes.byref(n), ctypes.byref(info), 1)
    return x


_pin_lock = threading.Lock()
_pin_depth = 0  # open _one_blas_thread blocks, over all threads
_pin_saved = None  # thread count before the outermost block, None without a setter


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside the block, then restore the earlier count.

    OpenBLAS applies the count to the whole process, and so to calls from every
    thread, so blocks are counted: the first to open sets 1 thread and the last
    to close restores the count it replaced.  Without a setter this does nothing.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            setter = _setter()
            _pin_saved = None if setter is None else setter(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0 and _pin_saved is not None:
                _setter()(_pin_saved)
