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
    # UPLO, N, A, LDA, D, E, TAU, WORK, LWORK, INFO
    "dsytrd": (ctypes.c_char_p, _INT_P, _PTR, _INT_P, _PTR, _PTR, _PTR, _PTR, _INT_P, _INT_P,
               ctypes.c_size_t),
    # SIDE, UPLO, TRANS, M, N, A, LDA, TAU, C, LDC, WORK, LWORK, INFO
    "dormtr": (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, _INT_P, _INT_P, _PTR, _INT_P,
               _PTR, _PTR, _INT_P, _PTR, _INT_P, _INT_P, ctypes.c_size_t, ctypes.c_size_t,
               ctypes.c_size_t),
    # COMPZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO
    "dstedc": (ctypes.c_char_p, _INT_P, _PTR, _PTR, _PTR, _INT_P, _PTR, _INT_P, _PTR, _INT_P,
               _INT_P, ctypes.c_size_t),
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


# dsyevd scales a matrix whose largest |entry| lies outside [_RMIN, _RMAX]:
# sqrt(safe minimum / precision) and its reciprocal.
_RMIN, _RMAX = 2.0 ** -485, 2.0 ** 485


def _eigh_projections(a: np.ndarray, rhs: np.ndarray, work: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric, C-contiguous float64 matrix, ascending, and
    the projections of rhs, a vector or an n x k block, onto its eigenvectors,
    which are not formed; a's buffer is overwritten.

    np.linalg.eigh runs dsyevd('V', 'L'): it scales a whose largest |entry|
    lies outside [_RMIN, _RMAX], dsytrd reduces a to a tridiagonal
    T = Q^T a Q, dstedc('I') finds T's eigenvectors Z, and Q Z are a's.  The
    same scaling, dsytrd (whose queried workspace keeps its block size) and
    dstedc run here, so the eigenvalues carry eigh's bits.  dormtr forms
    w = Q^T rhs on all k columns while a still holds Q's reflectors, in rhs's
    own buffer where rhs is a writeable, Fortran-ordered float64 array and in
    a copy otherwise; dstedc writes Z into a's buffer, and the projections
    are Z^T w, eigh's eigenvectors^T rhs up to rounding, written to the front
    of the workspace once dstedc is done with it.  work, a 1-D writeable,
    contiguous float64 array apart from a and rhs, supplies that workspace
    where it holds enough (n^2 + 4 n + 1 doubles past n = 25); otherwise it
    is allocated.  Without the symbols it calls eigh.
    """
    routines = [_lapack(name) for name in ("dsytrd", "dormtr", "dstedc")]
    if None in routines:
        evals, vecs = np.linalg.eigh(a)
        return evals, vecs.T @ rhs
    dsytrd, dormtr, dstedc = routines
    if not (a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
            and a.ndim == 2 and a.shape[0] == a.shape[1]):
        raise ValueError("LAPACK needs a square, writeable, C-contiguous float64 matrix")
    w = np.require(rhs, np.float64, ("F", "W"))  # rhs, then Q^T rhs
    size = a.shape[0]
    if w.ndim not in (1, 2) or w.shape[0] != size:
        raise ValueError("rhs must have one row per row of the matrix")
    if work is not None and not (work.dtype == np.float64 and work.flags.c_contiguous
                                 and work.flags.writeable and work.ndim == 1
                                 and not np.may_share_memory(a, work)
                                 and not np.may_share_memory(w, work)):
        raise ValueError("the workspace must be a 1-D, writeable, contiguous float64 "
                         "array apart from the matrix and the right-hand side")
    sigma = None
    if size > 1:  # dsyevd returns a 1 x 1 matrix's entry unscaled
        anrm = max(float(a.max()), -float(a.min()))
        if 0.0 < anrm < _RMIN:
            sigma = _RMIN / anrm
        elif anrm > _RMAX:
            sigma = _RMAX / anrm
        if sigma is not None:
            a *= sigma
    n, info = ctypes.c_int64(size), ctypes.c_int64(0)
    cols = ctypes.c_int64(1 if w.ndim == 1 else w.shape[1])
    d, e, tau = np.empty(size), np.empty(max(size - 1, 1)), np.empty(max(size - 1, 1))
    lwork, liwork = ctypes.c_int64(-1), ctypes.c_int64(-1)
    ref = ctypes.byref

    def steps(work, iwork):
        """dsytrd, dormtr and dstedc, yielding each one's name after its call;
        with lwork = -1 each call is a workspace query."""
        dsytrd(b"L", ref(n), a.ctypes.data, ref(n), d.ctypes.data, e.ctypes.data,
               tau.ctypes.data, work, ref(lwork), ref(info), 1)
        yield "dsytrd"
        dormtr(b"L", b"L", b"T", ref(n), ref(cols), a.ctypes.data, ref(n), tau.ctypes.data,
               w.ctypes.data, ref(n), work, ref(lwork), ref(info), 1, 1, 1)
        yield "dormtr"
        dstedc(b"I", ref(n), d.ctypes.data, e.ctypes.data, a.ctypes.data, ref(n), work,
               ref(lwork), iwork, ref(liwork), ref(info), 1)
        yield "dstedc"

    # The workspace takes each routine's queried size, then the projections.
    work_size, iwork_size, sizes = ctypes.c_double(0.0), ctypes.c_int64(0), [w.size]
    for _ in steps(ctypes.addressof(work_size), ctypes.addressof(iwork_size)):
        sizes.append(int(work_size.value))
    need = max(sizes)
    work = work[:need] if work is not None and work.size >= need else np.empty(need)
    iwork = np.empty(iwork_size.value, dtype=np.int64)
    lwork.value, liwork.value = work.size, iwork.size
    for name in steps(work.ctypes.data, iwork.ctypes.data):
        if info.value != 0:
            raise np.linalg.LinAlgError(f"Eigenvalues did not converge ({name} info {info.value})")
    if sigma is not None:
        d *= 1.0 / sigma
    # a holds Z column-major, so its rows are Z's columns and a @ w is Z^T w.
    return d, np.matmul(a, w, out=work[:w.size].reshape(w.shape, order="F"))


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
