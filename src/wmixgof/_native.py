"""The compiled code wmixgof reaches outside numpy's Python API.

scipy's L-BFGS-B routine ``setulb`` loads by file on the first fit, so a
caller that never fits loads no scipy. The scipy-openblas builds bundled
with numpy and scipy give their thread counts and, for numpy's, the LAPACKE
``dsyevd`` that ``eigvalsh_upper`` calls. Each binding is looked up once per
process and is None where the library or symbol is missing. Thread counts
follow one rule, ``one_blas_thread``: one thread for a block, then the count
found before it.
"""

from __future__ import annotations

import ctypes
import importlib
import os
from contextlib import contextmanager
from functools import cache

import numpy as np


def _scipy_extension(package: str, module: str):
    """Compiled module ``scipy.<package>.<module>``, loaded from its file.

    Importing it by name would run the package's ``__init__``, which pulls in
    scipy.linalg, scipy.sparse and scipy.fft: about 0.45 s and 37 MB of every
    fresh interpreter on 2 cores. Raises ImportError naming the directory.
    """
    import importlib.machinery
    import importlib.util

    import scipy

    path = os.path.join(os.path.dirname(scipy.__file__), package)
    spec = importlib.machinery.PathFinder.find_spec(f"scipy.{package}.{module}", [path])
    if spec is None:
        raise ImportError(f"scipy has no compiled module {module!r} in {path}")
    extension = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(extension)
    return extension


@cache
def setulb():
    """scipy's L-BFGS-B reverse-communication routine, loaded on the first call.

    A study with known parameters, ``eigen-check`` and a caller that never
    fits then load neither scipy nor its second OpenBLAS.
    """
    return _scipy_extension("optimize", "_lbfgsb").setulb


@cache
def openblas(package: str):
    """The scipy-openblas library bundled with ``package`` (ctypes.CDLL), or None.

    numpy and scipy wheels each bundle their own scipy-openblas build in
    ``<package>.libs``; numpy's is the 64-bit-integer build, whose functions
    carry a ``64_`` suffix.
    """
    root = os.path.dirname(importlib.import_module(package).__file__)
    libs = os.path.join(root, os.pardir, f"{package}.libs")
    try:
        names = [n for n in os.listdir(libs) if n.startswith("libscipy_openblas")]
    except OSError:
        return None
    if len(names) != 1:
        return None
    return ctypes.CDLL(os.path.join(libs, names[0]))


@cache
def blas_threads(package: str):
    """(get, set) thread-count functions of the OpenBLAS bundled with ``package``, or None."""
    lib = openblas(package)
    if lib is None:
        return None
    for suffix in ("", "64_"):
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
        if get_threads and set_threads:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get_threads, set_threads
    return None


@contextmanager
def one_blas_thread(package: str):
    """Hold the OpenBLAS bundled with ``package`` at one thread, then restore its count.

    Where ``package`` bundles no OpenBLAS this does nothing. It loads
    ``package``, so a caller that must not load scipy never asks for scipy's.
    """
    threads = blas_threads(package)
    if threads is None:
        yield
        return
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


@cache
def dsyevd():
    """LAPACKE_dsyevd of the OpenBLAS bundled with numpy, or None where it has none.

    It is the routine ``np.linalg.eigvalsh`` calls, in the same library, so
    it gives the same eigenvalues bit for bit; called directly it works in
    place on a buffer the caller owns instead of on a copy.
    """
    solver = getattr(openblas("numpy"), "scipy_LAPACKE_dsyevd64_", None)
    if solver is None:
        return None
    # int matrix_layout, char jobz, char uplo, int64 n, double *a, int64 lda,
    # double *w -> int64 info
    solver.argtypes = [
        ctypes.c_int,
        ctypes.c_char,
        ctypes.c_char,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_void_p,
    ]
    solver.restype = ctypes.c_int64
    return solver


def eigvalsh_upper(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric matrix in the upper triangle of ``a``.

    ``dsyevd`` overwrites the C-ordered float64 array ``a``: handed over in
    LAPACKE's column-major layout (102), its upper triangle is the lower
    one ('L') of the transpose the solver sees. Without the binding, eigvalsh
    reads ``a.T`` the same way, on a copy. Raises np.linalg.LinAlgError.
    """
    solver = dsyevd()
    if solver is None:
        return np.linalg.eigvalsh(a.T)
    m = a.shape[0]
    lam = np.empty(m)
    info = solver(102, b"N", b"L", m, a.ctypes.data, m, lam.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd info {info}")
    return lam
