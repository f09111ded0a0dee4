"""ctypes binding of the compiled simplex kernel ``_simplex.c``.

``setup.py`` builds that file as the plain shared library ``_simplex_c``
next to this module. ``Kernel`` offers the interface of ``_simplex_py`` and,
per LP, its results bit for bit.
"""

import ctypes
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from ._simplex_py import PIVOT_TOL

_HERE = os.path.dirname(os.path.abspath(__file__))


class Kernel:
    """The ``_simplex_c`` library in ``directory``; OSError if none loads."""

    def __init__(self, directory=_HERE):
        # found by hand: numpy.ctypeslib.load_library reads sysconfig, which
        # costs every import of homproj milliseconds and 256 KB of memory
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(directory, "_simplex_c" + suffix)
            if os.path.exists(path):
                break
        else:
            raise OSError(f"no _simplex_c library in {directory}")
        solve = ctypes.CDLL(path).simplex_maximize_batch
        solve.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_double] + [ctypes.c_void_p] * 6
        solve.restype = ctypes.c_int
        self._solve = solve

    def simplex_maximize(self, A, b, c):
        """One program: the B = 1 case of ``simplex_maximize_batch``."""
        status, obj, x = self.simplex_maximize_batch([A], b, c)
        return int(status[0]), obj[0], x[0]

    def simplex_maximize_batch(self, A, b, c):
        """Same contract as ``_simplex_py.simplex_maximize_batch``."""
        A = np.ascontiguousarray(A, dtype=float)
        b = np.ascontiguousarray(b, dtype=float)
        c = np.ascontiguousarray(c, dtype=float)
        B, m, n = A.shape
        if b.shape != (m,) or c.shape != (n,):
            raise ValueError(f"b {b.shape}, c {c.shape} do not fit A {A.shape}")
        status = np.empty(B, dtype=np.int64)
        obj = np.empty(B)
        x = np.empty((B, n))
        arrays = (A, b, c, status, obj, x)
        if self._solve(B, m, n, PIVOT_TOL, *(a.ctypes.data for a in arrays)):
            raise MemoryError("no memory for a simplex tableau")
        return status, obj, x
