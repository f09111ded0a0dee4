"""LP front end: backend selection and the separation-margin program.

Every geometric predicate in the package reduces to one LP shape: find the direction u,
|u|_inf <= 1, maximizing the smallest u . d over a given list D of difference vectors d. A
strictly positive optimum certifies strict separation (extreme point, exposed vertex, exposed
diameter). Each program is solved at its ``_binade`` scale with the kernel's fixed pivot
tolerance ``_simplex_py.PIVOT_TOL``.

Callers with many programs at once (the open LPs of a stack of hulls, all pair LPs of one
diameter enumeration) pass them together to ``margin_directions``, one kernel batch call. The
parity contract is per LP: each result is bit for bit that program's alone, on either backend.

One screen rule skips a program on a positive verdict: a feasible u of the very program the kernel
would receive (the same D bytes) with min(D u) over a bar, as delta* >= min(D u): 2 tol for hull
rows (``polytope.extreme_points_many``), 4 sqrt(n) tol for diameter pairs (``exposed._screen``).
Hull drops prove delta* = 0: no chord gap of pi in R^2, 2 tol inside every facet in R^3. So do pair
drops in R^2 to R^4 (``exposed._ray_screen``): no extreme ray of the pair's cone {u : D u >= 0}, or
in R^3 and R^4 a chord from one endpoint inside the cone of chords from the other.

The compiled kernel (``_simplex.c``, loaded by ``_simplex_ctypes``) is used when its library
loads; otherwise, or with HOMPROJ_FORCE_PYTHON=1, the numpy fallback ``_simplex_py`` is.
"""

import os

import numpy as np

from . import _simplex_py
from ._simplex_py import OPTIMAL
from .errors import BadNumber, DimensionMismatch, KernelError

if os.environ.get("HOMPROJ_FORCE_PYTHON"):
    _kernel, BACKEND = _simplex_py, "python"
else:
    try:
        from ._simplex_ctypes import Kernel

        _kernel, BACKEND = Kernel(), "c"
    except OSError:
        _kernel, BACKEND = _simplex_py, "python"


def _binade(X, axis):
    """(X / 2^e, e, m), 2^e putting m = max|X / 2^e| over ``axis`` in [0.5, 1) (axes kept).

    An all-zero slice has e = m = 0, one holding nan or inf has e = 0 and m nan or inf.
    A power of two is exact (Curtis & Reid, 1972): results at X / 2^e scale back bit for bit.
    """
    m, e = np.frexp(np.abs(X).max(axis=axis, initial=0.0, keepdims=True))
    return np.ldexp(X, -e), e, m


def _floats(x, what):
    """x as a float array; BadNumber if an entry is no number, DimensionMismatch if ragged."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        try:
            np.asarray(x)
        except ValueError:
            raise DimensionMismatch(f"{what}: nested entries do not share a common length") from exc
        raise BadNumber(f"{what}: an entry is not a number") from exc


def _vector(x, dim, what):
    """x as a float vector of length dim, else DimensionMismatch: the admission of every vector."""
    x = _floats(x, what)
    if x.shape != (dim,):
        raise DimensionMismatch(f"{what} length {x.shape} vs dim {dim}")
    return x


def _dots(X, Y):
    """(...) row products x . y of two (..., n) stacks: a stacked (1, n) by (n, 1) matmul gives
    each entry the bits of its own 1-D ``x @ y``; a sum, ``einsum`` or gemm does not."""
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


def margin_direction(dirs):
    """(delta, u) of the one direction list ``dirs``: the B = 1 case of ``margin_directions``.

    Only the kernel tests and the ``TARGETS`` of ``perfbench/tracing.py`` call this form,
    until ROADMAP item 9.
    """
    D = np.atleast_2d(np.asarray(dirs, dtype=float))
    deltas, us = margin_directions(D[None])
    return deltas[0], us[0]


def margin_directions(Ds):
    """Best uniform separation margin of each of B same-shape direction lists.

    Ds is (B, m, n) with m, n >= 1. Program k solves  max delta  s.t.  u . d >= delta for
    every row d of Ds[k], |u|_inf <= 1; the call returns (delta[B], u[B, n]). delta >= 0,
    because (u, delta) = (0, 0) is feasible, and each program is bounded, because delta cannot
    exceed the 1-norm of a row: one the kernel reports unbounded was lost to rounding, and
    raises KernelError. The B programs are assembled in one array and solved in one kernel
    call, and each result is bit for bit that of its program solved alone.
    """
    Ds = np.asarray(Ds, dtype=float)
    if Ds.ndim != 3 or Ds.shape[1] == 0 or Ds.shape[2] == 0:
        raise ValueError("margin_directions needs at least one direction")
    Ds, e, _ = _binade(Ds, (1, 2))
    B, m, n = Ds.shape
    # variables: u+ (n), u- (n), delta; u = u+ - u-
    nv = 2 * n + 1
    A = np.zeros((B, m + 2 * n, nv))
    A[:, :m, :n] = -Ds
    A[:, :m, n : 2 * n] = Ds
    A[:, :m, 2 * n] = 1.0
    A[:, m : m + n, :n] = np.eye(n)
    A[:, m + n :, n : 2 * n] = np.eye(n)
    b = np.concatenate([np.zeros(m), np.ones(2 * n)])
    c = np.zeros(nv)
    c[2 * n] = 1.0
    status, obj, x = _kernel.simplex_maximize_batch(A, b, c)
    if np.any(status != OPTIMAL):
        raise KernelError("separation LP reported unbounded: the simplex pivoting failed")
    return np.ldexp(obj, e[:, 0, 0]), x[:, :n] - x[:, n : 2 * n]
