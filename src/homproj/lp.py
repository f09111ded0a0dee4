"""LP front end: backend selection and the separation-margin program.

Every geometric predicate in the package reduces to one LP shape: find the
direction u, |u|_inf <= 1, maximizing the smallest dot product u . d over a
given list of difference vectors d. A strictly positive optimum certifies
strict separation (extreme point, exposed vertex, exposed diameter).

Callers that need many such programs at once (all k LPs of one hull, all
pair LPs of one diameter enumeration) pass them together to
``margin_directions``; the pure-Python kernel then solves them in lockstep.
The parity contract is per LP: each result is bit-identical to solving that
program alone, on either backend.

The compiled kernel is preferred; set HOMPROJ_FORCE_PYTHON=1 to force the
pure-Python fallback (used by the benchmark and parity tests).
"""

import os

import numpy as np

from ._simplex_py import OPTIMAL

if os.environ.get("HOMPROJ_FORCE_PYTHON"):
    from . import _simplex_py as _kernel

    BACKEND = "python"
else:
    try:
        from . import _simplex_cy as _kernel

        BACKEND = "cython"
    except ImportError:
        from . import _simplex_py as _kernel

        BACKEND = "python"


def simplex_maximize(A, b, c, tol):
    """Solve max c.x, A x <= b, x >= 0 (b >= 0) with the active backend."""
    return _kernel.simplex_maximize(A, b, c, tol)


def margin_direction(dirs):
    """Best uniform separation margin over the unit-inf-norm direction box.

    Solves  max delta  s.t.  u . d >= delta for every row d of ``dirs``,
    |u|_inf <= 1, and returns (delta, u). delta is always >= 0 because
    (u, delta) = (0, 0) is feasible; the program is bounded because delta
    cannot exceed the 1-norm of any single row.
    """
    D = np.atleast_2d(np.asarray(dirs, dtype=float))
    deltas, us = margin_directions(D[None])
    return deltas[0], us[0]


def margin_directions(Ds):
    """``margin_direction`` for each of B same-shape direction lists at once.

    Ds is (B, m, n); returns (delta[B], u[B, n]). The B margin programs are
    assembled in one array and, on the Python backend, solved in lockstep;
    each result equals, bit for bit, that of its own ``margin_direction``
    call. Each program keeps its own pivot tolerance 1e-9 * max(1, max|D|).
    """
    Ds = np.asarray(Ds, dtype=float)
    if Ds.ndim != 3 or Ds.shape[1] == 0 or Ds.shape[2] == 0:
        raise ValueError("margin_direction needs at least one direction")
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
    tol = 1e-9 * np.fmax(1.0, np.abs(Ds).max(axis=(1, 2), initial=0.0))
    if BACKEND == "python":
        status, obj, x = _kernel.simplex_maximize_batch(A, np.broadcast_to(b, (B, b.size)), c, tol)
    else:
        # the compiled kernel has no batch entry point: one call per program
        solved = [_kernel.simplex_maximize(A[k], b, c, float(tol[k])) for k in range(B)]
        status, obj, x = (np.array(part) for part in zip(*solved))
    if np.any(status != OPTIMAL):
        raise RuntimeError("separation LP unbounded; inputs are not finite")
    return obj, x[:, :n] - x[:, n : 2 * n]
