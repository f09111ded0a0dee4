"""Dense tableau simplex, pure-Python backend.

``simplex_maximize_batch`` solves many same-shape LPs in lockstep: every
pivot is a handful of numpy operations over all LPs still running, and an LP
leaves the batch as soon as it is optimal or unbounded. Each LP follows
exactly the pivot sequence of the scalar Bland's-rule loop that the compiled
kernel in ``_simplex.c`` runs, so results are bit-identical per LP,
whatever else shares its batch. ``simplex_maximize`` is the one-LP case.
"""

import numpy as np

OPTIMAL = 0
UNBOUNDED = 1

# Pivot tolerance of both kernels; ``lp`` scales every program to max|D| in [0.5, 1).
PIVOT_TOL = 1e-9

# Largest number of tableau cells (float64) solved in one lockstep chunk.
# It bounds the working set of large hulls, such as that of a ``minkowski_sum``.
CHUNK_CELLS = 2**15


def simplex_maximize(A, b, c):
    """Maximize c.x subject to A x <= b, x >= 0, assuming every b[i] >= 0.

    The origin is then a basic feasible point, so a single phase suffices.
    Pivoting uses Bland's rule (lowest eligible index; ratio ties broken by
    the lowest basic-variable index), which cannot cycle.

    Returns (status, objective, x).
    """
    status, obj, x = simplex_maximize_batch([A], b, c)
    return int(status[0]), obj[0], x[0]


def simplex_maximize_batch(A, b, c):
    """Solve B programs max c.x, A[k] x <= b, x >= 0 (b >= 0) at once.

    A is (B, m, n) with m >= 1; b (m,) and c (n,) are shared by the whole
    batch, and every program pivots at ``PIVOT_TOL``. Returns (status[B],
    objective[B], x[B, n]) with the same values, bit for bit, as B calls of
    the scalar loop; an unbounded program has objective 0.0 and x = 0.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    B, m, n = A.shape
    status = np.full(B, OPTIMAL)
    obj = np.zeros(B)
    x = np.zeros((B, n))
    chunk = max(1, CHUNK_CELLS // ((m + 1) * (n + m + 1)))
    for start in range(0, B, chunk):
        part = slice(start, start + chunk)
        _solve_chunk(A[part], b, c, status[part], obj[part], x[part])
    return status, obj, x


def _solve_chunk(A, b, c, status, obj, x):
    """Lockstep pivots on one chunk; writes results into the output views."""
    B, m, n = A.shape
    ncols = n + m
    T = np.zeros((B, m + 1, ncols + 1))
    T[:, :m, :n] = A
    T[:, np.arange(m), np.arange(n, ncols)] = 1.0
    T[:, :m, ncols] = b
    T[:, m, :n] = -c
    basis = np.broadcast_to(np.arange(n, ncols), (B, m)).copy()
    ids = np.arange(B)  # output slot of each tableau still in T
    rows = np.arange(B)  # position in T, for per-LP fancy indexing

    while True:
        # entering column: the lowest index with a reduced cost below -PIVOT_TOL
        enter = T[:, m, :ncols] < -PIVOT_TOL
        has_col = enter.any(axis=1)
        col = enter.argmax(axis=1)

        # ratio test over rows with a > PIVOT_TOL; ties go to the lowest basic index
        a = T[rows, :m, col]
        eligible = (a > PIVOT_TOL) & has_col[:, None]
        ratio = np.divide(T[:, :m, ncols], a, out=np.full_like(a, np.inf), where=eligible)
        tied = eligible & (ratio == ratio.min(axis=1)[:, None])
        row = np.where(tied, basis, ncols).argmin(axis=1)
        has_row = tied.any(axis=1)

        if not has_row.all():
            optimal = ~has_col
            _extract(T[optimal], basis[optimal], ids[optimal], obj, x, n)
            status[ids[has_col & ~has_row]] = UNBOUNDED
            T, basis, ids = T[has_row], basis[has_row], ids[has_row]
            col, row = col[has_row], row[has_row]
            if not ids.size:
                return
            rows = np.arange(ids.size)

        # pivot: normalize the pivot row, then subtract f * (pivot row) from
        # every other row with f != 0; skipping f == 0 keeps signed zeros.
        # The pivot column needs no explicit zeroing: it is f - f * 1.0 = +0.0.
        prow = T[rows, row] / T[rows, row, col][:, None]
        T[rows, row] = prow
        f = T[rows, :, col]
        f[rows, row] = 0.0
        np.subtract(T, f[:, :, None] * prow[:, None, :], out=T, where=(f != 0.0)[:, :, None])
        basis[rows, row] = col


def _extract(T, basis, ids, obj, x, n):
    """Objective and primal point of optimal tableaux into their output slots."""
    obj[ids] = T[:, -1, -1]
    lp, i = np.nonzero(basis < n)
    x[ids[lp], basis[lp, i]] = T[lp, i, -1]
