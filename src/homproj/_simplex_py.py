"""Dense tableau simplex, pure-Python backend.

``simplex_maximize_batch`` solves many same-shape LPs in lockstep: every
pivot is a handful of numpy operations over all LPs still running, and an LP
leaves the batch as soon as it is optimal or unbounded. A tableau keeps only its
nonbasic columns and the rhs (the condensed, or Tucker, tableau). ``_simplex.c``
runs the same algorithm on one LP at a time, with the same float operations in
the same order, so results are bit-identical per LP on either kernel, whatever
else shares its batch. ``simplex_maximize`` is the one-LP case.
"""

import numpy as np

OPTIMAL = 0
UNBOUNDED = 1

# Pivot tolerance of both kernels; ``lp`` scales every program to max|D| in [0.5, 1).
PIVOT_TOL = 1e-9

# Largest number of tableau cells (float64, (m + 1) x (n + 1) per LP) solved in
# one lockstep chunk. It bounds the kernel's tableaux and per-pivot temporaries, not
# the O(k^2 n) programs that callers build (``_apart``, the dedupe distance stack, the
# assembled A of ``lp.margin_directions``). Unchunked, the hull of the 400 differences
# of 20 unit vectors in R^3 peaks at 86 MB RSS instead of 65 MB, in the same time.
CHUNK_CELLS = 2**15


def simplex_maximize(A, b, c):
    """Maximize c.x subject to A x <= b, x >= 0, assuming every b[i] >= 0.

    The origin is then a basic feasible point, so a single phase suffices.
    Pivoting uses Bland's rule (lowest eligible index; ratio ties broken by
    the lowest basic-variable index), which cannot cycle.

    Returns (status, objective, x). Only the kernel tests and the ``TARGETS`` of
    ``perfbench/tracing.py`` call this B = 1 form, until ROADMAP item 9.
    """
    status, obj, x = simplex_maximize_batch([A], b, c)
    return int(status[0]), obj[0], x[0]


def simplex_maximize_batch(A, b, c):
    """Solve B programs max c.x, A[k] x <= b, x >= 0 (b >= 0) at once.

    A is (B, m, n) with m >= 1; b (m,) and c (n,) are shared by the whole
    batch, and every program pivots at ``PIVOT_TOL``. Returns (status[B],
    objective[B], x[B, n]) with the same values, bit for bit, as B one-LP
    calls; an unbounded program has objective 0.0 and x = 0.
    """
    A, b, c = _check_arguments(A, b, c)
    B, m, n = A.shape
    status, obj, x = np.full(B, OPTIMAL), np.zeros(B), np.zeros((B, n))
    chunk = max(1, CHUNK_CELLS // ((m + 1) * (n + 1)))
    for start in range(0, B, chunk):
        part = slice(start, start + chunk)
        _solve_chunk(A[part], b, c, status[part], obj[part], x[part])
    return status, obj, x


def _check_arguments(A, b, c):
    """A, b, c as contiguous float arrays; ValueError unless A is 3-D, b (m,), c (n,)."""
    A, b, c = (np.ascontiguousarray(a, dtype=float) for a in (A, b, c))
    if A.ndim != 3 or b.shape != A.shape[1:2] or c.shape != A.shape[2:]:
        raise ValueError(f"b {b.shape}, c {c.shape} do not fit A {A.shape}")
    return A, b, c


def _solve_chunk(A, b, c, status, obj, x):
    """Lockstep pivots on one chunk; writes results into the output views."""
    B, m, n = A.shape
    big = n + m  # above every variable index
    T = np.zeros((B, m + 1, n + 1))
    T[:, :m, :n] = A
    T[:, :m, n] = b
    T[:, m, :n] = -c
    # per tableau: the basic variable of each row, the variable of each column, the output slot
    lab = np.empty((B, big + 1), dtype=np.intp)
    lab[:, :m], lab[:, m:big], lab[:, big] = np.arange(n, big), np.arange(n), np.arange(B)
    basis, cols = lab[:, :m], lab[:, m:big]
    rows = np.arange(B)  # position in T, for per-LP fancy indexing
    final_rhs, final_basis = np.zeros((B, m + 1)), np.full((B, m), big)  # of optimal tableaux

    while True:
        # entering column: the lowest variable with a reduced cost below -PIVOT_TOL
        enter = T[:, m, :n] < -PIVOT_TOL
        has_col = enter.any(axis=1)
        col = np.where(enter, cols, big).argmin(axis=1)

        # ratio test over rows with a > PIVOT_TOL; ties go to the lowest basic index
        f = T[rows, :, col]  # the pivot column, objective row included
        eligible = (f[:, :m] > PIVOT_TOL) & has_col[:, None]
        ratio = np.divide(T[:, :m, n], f[:, :m], out=np.full((len(f), m), np.inf), where=eligible)
        tied = eligible & (ratio == ratio.min(axis=1)[:, None])
        row = np.where(tied, basis, big).argmin(axis=1)
        has_row = tied.any(axis=1)

        if not has_row.all():
            ids = lab[~has_col, big]
            final_rhs[ids], final_basis[ids] = T[~has_col, :, n], basis[~has_col]
            status[lab[has_col & ~has_row, big]] = UNBOUNDED
            T, lab, f = T[has_row], lab[has_row], f[has_row]
            col, row = col[has_row], row[has_row]
            if not lab.size:
                break
            basis, cols = lab[:, :m], lab[:, m:big]
            rows = np.arange(len(lab))

        # pivot: column col takes the leaving variable, whose column is e_row before the row
        # operations; rows with f == 0 keep their other entries and their zero signs, and the
        # pivot row is written last
        piv = f[rows, row]
        T[rows, :, col] = 0.0
        T[rows, row, col] = 1.0
        prow = T[rows, row] / piv[:, None]
        np.subtract(T, f[:, :, None] * prow[:, None, :], out=T, where=(f != 0.0)[:, :, None])
        T[rows, row] = prow
        basis[rows, row], cols[rows, col] = cols[rows, col], basis[rows, row]

    obj[:] = final_rhs[:, m]
    lp, i = np.nonzero(final_basis < n)
    x[lp, final_basis[lp, i]] = final_rhs[lp, i]
