"""Time the simplex backends on the separation LPs that dominate the
verification harness: hull extraction, exposed-diameter pairs and the hull of
a difference body.

For each LP shape it prints the pure-Python kernel one LP per call, the same
LPs in one lockstep ``simplex_maximize_batch`` call, and the same LPs in one
batch call of the compiled kernel when it is built (``-`` otherwise).

Run: PYTHONPATH=src python3 benchmarks/bench_lp.py
"""

import time

import numpy as np

from homproj import _simplex_py
from homproj._simplex_ctypes import Kernel
from homproj.lp import margin_direction

try:
    c_kernel = Kernel()
except OSError:  # the library is not built
    c_kernel = None


def _lp_batch(rng, count, rows, cols):
    """Margin programs over Gaussian direction lists, stacked as (A, b, c, tol)."""
    D = rng.standard_normal((count, rows, cols))
    n = cols
    nv = 2 * n + 1
    A = np.zeros((count, rows + 2 * n, nv))
    A[:, :rows, :n] = -D
    A[:, :rows, n : 2 * n] = D
    A[:, :rows, 2 * n] = 1.0
    A[:, rows : rows + n, :n] = np.eye(n)
    A[:, rows + n :, n : 2 * n] = np.eye(n)
    b = np.tile(np.concatenate([np.zeros(rows), np.ones(2 * n)]), (count, 1))
    c = np.zeros(nv)
    c[2 * n] = 1.0
    tol = 1e-9 * np.maximum(1.0, np.abs(D).max(axis=(1, 2)))
    return A, b, c, tol


def _time_each(kernel, A, b, c, tol):
    start = time.perf_counter()
    for k in range(len(A)):
        kernel.simplex_maximize(A[k], b[k], c, tol[k])
    return time.perf_counter() - start


def _time_batch(kernel, A, b, c, tol):
    start = time.perf_counter()
    kernel.simplex_maximize_batch(A, b, c, tol)
    return time.perf_counter() - start


def main():
    rng = np.random.default_rng(0)
    shapes = [
        ("hull separation (11 rows, dim 3)", 2000, 11, 3),
        ("diameter pair (22 rows, dim 4)", 2000, 22, 4),
        ("difference body (143 rows, dim 3)", 200, 143, 3),
    ]
    header = f"{'workload':36s} {'py per-LP':>10s} {'py batch':>10s} {'gain':>6s} {'C batch':>10s}"
    print(header)
    for name, count, rows, cols in shapes:
        lps = _lp_batch(rng, count, rows, cols)
        t_each = _time_each(_simplex_py, *lps)
        t_batch = _time_batch(_simplex_py, *lps)
        t_c = "-" if c_kernel is None else f"{_time_batch(c_kernel, *lps):9.3f}s"
        print(f"{name:36s} {t_each:9.3f}s {t_batch:9.3f}s {t_each / t_batch:5.1f}x {t_c:>10s}")

    # sanity: every row has first coordinate >= 0.1, so u = e1 separates
    # them strictly and the optimal margin must be positive
    D = rng.standard_normal((15, 3))
    D[:, 0] = np.abs(D[:, 0]) + 0.1
    delta, u = margin_direction(D)
    print(f"\nmargin_direction sanity: delta={delta:.6g}, |u|_inf={np.abs(u).max():.3f}")
    if not delta > 0:
        raise SystemExit("sanity check failed: separable set without a positive margin")


if __name__ == "__main__":
    main()
