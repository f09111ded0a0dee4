"""The calibration task that defines one ref, the benchmark's unit of time.

One ref is one pass of ``ref_pass``: a frozen copy of the seed's pure-Python
Bland's-rule simplex solving three fixed, strictly separable margin LPs.
Every timed step of the benchmark is divided by the time of calibration
passes run beside it, so host speed phases cancel out of the ratio.

Keep this file frozen. Its code is deliberately a copy, never imported from
``homproj``: if an optimisation of the package also sped up the yardstick,
the ratio would hide the gain. Editing anything here changes the unit and
makes every earlier ref number incomparable; ``EXPECTED`` pins the three
optima bit for bit so that an accidental edit fails loudly.
"""

import time

import numpy as np


def _simplex_maximize(A, b, c, tol):
    """Frozen copy of ``homproj._simplex_py.simplex_maximize`` (seed)."""
    A = np.ascontiguousarray(A, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    c = np.ascontiguousarray(c, dtype=float)
    m, n = A.shape
    ncols = n + m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = A
    T[:m, n:ncols] = np.eye(m)
    T[:m, ncols] = b
    T[m, :n] = -c
    basis = list(range(n, ncols))

    while True:
        col = -1
        for j in range(ncols):
            if T[m, j] < -tol:
                col = j
                break
        if col < 0:
            break
        row = -1
        best = 0.0
        for i in range(m):
            a = T[i, col]
            if a > tol:
                ratio = T[i, ncols] / a
                if row < 0 or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row = i
                    best = ratio
        if row < 0:
            raise ArithmeticError("calibration LP unbounded")
        piv = T[row, col]
        T[row, :] /= piv
        for i in range(m + 1):
            if i != row:
                f = T[i, col]
                if f != 0.0:
                    T[i, :] -= f * T[row, :]
                    T[i, col] = 0.0
        basis[row] = col
    return T[m, ncols]


def _margin_lp(rows, dim):
    """Margin program of fixed rows d with d . (1, ..., 1) > 0, so delta > 0.

    Entries are small dyadic rationals from integer arithmetic, exact in
    binary, and the simplex uses only elementwise IEEE operations, so the
    data and the optimum are bit-identical on every platform.
    """
    i = np.arange(rows)[:, None]
    j = np.arange(dim)[None, :]
    D = ((7 * i + 13 * j + 3 * i * j) % 17 - 8) / 8.0 + 1.25
    n = dim
    A = np.zeros((rows + 2 * n, 2 * n + 1))
    A[:rows, :n] = -D
    A[:rows, n : 2 * n] = D
    A[:rows, 2 * n] = 1.0
    A[rows : rows + n, :n] = np.eye(n)
    A[rows + n :, n : 2 * n] = np.eye(n)
    b = np.concatenate([np.zeros(rows), np.ones(2 * n)])
    c = np.zeros(2 * n + 1)
    c[2 * n] = 1.0
    return A, b, c


# (rows, dim): the shapes of a hull LP, a diameter-pair LP and a small
# difference-body LP, the three LP sizes the workloads solve.
SHAPES = ((11, 3), (22, 4), (40, 3))
LPS = tuple(_margin_lp(rows, dim) for rows, dim in SHAPES)
EXPECTED = (2.6249999999999996, 3.3750000000000004, 2.3750000000000004)


def check():
    """Raise if the calibration task no longer computes its frozen optima."""
    got = tuple(float(_simplex_maximize(A, b, c, 1e-9)) for A, b, c in LPS)
    if got != EXPECTED:
        raise RuntimeError(f"calibration task changed: optima {got} != {EXPECTED}")


def ref_pass():
    """Run one calibration pass and return its wall time in seconds."""
    start = time.perf_counter()
    for A, b, c in LPS:
        _simplex_maximize(A, b, c, 1e-9)
    return time.perf_counter() - start
