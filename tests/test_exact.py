"""The exact rational oracle of ``exact.py`` against scipy's HiGHS and the active LP kernel.

On seeded hull-row and pair programs in R^2..R^4, at scales 1e-3..1e5 with offsets up to 1e6,
the exact delta* must agree with HiGHS and the kernel to their float accuracy, and on which
side of the tolerance it lies wherever it is more than 100 tol away from it.
"""

import numpy as np
from exact import exact_margin
from scipy.optimize import linprog

from homproj.lp import margin_directions
from homproj.polytope import REL_TOL, _apart, _distances


def _highs_margin(D):
    """HiGHS optimum of max delta, u . d >= delta for each row d of D, |u|_inf <= 1."""
    m, n = D.shape
    c = np.zeros(n + 1)
    c[n] = -1.0
    A = np.hstack([-D, np.ones((m, 1))])
    bounds = [(-1.0, 1.0)] * n + [(None, None)]
    return -linprog(c, A_ub=A, b_ub=np.zeros(m), bounds=bounds, method="highs").fun


def test_the_exact_oracle_agrees_with_highs_away_from_the_tolerance():
    rng = np.random.default_rng(16)
    sides = 0
    for trial in range(60):
        n = int(rng.integers(2, 5))
        V = rng.standard_normal((int(rng.integers(n + 1, 10)), n))
        offset = 10.0 ** rng.uniform(-1.0, 6.0) * rng.standard_normal(n)
        V = 10.0 ** rng.uniform(-3.0, 5.0) * V + offset
        programs = _apart(V[None])[0]
        if trial % 2:  # a pair program: rows v - x, then y - w
            programs = np.concatenate([programs[0], -programs[1]])[None]
        D = programs[rng.integers(len(programs))]
        exact, highs = exact_margin(D), _highs_margin(D)
        (kernel,), _ = margin_directions(D[None])
        size, tol = np.abs(D).max(), REL_TOL * _distances(V).max()
        assert abs(float(exact) - highs) <= 1e-7 * size
        assert abs(float(exact) - kernel) <= 1e-9 * size
        if abs(float(exact) - tol) > 100 * tol:
            assert (exact > tol) == (highs > tol) == (kernel > tol)
            sides += 1
    assert sides > 40
