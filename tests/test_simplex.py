"""The LP kernel against scipy's solver, plus backend parity."""

import numpy as np
import pytest
from scipy.optimize import linprog

from homproj import _simplex_py
from homproj._simplex_py import OPTIMAL, UNBOUNDED
from homproj.lp import BACKEND, margin_direction, simplex_maximize


def _random_instance(rng, m, n):
    A = rng.standard_normal((m, n))
    b = rng.uniform(0.0, 2.0, m)
    c = rng.standard_normal(n)
    return A, b, c


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 8))
        A, b, c = _random_instance(rng, m, n)
        status, obj, x = simplex_maximize(A, b, c, 1e-9)
        if status == UNBOUNDED:
            # confirm with a recession-ray certificate (the problem itself is
            # always feasible since b >= 0, but HiGHS statuses on unbounded
            # instances are unreliable): some ray d in [0,1]^n with A d <= 0
            # must improve the objective
            ray = linprog(-c, A_ub=A, b_ub=np.zeros(m), bounds=(0, 1), method="highs")
            assert ray.status == 0 and -ray.fun > 1e-9
        else:
            res = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
            assert res.status == 0
            assert obj == pytest.approx(-res.fun, abs=1e-7)
            assert np.all(A @ x <= b + 1e-7)
            assert np.all(x >= -1e-12)


def test_backends_are_bit_identical():
    cython_kernel = pytest.importorskip("homproj._simplex_cy")
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(1, 15))
        n = int(rng.integers(1, 8))
        A, b, c = _random_instance(rng, m, n)
        r_py = _simplex_py.simplex_maximize(A, b, c, 1e-9)
        r_cy = cython_kernel.simplex_maximize(A, b, c, 1e-9)
        assert r_py[0] == r_cy[0]
        assert r_py[1] == r_cy[1]  # exact: same pivot sequence
        assert np.array_equal(r_py[2], r_cy[2])


def test_margin_direction_separates_box_corner():
    # corner (1,1) of the unit square against the other three vertices
    corner = np.array([1.0, 1.0])
    others = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    delta, u = margin_direction(corner - others)
    assert delta > 0.5
    assert np.max(np.abs(u)) <= 1.0 + 1e-12
    assert np.min((corner - others) @ u) == pytest.approx(delta, abs=1e-12)


def test_margin_direction_interior_point_not_separable():
    center = np.array([0.5, 0.5])
    others = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    delta, _ = margin_direction(center - others)
    assert delta <= 1e-12


def test_backend_reported():
    assert BACKEND in ("cython", "python")
