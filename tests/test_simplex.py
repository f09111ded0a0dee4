"""The LP kernel against scipy's solver, plus backend parity."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

import homproj as hp
from homproj import _simplex_py, lp
from homproj._simplex_ctypes import Kernel
from homproj._simplex_py import OPTIMAL, UNBOUNDED
from homproj.lp import BACKEND, margin_direction


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
        status, obj, x = lp._kernel.simplex_maximize(A, b, c)
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


def _assert_same_bytes(c_kernel, A, b, c):
    """Both kernels on one batch: status, objective and x byte for byte."""
    ref = _simplex_py.simplex_maximize_batch(A, b, c)
    got = c_kernel.simplex_maximize_batch(A, b, c)
    for r, g in zip(ref, got):
        assert r.dtype == g.dtype and r.tobytes() == g.tobytes()
    return ref


def test_backends_are_bit_identical(c_kernel):
    # general programs, with UNBOUNDED cases, -0.0 in b and, in every other
    # program, entries rounded to 0.1 for ratio ties
    rng = np.random.default_rng(7)
    statuses, negative_zeros = set(), 0
    for m, n in ((1, 2), (6, 4), (3, 5), (8, 3), (14, 7)):
        B = 120
        A = rng.standard_normal((B, m, n))
        A[::2] = np.round(A[::2], 1)
        b = rng.uniform(0.0, 2.0, m)
        b[: m // 2] = -0.0
        for c in (rng.standard_normal(n), -np.abs(rng.standard_normal(n))):
            status, _, x = _assert_same_bytes(c_kernel, A, b, c)
            statuses.update(status.tolist())
            negative_zeros += np.count_nonzero((x == 0.0) & np.signbit(x))
    assert statuses == {OPTIMAL, UNBOUNDED} and negative_zeros > 0

    # B = 1 through simplex_maximize
    A, b, c = _random_instance(rng, 5, 3)
    got = c_kernel.simplex_maximize(A, b, c)
    ref = _simplex_py.simplex_maximize(A, b, c)
    assert got[0] == ref[0] and got[1].tobytes() == ref[1].tobytes()
    assert got[2].tobytes() == ref[2].tobytes()


def test_backends_are_bit_identical_on_margin_programs(c_kernel, monkeypatch):
    # record the batches lp.margin_directions builds for hulls, diameters and
    # rounded (tie-heavy) direction lists, then solve each on both kernels
    batches = []

    def recording(A, b, c):
        batches.append((A, b, c))
        return _simplex_py.simplex_maximize_batch(A, b, c)

    monkeypatch.setattr(lp, "_kernel", SimpleNamespace(simplex_maximize_batch=recording))
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for seed in range(4):
            P = hp.random_polytope(n, 10, 100 * n + seed)
            hp.exposed_diameters(P)
            hp.extreme_points(np.round(rng.standard_normal((12, n)), 1))
    lp.margin_directions(np.round(rng.standard_normal((50, 11, 3)), 1))
    assert len(batches) > 20
    for A, b, c in batches:
        _assert_same_bytes(c_kernel, A, b, c)


def test_c_kernel_refuses_a_missing_library_and_bad_shapes(c_kernel, tmp_path):
    with pytest.raises(OSError):
        Kernel(tmp_path)
    with pytest.raises(ValueError):  # a per-program b is not part of the contract
        c_kernel.simplex_maximize_batch(np.zeros((2, 3, 4)), np.zeros((2, 3)), np.zeros(4))
    with pytest.raises(ValueError):
        c_kernel.simplex_maximize_batch(np.zeros((2, 3, 4)), np.zeros(3), np.zeros(3))


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
    assert BACKEND in ("c", "python")
