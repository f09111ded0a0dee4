import numpy as np
import pytest

from homproj import (
    BadTolerance,
    ZeroLambda,
    apply_homothety,
    detect_homothety,
    extreme_points,
    random_frame,
    random_polytope,
    set_equal,
)
from homproj.homothety import DEFAULT_TOL
from homproj.polytope import REL_TOL, _distances, _shadow, extreme_points_many


def test_default_tolerance_is_the_polytope_tolerance():
    assert DEFAULT_TOL is REL_TOL


def test_apply_homothety_square(square):
    img = apply_homothety(square, np.array([3.0, 4.0]), 2.0)
    assert img.vertices.tolist() == [[3, 4], [3, 6], [5, 4], [5, 6]]


def test_apply_identity(square):
    img = apply_homothety(square, np.zeros(2), 1.0)
    assert np.array_equal(img.vertices, square.vertices)


def test_apply_negative_reflects(triangle):
    img = apply_homothety(triangle, np.array([1.0, 1.0]), -1.0)
    assert img.vertices.tolist() == [[0, 1], [1, 0], [1, 1]]


def test_apply_zero_lambda(square):
    with pytest.raises(ZeroLambda):
        apply_homothety(square, np.zeros(2), 0.0)


def test_detect_inverts_defining_map(square):
    P2 = apply_homothety(square, np.array([3.0, 4.0]), 2.0)
    res = detect_homothety(square, P2)
    assert res.ratio == pytest.approx(0.5)
    assert np.allclose(res.shift, [-1.5, -2.0])


def test_detect_negative(triangle):
    P2 = apply_homothety(triangle, np.array([1.0, 1.0]), -1.0)
    res = detect_homothety(P2, triangle)
    assert res.ratio == pytest.approx(-1.0)
    assert np.allclose(res.shift, [1.0, 1.0])


def test_detect_vertex_count_mismatch(square, triangle):
    assert detect_homothety(square, triangle) is None


def test_detect_centrally_symmetric_prefers_positive():
    P = extreme_points([[-1, -1], [1, -1], [-1, 1], [1, 1]])
    res = detect_homothety(P, P)
    assert res.ratio == 1.0


def test_detect_bad_tolerance(square):
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(BadTolerance):
            detect_homothety(square, square, tol)


def test_set_equal_tolerates_noise(square):
    noisy = extreme_points(square.vertices + 1e-12)
    assert set_equal(square, noisy, 1e-9)


def test_set_equal_rejects_stretch(square):
    stretched = extreme_points([[0, 0], [1 + 1e-3, 0], [0, 1 + 1e-3], [1 + 1e-3, 1 + 1e-3]])
    assert not set_equal(square, stretched, 1e-9)


def test_set_equal_singletons():
    a = extreme_points([[1.0, 2.0]])
    assert set_equal(a, extreme_points([[1.0, 2.0]]), 1e-9)


def test_soundness_and_roundtrip_random():
    rng = np.random.default_rng(31)
    for trial in range(30):
        n = int(rng.integers(2, 5))
        P = random_polytope(n, 10, 400 + trial)
        z = rng.standard_normal(n)
        lam = float(rng.uniform(0.1, 10.0)) * (1 if trial % 2 else -1)
        P1 = apply_homothety(P, z, lam)
        res = detect_homothety(P1, P)
        assert res is not None
        # soundness: returned map reproduces P1 from P
        assert set_equal(P1, apply_homothety(P, res.shift, res.ratio), 1e-9)


def test_equivariance():
    rng = np.random.default_rng(77)
    P2 = random_polytope(3, 9, 9)
    P1 = apply_homothety(P2, np.array([1.0, -2.0, 0.5]), 1.75)
    a, b = 0.4, np.array([5.0, 5.0, -1.0])
    P2b = apply_homothety(P2, b, a)
    res = detect_homothety(P1, P2b)
    assert res is not None
    # composing the detected map with x -> b + a x reproduces the set map
    assert set_equal(
        P1, apply_homothety(apply_homothety(P2, b, a), res.shift, res.ratio), 1e-9
    )


def test_singleton_pair():
    res = detect_homothety(extreme_points([[1.0, 1.0]]), extreme_points([[0.0, 3.0]]))
    assert res.ratio == 1.0
    assert res.shift.tolist() == [1.0, -2.0]
    assert res.match == (0,)


def test_shadow_match_certifies_the_set_level_map():
    # what a projection sweep counts: the bijection of every detected shadow
    # pair is a permutation within residual, and implies the set-level check
    rng = np.random.default_rng(2024)
    for n in (3, 4, 5):
        for trial in range(8):
            P2 = random_polytope(n, 6 + trial, 1000 * n + trial)
            lam = float(rng.uniform(0.1, 10.0)) * (1 if trial % 2 else -1)
            P1 = apply_homothety(P2, rng.standard_normal(n), lam)
            frames = [
                random_frame(n, m, int(rng.integers(2**32))) for m in range(1, n) for _ in range(12)
            ]
            shadows = [_shadow(P, f.basis[None])[0] for f in frames for P in (P1, P2)]
            hulls = extreme_points_many(shadows)
            for Q1, Q2 in zip(hulls[::2], hulls[1::2]):
                h = detect_homothety(Q1, Q2)
                assert h is not None
                assert sorted(h.match) == list(range(Q1.num_vertices))
                image = h.shift + h.ratio * Q2.vertices[list(h.match)]
                gaps = _distances(Q1.vertices, image).diagonal()
                assert gaps.max() <= h.residual
                assert set_equal(Q1, apply_homothety(Q2, h.shift, h.ratio))
