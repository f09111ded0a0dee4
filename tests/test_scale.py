"""Predicates are scale-invariant, and invariant under rotation and translation
while diameter / max|coordinate| stays far above machine epsilon."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homproj import (
    BadNumber,
    DependentInput,
    apply_homothety,
    detect_homothety,
    extreme_points,
    minkowski_sum,
    negate,
    orthonormalize,
    project_polytope,
    set_equal,
    support,
    verify_diameter_transfer,
    verify_no_parallel_diameters,
    verify_theorem1,
    verify_theorem2,
)
from homproj.lp import _binade


# A triangle of diameter 0.01 and a fourth point 4e-9 * diameter outside the
# middle of its base: extreme under the relative tolerance 1e-9 * diameter at
# every scale, and dropped by any absolute floor on the tolerance.
NEAR_EDGE = np.array([[0.0, 0.0], [0.01, 0.0], [0.005, 0.008], [0.005, -4e-11]])
BASES = {
    "triangle": np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
    "near_edge": NEAR_EDGE,
    "gauss2": np.random.default_rng(0).standard_normal((12, 2)),
    "gauss3": np.random.default_rng(1).standard_normal((12, 3)),
    "gauss4": np.random.default_rng(2).standard_normal((10, 4)),
}
SCALES = st.one_of(
    st.integers(-498, 498).map(lambda k: 2.0**k),
    st.integers(-150, 150).map(lambda k: 10.0**k),
)


@pytest.mark.parametrize("s", [1e-200, 1e-20, 1e-8, 1.0, 5e8, 1e9, 1e150, 1e200, 1e300])
def test_triangle_keeps_three_vertices_at_every_scale(s):
    P = extreme_points(s * BASES["triangle"])
    assert P.vertices.tolist() == [[-s, 0.0], [0.0, s], [s, 0.0]]


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e200, 1e300])
@pytest.mark.parametrize("name", ["triangle", "gauss3"])
def test_homothetic_pair_at_extreme_scales(name, s):
    X = BASES[name]
    P = extreme_points(s * X)
    Q = extreme_points(2.0 * P.vertices + 5.0 * s)
    assert P.num_vertices == Q.num_vertices == extreme_points(X).num_vertices
    h = detect_homothety(Q, P)
    assert h is not None and h.ratio == pytest.approx(2.0, rel=1e-12)
    assert set_equal(P, P)
    assert verify_theorem2(P).verdict == "pass"
    assert verify_no_parallel_diameters(P).verdict == "pass"
    assert verify_diameter_transfer(Q, P).verdict == "pass"


def test_near_edge_point_is_a_vertex():
    assert extreme_points(NEAR_EDGE).num_vertices == 4


def test_support_face_where_v_dot_u_overflows():
    # V @ u is inf on the last three vertices, which ties them; at u / 2^e it
    # is finite and (3, 1) alone attains, by a gap that is past the range too
    P = extreme_points(1e300 * np.array([[0, 0], [1, 0], [0, 1], [2, 3], [3, 1]]))
    res = support(P, [1e10, 1.0])
    assert P.vertices[4].tolist() == [3e300, 1e300]
    assert res.face == (4,)
    assert res.value == res.margin == np.inf


# Points are admitted while |x|_2 < 2^1022 / sqrt(dim): (s, s) while s < 2^1021 in the plane.
PLANE_BOUND = 2.0**1021


@pytest.mark.parametrize(
    "points",
    [
        # the diameter overflowed, scale became inf and the hull kept 1 of 4 vertices
        [[1.5e308, 1.5e308], [1.5e308, 1.4e308], [0, 0], [1.4e308, 0]],
        # V @ u overflowed, so support at (0.9, 0.9) tied all three vertices
        [[1.2e308, 1.2e308], [1.2e308, 1.1e308], [1.1e308, 1.2e308]],
        [[0.0, 0.0], [PLANE_BOUND, PLANE_BOUND]],
        [[0.0, 0.0], [0.0, -2.0**1022]],
    ],
)
def test_points_past_the_coordinate_bound_raise(points):
    with pytest.raises(BadNumber, match="non-finite"):
        extreme_points(points)


def test_minkowski_sum_past_the_bound_raises():
    s = 0.75 * PLANE_BOUND
    P = extreme_points([[0.0, 0.0], [s, 0.0], [0.0, s]])
    assert P.num_vertices == 3
    with pytest.raises(BadNumber, match="non-finite"):
        minkowski_sum(P, P)


def test_apply_homothety_past_the_bound_raises():
    square = extreme_points([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert apply_homothety(square, [0.0, 0.0], 0.5 * PLANE_BOUND).num_vertices == 4
    for ratio in (PLANE_BOUND, 1e308):
        with pytest.raises(BadNumber, match="non-finite"):
            apply_homothety(square, [0.0, 0.0], ratio)
    with pytest.raises(BadNumber, match="non-finite"):
        apply_homothety(square, [PLANE_BOUND, PLANE_BOUND], 1.0)


def test_set_just_inside_the_bound_keeps_every_vertex():
    s = np.nextafter(PLANE_BOUND, 0.0)
    P = extreme_points(s * np.array([[1.0, 1.0], [1.0, 0.9], [0.9, 1.0], [-1.0, -1.0]]))
    assert P.num_vertices == 4 and 0.0 < P.diameter < np.inf
    assert P.vertices[3].tolist() == [s, s]
    res = support(P, [0.9, 0.9])
    assert res.face == (3,) and 0.0 < res.margin < res.value < np.inf
    # on an axis the bound is 2^1021.5, past max|x| < 2^1022 / dim
    assert extreme_points([[0.0, 0.0], [1.4 * PLANE_BOUND, 0.0]]).num_vertices == 2


def test_shadows_of_an_admitted_polytope_are_admitted():
    # a cube with |x|_2 = 0.9 * 2^1022 / sqrt(3); a shadow along (1, 1, 1) has max|y| above
    # 2^1022 / 2, yet |y|_2 <= |x|_2 < 2^1022 / sqrt(2)
    c = 0.3 * 2.0**1022
    P = extreme_points(c * np.array(list(itertools.product([-1.0, 1.0], repeat=3))))
    frame = orthonormalize([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    Q = project_polytope(P, frame)
    assert Q.num_vertices == 6 and np.abs(Q.vertices).max() > 2.0**1021
    report = verify_theorem1(P, apply_homothety(P, [0.0, 0.0, 0.0], -0.5), 2, 20, 5)
    assert report.verdict == "pass" and report.passes == 20


def test_detect_homothety_with_a_ratio_past_the_float_range_is_none():
    # lambda = 2e600 and 5e-601 are not floats
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    big, small = extreme_points(2e300 * square), extreme_points(1e-300 * square)
    assert detect_homothety(big, small) is None
    assert detect_homothety(small, big) is None


@pytest.mark.parametrize("s", [2.0**-1074, 1e-300, 2.0**-600, 1.0, 2.0**600, 1e300, 2.0**1020])
def test_orthonormalize_is_scale_free(s):
    # the 45 degree frame at every scale, and at a power of two the bits of s = 1;
    # the norms of the inputs once underflowed to 0 or overflowed to inf
    F = orthonormalize(s * np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    r = np.sqrt(0.5)
    assert np.allclose(F.basis, [[r, r, 0.0], [r, -r, 0.0]], rtol=0.0, atol=1e-15)
    if np.log2(s).is_integer():
        unit = orthonormalize([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert F.basis.tobytes() == unit.basis.tobytes()


def test_orthonormalize_far_apart_norms_are_dependent_without_overflow():
    # |(1, 0, 0)| is 1e-300 of |(1e300, 1e300, 0)|, far below RANK_TOL
    with pytest.raises(DependentInput, match="dependent"):
        orthonormalize([[1e300, 1e300, 0.0], [1.0, 0.0, 0.0]])


def test_hull_far_from_its_own_scale_sorts_without_overflow():
    # |x| / scale past ~1.8e299 overflowed the grid cells of the canonical sort
    assert extreme_points([[1e300, 0.0]]).vertices.tolist() == [[1e300, 0.0]]
    P = extreme_points([[1e300, 1.0], [1e300, 0.0]])
    assert P.vertices.tolist() == [[1e300, 0.0], [1e300, 1.0]]
    assert negate(P).vertices.tolist() == [[-1e300, -1.0], [-1e300, 0.0]]


@pytest.mark.parametrize("axis", [1, (1, 2), (-3, -2, -1)])
def test_binade_contract(axis):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 3, 4, 2)) * np.ldexp(1.0, rng.integers(-1070, 1020, (6, 1, 1, 1)))
    X[2] = 0.0
    X[4, 1] = 0.0
    Y, e, m = _binade(X, axis)
    assert e.shape == m.shape == np.abs(X).max(axis=axis, keepdims=True).shape
    assert np.array_equal(np.ldexp(Y, e), X)
    assert np.array_equal(m, np.abs(Y).max(axis=axis, keepdims=True))
    zero = np.abs(X).max(axis=axis, keepdims=True) == 0.0
    assert zero.any() and (~zero).any()
    assert np.all(e[zero] == 0) and np.all(m[zero] == 0.0)
    assert np.all((0.5 <= m[~zero]) & (m[~zero] < 1.0))


def test_binade_of_empty_and_non_finite_slices():
    Y, e, m = _binade(np.zeros((2, 0)), 1)
    assert Y.shape == (2, 0) and e.tolist() == [[0], [0]] and m.tolist() == [[0.0], [0.0]]
    X = np.array([[np.inf, 1e308], [np.nan, 1.0]])
    Y, e, m = _binade(X, 1)
    assert np.array_equal(Y, X, equal_nan=True) and e.tolist() == [[0], [0]]
    assert m[0, 0] == np.inf and np.isnan(m[1, 0])


@pytest.mark.parametrize("name", sorted(BASES))
@settings(max_examples=40, deadline=None)
@given(s=SCALES, seed=st.integers(0, 2**32 - 1), shift=st.floats(0.0, 1e3))
def test_hull_and_homothety_are_scale_invariant(name, s, seed, shift):
    X = BASES[name]
    P0 = extreme_points(X)

    # pure scaling keeps the vertices and their canonical order
    V = extreme_points(s * X).vertices
    assert V.shape == P0.vertices.shape
    assert np.allclose(V / s, P0.vertices, rtol=1e-12, atol=0.0)

    # a permutation, a rotation and a translation up to 1e3 diameters keep the count
    rng = np.random.default_rng(seed)
    n = X.shape[1]
    rotation, _ = np.linalg.qr(rng.standard_normal((n, n)))
    direction = rng.standard_normal(n)
    t = shift * P0.diameter * direction / np.linalg.norm(direction)
    Y = X[rng.permutation(len(X))] @ rotation.T + t
    P = extreme_points(s * Y)
    assert P.num_vertices == P0.num_vertices

    h = detect_homothety(P, extreme_points(Y))
    assert h is not None and h.ratio == pytest.approx(s, rel=1e-9)
