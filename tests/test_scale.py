"""Predicates are scale-invariant, and invariant under rotation and translation
while diameter / max|coordinate| stays far above machine epsilon."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homproj import (
    detect_homothety,
    extreme_points,
    set_equal,
    support,
    verify_diameter_transfer,
    verify_no_parallel_diameters,
    verify_theorem2,
)


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
