import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from homproj import (
    BadDims,
    DimensionMismatch,
    EmptyInput,
    Frame,
    Polytope,
    ZeroDirection,
    diameter,
    extreme_points,
    extreme_points_many,
    minkowski_sum,
    negate,
    orthonormalize,
    project_polytope,
    random_polytope,
    set_equal,
    support,
)


def test_interior_point_dropped():
    P = extreme_points([[0, 0], [1, 0], [0, 1], [0.25, 0.25]])
    assert P.vertices.tolist() == [[0, 0], [0, 1], [1, 0]]


def test_midpoint_dropped():
    P = extreme_points([[0, 0], [1, 0], [2, 0]])
    assert P.vertices.tolist() == [[0, 0], [2, 0]]


def test_square_unchanged_and_sorted(square):
    assert square.vertices.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_extreme_points_idempotent():
    rng = np.random.default_rng(2)
    for seed in range(10):
        P = random_polytope(3, 15, seed)
        again = extreme_points(P.vertices)
        assert np.array_equal(P.vertices, again.vertices)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_extreme_points_match_scipy_convex_hull(dim, seed):
    X = np.random.default_rng(seed).standard_normal((30, dim))
    expected = {tuple(p) for p in X[ConvexHull(X).vertices].tolist()}
    assert {tuple(v) for v in extreme_points(X).vertices.tolist()} == expected


def test_extreme_points_errors():
    with pytest.raises(EmptyInput):
        extreme_points([])
    with pytest.raises(DimensionMismatch):
        extreme_points([[1, 2], [1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        extreme_points(np.zeros((2, 3, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        extreme_points([[0, 0], [1, math.nan]])


def test_extreme_points_many_errors():
    stack = np.zeros((3, 4, 2))
    stack[1, 2, 0] = math.inf
    with pytest.raises(ValueError, match="non-finite"):
        extreme_points_many(stack)
    for empty in ([], np.zeros((0, 4, 2)), [np.zeros((0, 2))]):
        with pytest.raises(EmptyInput):
            extreme_points_many(empty)
    with pytest.raises(DimensionMismatch):
        extreme_points_many([[[0, 0], [1, 0]], [[1, 2], [1, 2, 3]]])
    with pytest.raises(DimensionMismatch):
        extreme_points_many(np.zeros((4, 2)))


def test_support_square_edge(square):
    res = support(square, [1, 0])
    assert res.value == 1.0
    assert [square.vertices[i].tolist() for i in res.face] == [[1, 0], [1, 1]]
    assert res.margin == pytest.approx(1.0)


def test_support_square_corner(square):
    res = support(square, [1, 1])
    assert res.value == 2.0
    assert res.face == (3,)
    assert res.margin == pytest.approx(1.0)


def test_support_singleton():
    P = extreme_points([[5.0, 5.0]])
    res = support(P, [0, 1])
    assert res.value == 5.0
    assert res.face == (0,)
    assert res.margin == math.inf


def test_support_zero_direction(square):
    with pytest.raises(ZeroDirection):
        support(square, [0, 0])


def _plain_support(P, u):
    """Frozen copy of ``support`` before directions with an over- or
    underflowing norm were rescaled: the reference for normal-range u."""
    u = np.asarray(u, dtype=float)
    norm_u = float(np.linalg.norm(u))
    vals = P.vertices @ u
    best = float(vals.max())
    on_face = vals >= best - 1e-9 * P.scale * norm_u
    off = vals[~on_face]
    margin = float(best - off.max()) if off.size else math.inf
    return best, tuple(int(i) for i in np.flatnonzero(on_face)), margin


def test_support_direction_with_extreme_norm(square):
    # |u| overflows or underflows though u is finite and nonzero
    for u in ([1e308, 1e308], [1e-300, 2e-300]):
        assert support(square, u).face == (3,)
    for u in ([0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], [1e308, np.nan]):
        with pytest.raises(ZeroDirection):
            support(square, u)
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        P = random_polytope(n, 9, n)
        for u in rng.standard_normal((20, n)):
            res = support(P, u)
            assert (res.value, res.face, res.margin) == _plain_support(P, u)
            # a power of two moves the norm out of range but keeps the face
            for k in (1000, -1000):
                big = support(P, np.ldexp(u, k))
                assert big.face == res.face
                assert big.value == np.ldexp(res.value, k)
                assert big.margin == np.ldexp(res.margin, k)


def test_negate(square):
    assert negate(square).vertices.tolist() == [[-1, -1], [-1, 0], [0, -1], [0, 0]]
    # origin-symmetric set is fixed by negation
    octagon = extreme_points(
        [
            [np.cos(k * np.pi / 4), np.sin(k * np.pi / 4)]
            for k in range(8)
        ]
    )
    assert set_equal(octagon, negate(octagon), 1e-9)


def test_canonical_order_ignores_input_order():
    # x coordinates 6e-10 apart, within the 1e-9 tie band pairwise but not
    # end to end: a banded comparator is not transitive on these rows
    V = np.array([[0.0, 1.0], [6e-10, 0.5], [1.2e-9, 0.0]])
    orders = {
        negate(Polytope(V[list(p)])).vertices.tobytes()
        for p in itertools.permutations(range(3))
    }
    assert len(orders) == 1
    # x values 1e-12 apart tie, so y decides
    assert negate(Polytope([[1e-12, -1.0], [0.0, 0.0]])).vertices.tolist() == [[0, 0], [-1e-12, 1]]


def test_near_duplicates_keep_the_first_kept_point():
    # the first copy of a duplicated vertex is the one kept
    P = extreme_points([[1 + 1e-12, 1], [0, 0], [1, 0], [0, 1], [1, 1]])
    assert P.vertices.tolist() == [[0, 0], [0, 1], [1, 0], [1 + 1e-12, 1]]
    # a chain 6e-10 apart: the middle point is dropped as a near copy of the
    # kept first one, the last is not near any kept point and stays, and the
    # first is then inside the segment
    P = extreme_points([[0, 0], [1, 0], [1 + 6e-10, 0], [1 + 1.2e-9, 0]])
    assert P.vertices.tolist() == [[0, 0], [1 + 1.2e-9, 0]]


def test_minkowski_difference_body_of_square(square):
    K = minkowski_sum(square, negate(square))
    assert K.vertices.tolist() == [[-1, -1], [-1, 1], [1, -1], [1, 1]]


def test_minkowski_translation(square):
    t = extreme_points([[2.0, 3.0]])
    moved = minkowski_sum(square, t)
    assert moved.vertices.tolist() == [[2, 3], [2, 4], [3, 3], [3, 4]]


def test_minkowski_segments_make_square():
    s1 = extreme_points([[0, 0], [1, 0]])
    s2 = extreme_points([[0, 0], [0, 1]])
    assert minkowski_sum(s1, s2).vertices.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_support_additive_under_minkowski():
    rng = np.random.default_rng(8)
    P = random_polytope(3, 9, 1)
    Q = random_polytope(3, 9, 2)
    S = minkowski_sum(P, Q)
    scale = max(1.0, diameter(S))
    for _ in range(100):
        u = rng.standard_normal(3)
        total = support(S, u).value
        split = support(P, u).value + support(Q, u).value
        assert abs(total - split) <= 1e-9 * scale * np.linalg.norm(u)


def test_project_cube_axis_frame(cube):
    F = Frame(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    Q = project_polytope(cube, F)
    assert Q.vertices.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_project_cube_tilted_frame(cube):
    # oracle: enumerate the 8 projected corners and take their hull
    F = orthonormalize([[1, 1, 0], [0, 0, 1]])
    Q = project_polytope(cube, F)
    expected = extreme_points(cube.vertices @ F.basis.T)
    assert np.array_equal(Q.vertices, expected.vertices)
    assert Q.vertices[:, 0].max() == pytest.approx(np.sqrt(2))
    assert Q.vertices[:, 1].max() == pytest.approx(1.0)
    assert Q.num_vertices == 4


def test_project_full_frame_is_isometric():
    P = random_polytope(3, 8, 4)
    F = orthonormalize(np.random.default_rng(0).standard_normal((3, 3)))
    Q = project_polytope(P, F)
    assert Q.num_vertices == P.num_vertices
    assert diameter(Q) == pytest.approx(diameter(P))


def test_diameter(square):
    assert diameter(square) == pytest.approx(np.sqrt(2))
    assert diameter(extreme_points([[7.0, 7.0]])) == 0.0
    assert diameter(extreme_points([[0, 0], [3, 4]])) == pytest.approx(5.0)


def test_random_polytope_deterministic():
    P1 = random_polytope(2, 8, 7)
    P2 = random_polytope(2, 8, 7)
    assert np.array_equal(P1.vertices, P2.vertices)
    assert P1.num_vertices <= 8
    assert random_polytope(3, 1, 0).num_vertices == 1
    with pytest.raises(BadDims):
        random_polytope(0, 5, 1)


def test_projection_commutes_with_homothety():
    from homproj import apply_homothety, detect_homothety

    rng = np.random.default_rng(5)
    for trial in range(10):
        P = random_polytope(3, 10, 50 + trial)
        z = rng.standard_normal(3)
        lam = float(rng.uniform(0.2, 3.0)) * (1 if trial % 2 else -1)
        F = orthonormalize(rng.standard_normal((2, 3)))
        lhs = project_polytope(apply_homothety(P, z, lam), F)
        rhs = apply_homothety(project_polytope(P, F), F.basis @ z, lam)
        assert set_equal(lhs, rhs, 1e-9)


def test_width_nonnegative():
    rng = np.random.default_rng(12)
    P = random_polytope(3, 10, 3)
    for _ in range(50):
        u = rng.standard_normal(3)
        width = support(P, u).value + support(negate(P), u).value
        assert width >= 0.0
