import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from exact import exact_margin
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

from homproj import (
    BadDims,
    BadNumber,
    DimensionMismatch,
    EmptyInput,
    Frame,
    KernelError,
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
from homproj.polytope import REL_TOL, _apart, _distances, _support_rows


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


def test_support_rows_match_the_plain_rule_row_by_row():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        P = random_polytope(n, 9, n)
        for count in (0, 1, 60):
            U = rng.standard_normal((count, n))
            U = np.concatenate([U, -U])
            value, on_face, margin = _support_rows(P, U)
            for u, v, face, m in zip(U, value, on_face, margin):
                ref_v, ref_face, ref_m = _plain_support(P, u)
                assert tuple(np.flatnonzero(face).tolist()) == ref_face
                assert np.array([v, m]).tobytes() == np.array([ref_v, ref_m]).tobytes()
            # a power of two moves every norm out of range but keeps the faces
            for k in (1000, -1000):
                big_value, big_face, big_margin = _support_rows(P, np.ldexp(U, k))
                assert np.array_equal(big_face, on_face)
                assert big_value.tobytes() == np.ldexp(value, k).tobytes()
                assert big_margin.tobytes() == np.ldexp(margin, k).tobytes()
        # one zero or non-finite row fails the whole stack
        for bad in (0.0, np.inf, np.nan):
            with pytest.raises(ZeroDirection):
                _support_rows(P, np.vstack([U, np.full(n, bad)]))


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


def test_direct_build_order_ignores_row_order():
    # hulls of 6 vertices, rows 6e-10 apart in x (a tie band) and two rows in one grid
    # cell, each also far out of unit scale and moved: all row orders give one order, the
    # order of the hull pass where the rows are a hull
    band = np.array([[0.0, 1.0], [6e-10, 0.5], [1.2e-9, 0.0]])
    cell = np.array([[0.0, 0.0], [1.0, 0.0], [2e-10, 2e-10]])  # was kept in input order
    hulls = [random_polytope(*args).vertices for args in ((2, 8, 1), (3, 6, 4), (4, 6, 5))]
    for V in hulls + [band, cell]:
        for s in (1.0, 1e-200, 1e200):
            W = s * V + s
            want = Polytope(W).vertices.tobytes()
            if V is not band and V is not cell:
                assert extreme_points(W).vertices.tobytes() == want
            for p in itertools.permutations(range(len(W))):
                assert Polytope(W[list(p)]).vertices.tobytes() == want


@pytest.mark.parametrize(
    "rows, error",
    [
        ([[math.nan, 0.0], [1.0, 1.0]], BadNumber),  # was kept with diameter nan
        ([[math.inf, 0.0], [1.0, 1.0]], BadNumber),
        ([[1e308, 0.0], [-1e308, 0.0]], BadNumber),  # was kept with scale inf, after an overflow
        ([[1.000001 * 2.0**1022 / math.sqrt(2.0), 0.0]], BadNumber),  # just past |x|_2 bound
        ([[1.0, 2.0], [1.0, 2.0, 3.0]], DimensionMismatch),  # was numpy's bare ValueError
        ([1.0, 2.0], DimensionMismatch),  # not rows
        ([], EmptyInput),
        (np.zeros((0, 3)), EmptyInput),
    ],
    ids=["nan", "inf", "past-bound", "just-past", "ragged", "one-dim", "empty", "no-rows"],
)
def test_direct_build_refuses_what_it_cannot_hold(rows, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            Polytope(rows)
    assert isinstance(info.value, KernelError)


def test_stacked_admission_refuses_what_set_by_set_admission_refuses():
    # an (S, k, n) array is admitted in one _bounded call and a list set by set, to one verdict
    stack = np.random.default_rng(29).standard_normal((3, 4, 2))
    edge = 2.0**1022 / math.sqrt(2.0)
    for row, error in (([np.nextafter(edge, 0.0), 0.0], None), ([1.000001 * edge, 0.0], BadNumber),
                       ([math.nan, 0.0], BadNumber), ([0.0, -math.inf], BadNumber)):
        X = stack.copy()
        X[1, 2] = row
        for given in (X, list(X)):
            if error is None:
                assert extreme_points_many(given)[1].vertices[:, 0].max() == row[0]
            else:
                with pytest.raises(error):
                    extreme_points_many(given)
    with pytest.raises(DimensionMismatch):
        extreme_points_many([stack[0], [[0.0, 1.0], [1.0]]])
    # the 1e93 set keeps no row (ROADMAP item 7), so its hull is refused, in an array or a list
    far = np.array([np.random.default_rng(7).standard_normal((4, 3)), NO_ROW_LEFT])
    for given in (far, list(far), np.zeros((2, 0, 3)), np.zeros((0, 4, 3)), []):
        with pytest.raises(EmptyInput):
            extreme_points_many(given)


def test_direct_build_is_measured_and_sorted():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # just inside the bound: a finite scale and the one true support face
        edge = np.nextafter(2.0**1022 / math.sqrt(2.0), 0.0)
        P = Polytope([[edge, 0.0], [-edge, 0.0]])
        assert P.vertices[:, 0].tolist() == [-edge, edge]
        assert P.diameter == P.scale == 2.0 * edge
        assert support(P, [1.0, 0.0]).face == (1,)
        assert support(P, [-1.0, 0.0]).face == (0,)
    # rows in the order extreme_points gives them, measured at build; the caller's
    # array is copied, not frozen
    V = np.array([[1.0, 0.0], [0.0, 0.0]])
    P = Polytope(V)
    assert P.vertices.tolist() == extreme_points(V).vertices.tolist() == [[0, 0], [1, 0]]
    assert (P.diameter, P.scale) == (1.0, 1.0)
    assert (Polytope([[5.0, 5.0]]).diameter, Polytope([[5.0, 5.0]]).scale) == (0.0, 1.0)
    assert V.flags.writeable and not P.vertices.flags.writeable
    assert "diameter" not in repr(P) and "scale" not in repr(P)


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


def _open_hull_defect(name, points, raises, reason):
    mark = pytest.mark.xfail(raises=raises, strict=True, reason=reason)
    return pytest.param(points, marks=mark, id=name)


NO_ROW_LEFT = [
    [6.633728468172425e+93, -5.575019412920714e+93, 1.9091473298488146e+94],
    [9.122939166139137e+93, -5.685367304818763e+93, 1.8610854852465955e+94],
    [9.122939164959114e+93, -5.685367306654015e+93, 1.8610854855416868e+94],
    [6.633728467039167e+93, -5.575019411544267e+93, 1.9091473296360514e+94],
]

# open defects of near-duplicate rows (ROADMAP trust item 7), pinned until a fix decides the pair
OPEN_HULL_DEFECTS = [
    _open_hull_defect(
        "lost_lp",
        [[-1.2999999979053902, -0.2000000039793104, 2.0000000003859637], [-1.3, -0.2, 2.0],
         [0.0, -1.4, 0.8], [-0.1, -1.3, 0.7], [0.3, 0.9, 1.2], [-1.8, 0.4, -1.0]],
        KernelError, "a margin LP is lost to rounding: row 4's program, exact delta* = 8.4e8 tol, "
        "raises KernelError, and the LP returns 0 on the near-duplicate rows' (1.40 and 1.90 tol)",
    ),
    _open_hull_defect(
        "one_vertex_left",
        [[424148.11, -467378.84], [424148.11000000016, -467378.8400000002],
         [424147.93, -467378.95]],
        AssertionError, "both rows of a near-duplicate pair are dropped: one vertex is left; "
        "their programs have exact delta* = 1.33 and 1.66 tol, and the LP returns 0",
    ),
    _open_hull_defect(
        "no_row_left", NO_ROW_LEFT,
        EmptyInput, "both near-duplicate pairs are dropped: no row is left; the four programs "
        "have exact delta* = 1.45, 2.35, 1.82 and 1.83 tol, and the LP returns 0.92 tol and 0",
    ),
]


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
@pytest.mark.parametrize("points", OPEN_HULL_DEFECTS)
def test_hull_covers_every_input_point(points, kernel):
    X = np.array(points)
    P = extreme_points(X)
    # in units of the input diameter from X[0]: nnls over the vertices with a sum-to-one row
    origin, diam = X[0], float(_distances(X).max())
    A = np.vstack([((P.vertices - origin) / diam).T, np.ones(P.num_vertices)])
    for x in (X - origin) / diam:
        _, gap = nnls(A, np.append(x, 1.0))
        assert gap <= 10 * REL_TOL


def test_the_open_hull_defects_have_the_exact_margins_their_reasons_state():
    # exact delta* (ROADMAP item 16), in units of the set's tol, of the programs of the rows that
    # each reason above names: one margin program per input row, in input order
    stated = {"lost_lp": {0: 1.40, 1: 1.90, 4: 8.4e8}, "one_vertex_left": {0: 1.33, 1: 1.66},
              "no_row_left": {0: 1.45, 1: 2.35, 2: 1.82, 3: 1.83}}
    for case in OPEN_HULL_DEFECTS:
        X = np.array(case.values[0], dtype=float)
        tol, programs = Fraction(REL_TOL * float(_distances(X).max())), _apart(X[None])[0]
        for row, value in stated[case.id].items():
            assert float(exact_margin(programs[row]) / tol) == pytest.approx(value, rel=0.01)
