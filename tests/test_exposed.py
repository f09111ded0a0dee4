import importlib
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from exact import exact_margin

import homproj.exposed
import homproj.lp
import homproj.polytope
from homproj import (
    DimensionMismatch,
    NotAVertex,
    PerturbationFailed,
    SingletonInput,
    antipodally_exposed_points,
    diameter,
    exposed_diameter_near,
    exposed_diameters,
    exposed_point_near,
    extreme_points,
    is_exposed,
    minkowski_sum,
    negate,
    random_polytope,
    support,
)
from homproj.exposed import (
    PERTURB_RETRIES,
    ExposedDiameter,
    _antipodal_rows,
    _diameter_pairs,
    _pair_programs,
    _ray_screen,
    _rays_apply,
    _screen,
    _tangent_drops,
)
from homproj.lp import margin_directions
from homproj.polytope import REL_TOL, Polytope, _apart
from homproj.verify import verify_no_parallel_diameters, verify_theorem2


def grid_diameter_pairs(P, angles=10000):
    """Dense direction-grid oracle for exposed diameters of a polygon.

    Marks an (argmax, argmin) vertex index pair whenever both are strict
    unique optimizers along a grid direction.
    """
    V = P.vertices
    pairs = set()
    for theta in np.linspace(0.0, np.pi, angles, endpoint=False):
        u = np.array([np.cos(theta), np.sin(theta)])
        vals = V @ u
        order = np.argsort(vals)
        gap = 1e-9 * max(1.0, diameter(P))
        hi, hi2 = order[-1], order[-2]
        lo, lo2 = order[0], order[1]
        if vals[hi] - vals[hi2] > gap and vals[lo2] - vals[lo] > gap:
            pairs.add(frozenset((int(hi), int(lo))))
    return pairs


def diameter_index_pairs(P):
    idx = {tuple(v.tolist()): i for i, v in enumerate(P.vertices)}
    return {
        frozenset((idx[tuple(d.x.tolist())], idx[tuple(d.z.tolist())]))
        for d in exposed_diameters(P)
    }


def test_is_exposed_simplex_vertex(triangle):
    flag, witness, margin = is_exposed(triangle, [0.0, 0.0])
    assert flag and margin > 0
    # witness points roughly along -(1,1)
    assert witness[0] < 0 and witness[1] < 0


def test_is_exposed_segment_endpoints():
    seg = extreme_points([[0.0, 0.0], [3.0, 4.0]])
    for v in seg.vertices:
        flag, _, margin = is_exposed(seg, v)
        assert flag and margin > 0


def test_is_exposed_not_a_vertex(square):
    with pytest.raises(NotAVertex):
        is_exposed(square, [0.5, 0.5])


def test_is_exposed_checks_the_vertex_length(square):
    # [1.0] would broadcast against every row and match the vertex (1, 1)
    for v in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(DimensionMismatch):
            is_exposed(square, v)


def test_exposed_point_near_square_tied_direction(square):
    v, g = exposed_point_near(square, np.array([1.0, 0.0]), 1e-3)
    assert np.linalg.norm(np.array([1.0, 0.0]) - g) <= 1e-3
    assert tuple(v.tolist()) in {(1.0, 0.0), (1.0, 1.0)}
    res = support(square, g)
    assert len(res.face) == 1


def test_exposed_point_near_halves_a_step_past_eps(square):
    # seed 4's first draw d points away from the tied f: f + eps d lands over eps from f once
    # normalized, so the step halves until it lands within eps, where the square exposes a vertex
    f, eps = np.array([1.0, 0.0]), 1.0
    d = np.random.default_rng(np.random.SeedSequence([4, 0])).standard_normal(2)
    d /= np.linalg.norm(d)
    units = [g / np.linalg.norm(g) for g in (f + eps / 2.0**h * d for h in range(30))]
    first = next(h for h, g in enumerate(units) if np.linalg.norm(f - g) <= eps)
    assert first >= 1
    v, g = exposed_point_near(square, f, eps, seed=4)
    assert g.tobytes() == units[first].tobytes()
    assert np.linalg.norm(f - g) <= eps
    (i,) = support(square, g).face
    assert v.tobytes() == square.vertices[i].tobytes()


def test_exposed_point_near_already_unique(triangle):
    f = -np.array([1.0, 1.0]) / np.sqrt(2)
    v, g = exposed_point_near(triangle, f, 1e-3)
    assert np.array_equal(g, f)
    assert v.tolist() == [0.0, 0.0]


def test_exposed_point_near_singleton():
    P = extreme_points([[2.0, 2.0]])
    f = np.array([0.0, 1.0])
    v, g = exposed_point_near(P, f, 1e-3)
    assert v.tolist() == [2.0, 2.0]
    assert np.array_equal(g, f)


def test_exposed_diameter_near_square(square):
    d = exposed_diameter_near(square, np.array([1.0, 0.0]), 1e-3)
    # a diagonal: brute-force argmax/argmin along the returned witness
    vals = square.vertices @ d.witness
    assert np.array_equal(square.vertices[vals.argmax()], d.x)
    assert np.array_equal(square.vertices[vals.argmin()], d.z)
    assert np.linalg.norm(d.x - d.z) == pytest.approx(np.sqrt(2))
    assert d.margin_max > 0 and d.margin_min > 0
    assert np.linalg.norm(d.witness) == pytest.approx(1.0, abs=1e-12)


def test_exposed_diameter_near_segment():
    seg = extreme_points([[0.0, 0.0], [3.0, 4.0]])
    f = np.array([3.0, 4.0]) / 5.0
    d = exposed_diameter_near(seg, f, 1e-3)
    assert d.x.tolist() == [3.0, 4.0]
    assert d.z.tolist() == [0.0, 0.0]
    assert np.array_equal(d.witness, f)


def test_exposed_diameter_near_singleton():
    with pytest.raises(SingletonInput):
        exposed_diameter_near(extreme_points([[1.0, 1.0]]), np.array([1.0, 0.0]), 1e-3)


def _kstar_exposed_diameter_near(P, kstar, f, eps, seed=0):
    """Frozen copy of the K*-based ``exposed_diameter_near``: the reference.

    It perturbs f until the difference body kstar = P + (-P) has a strict
    single vertex there, and reads x and z off the faces of P. kstar is
    passed in so that a test hulls it once per P, not once per call.
    """

    def unique_face(Q, direction):
        res = support(Q, direction)
        if len(res.face) == 1 and res.margin > REL_TOL * Q.scale:
            return res.face[0]
        return None

    def point_near(Q):
        f_ = np.asarray(f, dtype=float)
        i = unique_face(Q, f_)
        if i is not None:
            return Q.vertices[i], f_
        for attempt in range(PERTURB_RETRIES):
            rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
            d = rng.standard_normal(Q.dim)
            d /= np.linalg.norm(d)
            eta = eps
            for _ in range(30):
                g = f_ + eta * d
                g /= np.linalg.norm(g)
                if np.linalg.norm(f_ - g) > eps:
                    eta /= 2.0
                    continue
                i = unique_face(Q, g)
                if i is not None:
                    return Q.vertices[i], g
                break
        raise PerturbationFailed("no unique exposing direction")

    vstar, g = point_near(kstar)
    hi = unique_face(P, g)
    lo = unique_face(P, -g)
    if hi is None or lo is None:
        raise PerturbationFailed("difference-body direction does not split P strictly")
    x, z = P.vertices[hi], P.vertices[lo]
    if np.linalg.norm((x - z) - vstar) > REL_TOL * kstar.scale:
        raise PerturbationFailed("difference-body vertex does not match x - z")
    return ExposedDiameter(
        x=x,
        z=z,
        i=hi,
        j=lo,
        witness=g,
        margin_max=support(P, g).margin,
        margin_min=support(P, -g).margin,
    )


def _outcome(near, f, seed):
    """Indices of x and z, and bytes of x, z, witness and both margins of
    near(f, 1e-3, seed), or the exception type."""
    try:
        d = near(f, 1e-3, seed)
    except PerturbationFailed as exc:
        return type(exc)
    return (d.i, d.j) + tuple(
        np.asarray(v, dtype=float).tobytes()
        for v in (d.x, d.z, d.witness, d.margin_max, d.margin_min)
    )


def _near_directions(dim, rng, count):
    """Every +-axis direction, where faces tie and f must be perturbed, and
    count seeded random unit directions."""
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    rand = rng.standard_normal((count, dim))
    return np.vstack([axes, rand / np.linalg.norm(rand, axis=1)[:, None]])


def test_exposed_diameter_near_matches_kstar_reference(square, triangle, cube, octahedron):
    rng = np.random.default_rng(2024)
    cases = [(P, 12) for P in (square, triangle, cube, octahedron)]
    # criteria 1 and 2 corpus polytopes in R^2 and R^3
    cases += [(random_polytope(2, 12, 2000 + i), 4) for i in range(5)]
    cases += [(random_polytope(3, 12, 3000 + i), 4) for i in range(4)]
    calls = 0
    for P, count in cases:
        kstar = minkowski_sum(P, negate(P))

        def new(f, eps, seed):
            return exposed_diameter_near(P, f, eps, seed=seed)

        def ref(f, eps, seed):
            return _kstar_exposed_diameter_near(P, kstar, f, eps, seed=seed)

        for f in _near_directions(P.dim, rng, count):
            for seed in (0, 3):
                assert _outcome(new, f, seed) == _outcome(ref, f, seed), (P.vertices, f, seed)
                calls += 1
    assert calls == 296


class _NoLP:
    def __getattr__(self, name):
        raise AssertionError(f"LP kernel used: {name}")


def test_exposed_diameter_near_solves_no_lp(monkeypatch, square, triangle, cube, octahedron):
    monkeypatch.setattr(homproj.lp, "_kernel", _NoLP())
    for P in (square, triangle, cube, octahedron):
        for f in np.vstack([np.eye(P.dim), -np.eye(P.dim)]):
            d = exposed_diameter_near(P, f, 1e-3)
            assert np.linalg.norm(f - d.witness) <= 1e-3
    # the probe is live: a point inside a 4-simplex is no lone face of any direction, and the
    # planar and facet screens do not see R^4, so it needs an LP
    with pytest.raises(AssertionError, match="LP kernel used"):
        extreme_points(np.vstack([np.zeros(4), np.eye(4), np.full(4, 0.2)]))


def test_exposed_diameters_square_matches_grid_oracle(square):
    assert diameter_index_pairs(square) == grid_diameter_pairs(square)
    # exactly the two diagonals
    endpoints = {
        frozenset((tuple(d.x.tolist()), tuple(d.z.tolist())))
        for d in exposed_diameters(square)
    }
    assert endpoints == {
        frozenset(((0.0, 0.0), (1.0, 1.0))),
        frozenset(((1.0, 0.0), (0.0, 1.0))),
    }


def test_exposed_diameters_triangle_all_pairs(triangle):
    assert diameter_index_pairs(triangle) == grid_diameter_pairs(triangle)
    assert len(exposed_diameters(triangle)) == 3


def test_exposed_diameters_random_polygons_match_grid_oracle():
    for seed in range(12):
        P = random_polytope(2, 9, 300 + seed)
        assert diameter_index_pairs(P) == grid_diameter_pairs(P), seed


def test_exposed_diameters_segment():
    seg = extreme_points([[0.0, 0.0], [1.0, 2.0]])
    diams = exposed_diameters(seg)
    assert len(diams) == 1
    with pytest.raises(SingletonInput):
        exposed_diameters(extreme_points([[0.0, 0.0]]))


def test_diameter_witness_invariants():
    P = random_polytope(3, 10, 77)
    for d in exposed_diameters(P):
        hi = support(P, d.witness)
        lo = support(P, -d.witness)
        assert len(hi.face) == 1 and len(lo.face) == 1
        assert np.array_equal(P.vertices[hi.face[0]], d.x)
        assert np.array_equal(P.vertices[lo.face[0]], d.z)


def test_diameter_indices_name_their_endpoints(square, cube, octahedron):
    rng = np.random.default_rng(11)
    for P in (square, cube, octahedron, random_polytope(2, 9, 8), random_polytope(4, 10, 9)):
        diams = exposed_diameters(P)
        diams += [exposed_diameter_near(P, f, 1e-3) for f in _near_directions(P.dim, rng, 4)]
        for d in diams:
            assert np.array_equal(P.vertices[d.i], d.x)
            assert np.array_equal(P.vertices[d.j], d.z)
            assert d.i != d.j


def test_difference_body_consistency():
    # the difference-body exposed vertex equals x - z for every call
    rng = np.random.default_rng(42)
    P = random_polytope(2, 8, 5)
    kstar = minkowski_sum(P, negate(P))
    for _ in range(25):
        f = rng.standard_normal(2)
        f /= np.linalg.norm(f)
        d = exposed_diameter_near(P, f, 1e-3)
        res = support(kstar, d.witness)
        assert len(res.face) == 1
        vstar = kstar.vertices[res.face[0]]
        assert np.linalg.norm((d.x - d.z) - vstar) <= 1e-9 * max(1.0, diameter(kstar))


def test_antipodally_exposed_all_vertices(square, triangle):
    assert len(antipodally_exposed_points(square)) == 4
    assert len(antipodally_exposed_points(triangle)) == 3
    with pytest.raises(SingletonInput):
        antipodally_exposed_points(extreme_points([[0.0, 1.0]]))


def test_no_two_diameters_parallel():
    for seed in range(8):
        P = random_polytope(3, 9, 900 + seed)
        dirs = [
            (d.x - d.z) / np.linalg.norm(d.x - d.z) for d in exposed_diameters(P)
        ]
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                assert abs(float(dirs[i] @ dirs[j])) < 1.0 - 1e-9


def test_exposed_diameters_measures_the_polytope_once(monkeypatch):
    P = random_polytope(3, 10, 4)
    calls = []
    distances = homproj.polytope._distances

    def counted(*args):
        calls.append(args)
        return distances(*args)

    monkeypatch.setattr(homproj.polytope, "_distances", counted)
    assert len(exposed_diameters(P)) > 1
    assert len(calls) <= 1


def _cover_corpus():
    """Seeded Gaussian polytopes in R^2-R^4, 10-point sphere polytopes in R^3 and R^4 (the
    benchmark's exposed corpus), symmetric bodies with many tied pairs, and a direct build with
    a row between two others, whose two chords cancel in a bisector."""
    rng = np.random.default_rng(24)
    spheres = [rng.standard_normal((10, n)) for n in (3, 4) for _ in range(8)]
    polygons = [np.exp(2j * np.pi * np.arange(m) / m) for m in (3, 5, 6, 8, 12)]
    bodies = [
        [[0, 0], [1, 0], [0, 1], [1, 1]],
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
        np.vstack([np.eye(3), -np.eye(3)]),
        [[0.0, 0.0], [1.0, 1.0]],
    ] + [np.column_stack([z.real, z.imag]) for z in polygons]
    return (
        [random_polytope(n, 12, 2400 + 10 * n + s) for n in (2, 3, 4) for s in range(10)]
        + [extreme_points(X / np.linalg.norm(X, axis=1)[:, None]) for X in spheres]
        + [extreme_points(B) for B in bodies]
        + [Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))]
    )


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_the_cover_finds_the_endpoints_of_the_full_enumeration(monkeypatch, kernel):
    # the chord screen first, then every unscreened pair of a row still no endpoint: at most
    # one call, and fewer pair LPs than all of them
    calls, real = [], homproj.exposed.margin_directions
    monkeypatch.setattr(
        homproj.exposed, "margin_directions", lambda Ds: calls.append(len(Ds)) or real(Ds)
    )
    sent = every = 0
    for P in _cover_corpus():
        full = sorted({k for d in exposed_diameters(P) for k in (d.i, d.j)})
        calls.clear()
        assert _antipodal_rows(P) == full
        assert len(calls) <= 1
        k = P.num_vertices
        sent, every = sent + sum(calls), every + k * (k - 1) // 2
    assert sent < every


def _near_flat_bodies():
    """A vertex 1.2 tol below the edge of its two neighbours, on the chord to a far vertex, and
    the body turned by 90 degrees, so that the near vertex comes first in row order in one and
    last in the other: each chord has one wide gap and one the screen must not trust, and the
    pair's delta* is 1.2 tol (scipy's HiGHS agrees)."""
    V = np.array([[-1.0, 0.0], [0.0, -1.2 * REL_TOL * np.sqrt(10.0)], [1.0, 0.0], [0.0, 3.0]])
    return [Polytope(V), Polytope(V @ [[0.0, 1.0], [-1.0, 0.0]])]


def _translated_bodies():
    """Gaussian bodies in R^2-R^4 and the near-flat kites, of diameter 1e-2 to 1 at offsets 1e3
    to 1e6: at 1e6 half an ulp of a coordinate, 5.8e-11, is over 5 tol at diameter 1e-2."""
    rng = np.random.default_rng(28)
    bodies = []
    for d in (1e-2, 1e-1, 1.0):
        for c in (1e3, 1e6):
            bodies += [extreme_points(c + d * rng.standard_normal((9, n))) for n in (2, 3, 4)]
            bodies += [Polytope(c + d * P.vertices / P.diameter) for P in _near_flat_bodies()]
    return bodies


@cache
def _exact_at(rows, shape):
    return exact_margin(np.frombuffer(rows).reshape(shape))


def _exact(P, i, j):
    """Exact delta* (a Fraction) of the pair program of rows i < j of P."""
    D = _pair_programs(P.vertices, np.array([i]), np.array([j]))[0]
    return _exact_at(D.tobytes(), D.shape)


def _bar(P):
    """The pair screens' bar 4 sqrt(n) tol, exactly."""
    return Fraction(4.0 * math.sqrt(P.dim) * REL_TOL * P.scale)


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_the_chord_screen_never_disagrees_with_the_enumeration(kernel):
    # every pair the screen certifies without an LP is one whose LP has delta* > sqrt(n) tol,
    # so the diameter pairs are those of the full enumeration, also at 1e-300 and 1e300 and
    # on translated bodies; on a seeded subset exact delta* clears 4 sqrt(n) tol
    rng = np.random.default_rng(26)
    spread = [s * rng.standard_normal((9, n)) for s in (1e-300, 1e300) for n in (2, 3, 4)]
    screened, exact = 0, 0
    bodies = _cover_corpus() + [extreme_points(X) for X in spread] + _near_flat_bodies()
    for P in bodies + _translated_bodies():
        assert _diameter_pairs(P) == [(d.i, d.j) for d in exposed_diameters(P)]
        I, J = np.nonzero(_screen(P))
        V = P.vertices
        deltas, _ = margin_directions(np.concatenate([_apart(V)[I], _apart(-V)[J]], axis=1))
        assert (deltas > np.sqrt(P.dim) * REL_TOL * P.scale).all()
        screened += len(I)
        for t in rng.choice(len(I), min(len(I), 2), replace=False):
            assert _exact(P, I[t], J[t]) > _bar(P)
            exact += 1
    assert screened > 0 and exact > 100


def _square_and_cube_bodies():
    """The unit square and cube, and each turned by a seeded rotation: a pair along an edge or a
    face diagonal has parallel edges at both ends, so its C is a ray or a flat cone (delta* = 0)
    with nonzero rays on its boundary."""
    rng = np.random.default_rng(32)
    bodies = []
    for n in (2, 3):
        X = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        bodies += [extreme_points(X), extreme_points(X @ Q)]
    return bodies


def _ray_corpus():
    """Seeded R^2 and R^3 bodies for the extreme-ray screen: Gaussian bodies, sphere bodies, slabs
    and needles (axes scaled by 0.05 to 1), integer grids of them, a vertex c tol off an edge or a
    facet (c = 2^x / 2, x in U(0, 7)), pyramids over integer polygons, the near-flat kites and the
    translated bodies of dimension 2 and 3."""
    rng = np.random.default_rng(32)
    bodies = []
    for n in (2, 3):
        for s in range(24):
            k = int(rng.integers(5, 9))
            X = rng.standard_normal((k, n))
            if s % 4 == 1:
                X /= np.linalg.norm(X, axis=1)[:, None]
            elif s % 4 == 2:
                X *= rng.uniform(0.05, 1.0, n)
            elif s % 4 == 3:
                X = np.round(3.0 * X * rng.uniform(0.05, 1.0, n))
            bodies.append(extreme_points(X))
        for s in range(8):
            P = random_polytope(n, 7, 3200 + 10 * n + s)
            a, b = P.vertices[:n], P.vertices[:n].mean(axis=0)  # a face or edge of the hull
            normal = np.linalg.svd(np.vstack([a[1:] - a[0], np.zeros(n)]))[2][-1]
            normal *= np.sign(normal @ (b - P.vertices.mean(axis=0))) or 1.0
            c = 2.0 ** rng.uniform(-1.0, 6.0) * REL_TOL * P.scale
            bodies.append(extreme_points(np.vstack([P.vertices, b + c * normal])))
    for _ in range(6):  # an integer polygon on y = 0 and an apex at y = 1: chords on facets
        base = np.round(2.0 * rng.standard_normal((int(rng.integers(4, 8)), 2)))
        apex = np.append(np.round(rng.standard_normal(2)), 1.0)[[0, 2, 1]]
        bodies.append(extreme_points(np.vstack([np.insert(base, 1, 0.0, axis=1), apex])))
    bodies += _near_flat_bodies() + [P for P in _translated_bodies() if P.dim < 4]
    return [P for P in bodies if P.num_vertices > P.dim]


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_the_ray_screen_agrees_with_exact_arithmetic(kernel):
    # every open pair the ray screen drops has exact delta* = 0 and every one it keeps exact
    # delta* > 4 sqrt(n) tol; in R^3 both the tangent-cone drop and the per-pair rays drop some;
    # the squares' and cubes' rays on C's boundary reach the LP; and the diameter pairs are those
    # of the full enumeration
    verdicts = Counter()
    for P in _ray_corpus() + _square_and_cube_bodies():
        assert _rays_apply(P)
        assert _diameter_pairs(P) == [(d.i, d.j) for d in exposed_diameters(P)]
        open_ = np.triu(~_screen(P), 1)
        kept, left = _ray_screen(P, open_)
        tangent = _tangent_drops(P) if P.dim == 3 else np.zeros_like(open_)
        for i, j in zip(*np.nonzero(open_)):
            if kept[i, j]:
                assert _exact(P, i, j) > _bar(P)
                verdicts["kept"] += 1
            elif left[i, j]:
                verdicts["left"] += 1
            else:
                assert _exact(P, i, j) == 0
                verdicts[f"dropped in R^{P.dim}", "tangent" if tangent[i, j] else "rays"] += 1
    for P in _square_and_cube_bodies():
        open_ = np.triu(~_screen(P), 1)
        assert open_.any() and (_ray_screen(P, open_)[1] == open_).all()
    assert verdicts["kept"] > 250 and verdicts["left"] > 56
    assert verdicts["dropped in R^2", "rays"] > 200
    assert verdicts["dropped in R^3", "tangent"] > 250 and verdicts["dropped in R^3", "rays"] > 10


def _mirror_pair_body():
    """The vertex (0, e) 1.2 tol above the edge of its neighbours (-1, 0) and (1, 0), and (0, -3):
    rows (1, 2) are (0, -3) and (0, e), whose pair program has exact delta* = 1.20 tol."""
    e = 1.2 * REL_TOL * np.sqrt(10.0)
    return Polytope(np.array([[-1.0, 0.0], [0.0, e], [1.0, 0.0], [0.0, -3.0]]))


def test_the_mirror_pair_is_left_to_the_lp(monkeypatch):
    # its C has interior, so no ray drops it, and 1.20 tol is under the 4 sqrt(2) tol bar, so no
    # ray sum keeps it: the pair LP decides it, wrongly until ROADMAP item 4 (the xfail below)
    P = _mirror_pair_body()
    assert round(float(_exact(P, 1, 2) / Fraction(REL_TOL * P.scale)), 2) == 1.2
    sent, real = [], homproj.exposed.margin_directions
    monkeypatch.setattr(
        homproj.exposed, "margin_directions",
        lambda Ds: sent.extend(D.tobytes() for D in Ds) or real(Ds),
    )
    _diameter_pairs(P)
    assert _pair_programs(P.vertices, np.array([1]), np.array([2]))[0].tobytes() in sent


def test_the_corpus_checks_send_no_pair_lp_in_the_plane_and_in_space(monkeypatch):
    # the chord and ray screens decide every pair of the benchmark's seeded R^2 and R^3 bodies, so
    # theorem 2 and no-parallel make no margin LP call there; an R^4 body still makes its one call
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    corpus = importlib.import_module("workloads").make_corpus(7, 30)
    calls, real = [], homproj.exposed.margin_directions
    monkeypatch.setattr(
        homproj.exposed, "margin_directions", lambda Ds: calls.append(len(Ds)) or real(Ds)
    )
    for P in corpus:
        calls.clear()
        verify_theorem2(P)
        assert P.dim == 4 or not calls
        calls.clear()
        verify_no_parallel_diameters(P)
        assert len(calls) == (P.dim == 4)
    assert {P.dim for P in corpus} == {2, 3, 4}


@pytest.mark.parametrize("k, rays", [(21, True), (22, False)])
def test_a_set_past_the_size_bound_takes_the_lp(monkeypatch, k, rays):
    # a pair program's m C(m, 2) rays by rows, m = 2 (k - 1), stay within CHUNK_CELLS up to k = 21
    # in R^3; a larger set sends its open pairs to the LP, and either way the pairs are the
    # enumeration's
    X = np.random.default_rng(k).standard_normal((k, 3))
    P = extreme_points(X / np.linalg.norm(X, axis=1)[:, None])
    screens, lps = [], []
    screen, real = homproj.exposed._ray_screen, homproj.exposed.margin_directions
    monkeypatch.setattr(
        homproj.exposed, "_ray_screen", lambda P, o: screens.append(1) or screen(P, o)
    )
    monkeypatch.setattr(homproj.exposed, "margin_directions", lambda Ds: lps.append(1) or real(Ds))
    pairs = _diameter_pairs(P)
    assert P.num_vertices == k and len(screens) == rays and bool(lps) != rays
    assert pairs == [(d.i, d.j) for d in exposed_diameters(P)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the pair LP of rows (1, 2), exact "
                   "delta* = 1.20 tol, reports delta = 28.27 tol with a u whose min(D u) is "
                   "-27.07 tol, and the enumeration drops that pair")
@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_a_body_and_its_mirror_image_list_equally_many_diameters(kernel):
    # the LP of the pair of (0, e) with (0, -3) returns delta = 28 tol with a u whose min(D u) is
    # -27 tol, so the enumeration drops that pair here and keeps its mirror image's
    P = _mirror_pair_body()
    assert len(exposed_diameters(P)) == len(exposed_diameters(negate(P)))
