import numpy as np
import pytest

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
from homproj.exposed import PERTURB_RETRIES, ExposedDiameter
from homproj.polytope import REL_TOL


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
    with pytest.raises(AssertionError, match="LP kernel used"):
        extreme_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


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
