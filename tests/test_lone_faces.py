"""The screens of ``extreme_points_many`` never disagree with the margin LP.

In R^4, and in R^3 for sets of fewer than 4 or more than 21 rows (k C(k, 3) > CHUNK_CELLS), a
row whose own margin program D has min(D u) > 2 tol at a sign vector u with one or two nonzero
entries is the lone best of u by that gap, and is kept without its LP. In R^2, a row is kept when
the bisector of the two rows of D around their widest angular gap clears 2 tol, and dropped when
the rows of D leave no gap of pi; in R^3 the facet screen keeps a row on the summed normals of
its facets and drops one that lies inside every facet; its other rows alone send LPs.
The seeded corpus holds Gaussian sets in R^2..R^4 at scales 1e-3..1e5 and offsets up to 1e6,
interior-heavy sets, near-duplicate sets as in ROADMAP item 7, sets with one row whose
margin is 0.25 to 4 times the tolerance, planar sets with one row 0.5 to 8 tolerances inside
or outside a hull edge at scales 1e-300, 1 and 1e300, planar sets of 17 to 23 rows, and R^3
and R^4 sets of 22 to 30 rows; the acceptance corpora ride along. On it every row a screen
decides must have the LP's verdict, every hull must carry the bytes of a frozen copy of the
hull that solves every LP, every crowded set must send all of its rows to the LP, and every
other set on the sign-vector path must send exactly its rows that no sign vector certifies.
Exact rational arithmetic (``exact.py``) judges every screen on seeded sets: a row it drops must
have exact delta* = 0, a row it keeps exact min(D u) > 2 tol at its screen direction u, or else
exact delta* > 2 tol. Both LP kernels run it.
"""

import itertools
import math
import operator
import sys
from collections import Counter
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from exact import exact_margin
from scipy.spatial import ConvexHull

import homproj as hp
from homproj import polytope
from homproj._simplex_py import CHUNK_CELLS
from homproj.lp import margin_directions
from homproj.polytope import REL_TOL, Polytope, _apart, _distances


def _frozen_full_lp_hulls(stack):
    """Frozen copy of ``extreme_points_many`` before the screen: one LP per kept row.
    Returns (hulls, per set (kept rows, LP margins, tol, crowded))."""
    hulls, records = [], []
    for P in stack:
        dist = _distances(P)
        tol = REL_TOL * (float(dist.max()) or 1.0)
        near = np.triu(dist <= tol, 1)
        keep = np.ones(len(P), dtype=bool)
        for i in np.flatnonzero(near.any(axis=1)):
            keep[near[i] & keep[i]] = False
        V, deltas = P[keep], np.full(1, np.inf)
        if len(V) > 1:
            deltas, _ = margin_directions(_apart(V[None])[0])
        hulls.append(Polytope(V[deltas > tol]))
        records.append((V, deltas, tol, bool(np.triu(dist <= 2**10 * tol, 1).any())))
    return hulls, records


def _lone_faces(V, tol):
    """(S, k) mask of the rows of V (S, k, n) that some sign vector u with one or two nonzero
    entries puts over every other row by more than 2 tol (S,): min(D u) > 2 tol on the row's
    own program D = ``_apart(V)[s, i]``, the rows the screen keeps without an LP outside R^2."""
    U = [u for u in itertools.product((-1.0, 0.0, 1.0), repeat=V.shape[2])
         if 1 <= np.count_nonzero(u) <= 2]
    gaps = np.matmul(_apart(V), np.array(U).T).min(axis=2)
    return (gaps > 2 * tol[:, None, None]).any(axis=2)


def _on_facet_path(k, n):
    """Whether a set of k distinct rows in R^n takes the facet screen, not the other two."""
    return n == 3 and k >= 4 and k * math.comb(k, 3) <= CHUNK_CELLS


def _near_duplicate_set(rng, k, n):
    """k Gaussian points plus one more c tol off a random one, c in U(0.5, 16) (item 7)."""
    X = rng.standard_normal((k, n))
    step = rng.standard_normal(n)
    step *= REL_TOL * _distances(X).max() * rng.uniform(0.5, 16.0) / np.linalg.norm(step)
    return np.vstack([X, X[rng.integers(k)] + step])


def _interior_heavy_set(rng, k, n):
    """n + 1 far points around k points drawn well inside their hull."""
    outer = 10.0 * rng.standard_normal((n + 1, n))
    weights = rng.dirichlet(np.ones(n + 1), size=k)
    return np.vstack([outer, weights @ outer])[rng.permutation(n + 1 + k)]


def _bump_set(rng, k, n):
    """n points on x_n = 0, one below them, k - n - 1 inside, and one c tol above the centroid
    of the first n, c in U(0.25, 4): its LP margin is c tol, around tol and 2 tol."""
    base = np.hstack([rng.uniform(-1.0, 1.0, (n, n - 1)), np.zeros((n, 1))])
    X = np.vstack([base, np.append(rng.uniform(-0.3, 0.3, n - 1), -1.0)])
    X = np.vstack([X, rng.dirichlet(np.ones(n + 1), size=max(k - n - 1, 0)) @ X])
    height = REL_TOL * _distances(X).max() * rng.uniform(0.25, 4.0)
    top = np.append(base[:, :-1].mean(axis=0), height)
    return np.vstack([X, top])[rng.permutation(len(X) + 1)]


def _near_edge_set(rng):
    """A Gaussian polygon, two rows inside it and one c tol inside or outside one of its edges,
    c in U(0.5, 8): around the 2 tol bars of the planar screens."""
    X = rng.standard_normal((int(rng.integers(4, 9)), 2))
    hull = ConvexHull(X).vertices  # counterclockwise
    t = rng.integers(len(hull))
    a, b = X[hull[t]], X[hull[(t + 1) % len(hull)]]
    outward = np.array([b[1] - a[1], a[0] - b[0]]) / np.linalg.norm(b - a)
    c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 8.0) * REL_TOL * _distances(X).max()
    row = a + rng.uniform(0.2, 0.8) * (b - a) + c * outward
    inner = rng.dirichlet(np.ones(len(X)), size=2) @ X
    return np.vstack([X, [row], inner])[rng.permutation(len(X) + 3)]


def _corpus():
    """The seeded corpus and the raw samples of acceptance criteria 1, 2 and 5."""
    rng = np.random.default_rng(22)
    sets = []
    kinds = (lambda rng, k, n: rng.standard_normal((k, n)), _interior_heavy_set,
             _near_duplicate_set, _bump_set)
    for i in range(800):
        n, k = int(rng.integers(2, 5)), int(rng.integers(3, 10))
        X = kinds[i % 4](rng, k, n)
        offset = 10.0 ** rng.uniform(-1.0, 6.0) * rng.standard_normal(n)
        sets.append(10.0 ** rng.uniform(-3.0, 5.0) * X + offset)
    for _ in range(300):
        scale = rng.choice([1e-300, 1.0, 1e300])
        offset = 10.0 ** rng.uniform(-1.0, 6.0) * rng.standard_normal(2)
        sets.append(scale * (_near_edge_set(rng) + offset))
    sets += [rng.standard_normal((int(rng.integers(17, 24)), 2)) for _ in range(20)]
    for n in (3, 4):  # the sign-vector path: R^3 sets past the facet screen's size bound, and R^4
        sizes = rng.integers(22, 31, 20) - np.arange(20) % 2 * (n + 1)  # interior-heavy adds n + 1
        sets += [kinds[i % 2](rng, int(size), n) for i, size in enumerate(sizes)]
    for n in (2, 3, 4):
        sets += [np.random.default_rng(1000 * n + i).standard_normal((12, n)) for i in range(100)]
        for pair in range(20):
            points = np.random.default_rng(7000 + 100 * n + pair).standard_normal((10, n))
            sets.append(points)
            for m in range(2, n):
                sets.append(points @ hp.random_frame(n, m, pair).basis.T)
    return sets


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_the_screen_never_disagrees_with_the_lp(monkeypatch, kernel):
    sets = _corpus()
    ref, records = _frozen_full_lp_hulls(sets)
    sent = []

    def counted(Ds):
        sent.extend(D.tobytes() for D in Ds)
        return margin_directions(Ds)

    monkeypatch.setattr(polytope, "margin_directions", counted)
    got = hp.extreme_points_many(sets)
    assert [P.vertices.tobytes() for P in got] == [P.vertices.tobytes() for P in ref]
    sent, screened, crowded_rows, decided = Counter(sent), 0, 0, {2: Counter(), 3: Counter()}
    for (V, deltas, tol, crowded), P in zip(records, got):
        if len(V) == 1:
            continue
        # the rows whose programs went to the LP; every program sent belongs to one row
        open_ = np.zeros(len(V), dtype=bool)
        for i, D in enumerate(_apart(V[None])[0]):
            open_[i] = sent[D.tobytes()] > 0
            sent[D.tobytes()] -= open_[i]
        if crowded:
            assert open_.all()
            crowded_rows += len(V)
            continue
        k, n = V.shape
        if n > 2 and not _on_facet_path(k, n):
            lone = _lone_faces(V[None], np.array([tol]))[0]
            assert (deltas[lone] > tol).all() and (open_ == ~lone).all()
            screened += np.count_nonzero(lone)
            continue
        # a row a planar or facet screen decides is in the hull exactly when its LP margin is
        # over tol
        hull = {w.tobytes() for w in P.vertices}
        kept = np.array([v.tobytes() in hull for v in V])
        assert (kept[~open_] == (deltas[~open_] > tol)).all()
        decided[n].update(kept=np.count_nonzero(~open_ & kept), sent=np.count_nonzero(open_),
                          dropped=np.count_nonzero(~open_ & ~kept))
    assert not +sent
    assert screened > 1000 and crowded_rows > 1000
    planar, facets = decided[2], decided[3]
    assert planar["kept"] > 2000 and planar["dropped"] > 2000 and planar["sent"] > 100
    assert facets["kept"] > 1000 and facets["dropped"] > 500 and facets["sent"] > 20
    assert sum(crowded for *_, crowded in records) >= 200


@pytest.mark.parametrize("points", [
    [[0, 0], [1, 0], [0, 1]],
    [[0, 0], [1, 0], [0, 1], [1, 1]],
    np.vstack([np.eye(3), -np.eye(3)]),
    np.vstack([np.eye(4), -np.eye(4)]),
], ids=["triangle", "square", "octahedron", "cross4"])
def test_a_hull_of_lone_faces_solves_no_lp(monkeypatch, points):
    # every vertex is the lone best of a coordinate or two-coordinate sign vector, and in R^2
    # of the bisector of its two edges
    def no_lp(Ds):
        raise AssertionError("margin LP sent")

    monkeypatch.setattr(polytope, "margin_directions", no_lp)
    assert hp.extreme_points(points).num_vertices == len(points)


def _rotation(rng):
    return np.linalg.qr(rng.standard_normal((3, 3)))[0]


def _near_facet_set(rng, k):
    """k - 1 Gaussian points and one row c tol inside or outside one of their hull's facets, over
    an interior point of it; c = 2^x / 2, x in U(0, 7), so c is in [0.5, 64] and below 2 (where
    no bar certifies the row) in 2 of 7 sets."""
    X = rng.standard_normal((k - 1, 3))
    hull = ConvexHull(X)
    t = rng.integers(len(hull.simplices))
    c = rng.choice([-1.0, 1.0]) * 2.0 ** rng.uniform(-1.0, 6.0) * REL_TOL * _distances(X).max()
    row = rng.dirichlet(np.ones(3)) @ X[hull.simplices[t]] + c * hull.equations[t, :3]
    return np.vstack([X, [row]])[rng.permutation(k)]


def _poked_tetrahedron(rng):
    """A turned regular tetrahedron and one row 1.2 to 2 tol outside a face: a vertex that the
    LP keeps, over a face whose plane (|N| = 0.87 at diameter 1) no longer passes as a facet."""
    T = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / 8**0.5
    row = rng.dirichlet(np.ones(3)) @ T[:3] - rng.uniform(1.2, 2.0) * REL_TOL * T[3] / np.sqrt(3 / 8)
    return np.vstack([T, [row]]) @ _rotation(rng)


def _facet_corpus():
    """Seeded R^3 sets of 5 to 21 rows for the facet screen: Gaussian and interior-heavy, on the
    unit sphere, cube corners with points on its faces and edges and two inside, integer grids,
    slabs 1e-9 to 1e-2 thin, one row 0.5 to 64 tol off a facet, and poked tetrahedra; at scales
    1e-200..1e200 with offsets up to 1e6 scales."""
    rng = np.random.default_rng(31)
    cube = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    sets = []
    for i in range(480):
        k = int(rng.integers(5, 13))
        kind = i % 6 if i < 360 else 6
        if kind == 0:
            X = _interior_heavy_set(rng, k - 4, 3) if i % 12 else rng.standard_normal((k + 9, 3))
        elif kind == 1:
            X = rng.standard_normal((k, 3))
            X /= np.linalg.norm(X, axis=1)[:, None]
        elif kind == 2:  # cube corners, face points and edge points, some turned
            extra = rng.uniform(0.0, 1.0, (k - 4, 3))
            axes = rng.integers(0, 3, (k - 4, 2))
            extra[np.arange(k - 4), axes[:, 0]] = rng.integers(0, 2, k - 4)
            edge = rng.random(k - 4) < 0.3
            extra[edge, axes[edge, 1]] = rng.integers(0, 2, edge.sum())
            inner = rng.uniform(0.1, 0.9, (2, 3))
            X = np.vstack([cube, extra, inner]) @ (_rotation(rng) if i % 12 < 6 else np.eye(3))
        elif kind == 3:
            X = np.unique(rng.integers(0, 3, (k + 4, 3)).astype(float), axis=0)
        elif kind == 4:
            X = rng.standard_normal((k, 3)) * [1.0, 1.0, 10.0 ** rng.uniform(-9.0, -2.0)]
            X = X @ _rotation(rng)
        elif kind == 5:
            X = _near_facet_set(rng, k)
        else:
            X = _poked_tetrahedron(rng)
        scale = 10.0 ** rng.uniform(-200.0, 200.0) if i % 3 == 0 else 10.0 ** rng.uniform(-3.0, 5.0)
        offset = 10.0 ** rng.uniform(-1.0, 6.0) * rng.standard_normal(3)
        sets.append(scale * (X[rng.permutation(len(X))] + offset))
    return sets


@cache
def _exact(D):
    """Exact delta* of the program with rows D (a tuple of float tuples)."""
    return exact_margin(np.array(D))


def _exact_gap(D, u):
    """Exact min(D u) of the float rows D (m, n) at the float direction u (n,)."""
    u = [Fraction(x) for x in u.tolist()]
    return min(sum(map(operator.mul, map(Fraction, d), u)) for d in D.tolist())


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_the_facet_screen_agrees_with_exact_arithmetic(monkeypatch, kernel):
    # every row the facet screen drops has exact delta* = 0 and every row it keeps exact
    # delta* > 2 tol (its own u a certificate when exact min(D u) clears 2 tol); the hulls carry
    # the bytes of the frozen hulls that solve every LP
    sets = _facet_corpus()
    ref, records = _frozen_full_lp_hulls(sets)
    sent, units, facets = [], {}, polytope._facets

    def counted(Ds):
        sent.extend(D.tobytes() for D in Ds)
        return margin_directions(Ds)

    def recorded(V, scale):
        U, drop = facets(V, scale)
        units.update((W.tobytes(), u) for W, u in zip(V, U.reshape(V.shape)))
        return U, drop

    monkeypatch.setattr(polytope, "margin_directions", counted)
    monkeypatch.setattr(polytope, "_facets", recorded)
    got = hp.extreme_points_many(sets)
    assert [P.vertices.tobytes() for P in got] == [P.vertices.tobytes() for P in ref]
    sent, verdicts = set(sent), Counter()
    for (V, _, tol, crowded), P in zip(records, got):
        if crowded or len(V) < 4:
            continue
        hull, U = {w.tobytes() for w in P.vertices}, units[V.tobytes()]
        for i, D in enumerate(_apart(V[None])[0]):
            if D.tobytes() in sent:
                verdicts["sent"] += 1
            elif V[i].tobytes() not in hull:
                assert _exact(tuple(map(tuple, D.tolist()))) == 0
                verdicts["dropped"] += 1
            else:
                bar = 2 * Fraction(tol)
                assert _exact_gap(D, U[i]) > bar or _exact(tuple(map(tuple, D.tolist()))) > bar
                verdicts["kept"] += 1
    assert verdicts["dropped"] > 300 and verdicts["kept"] > 1000 and verdicts["sent"] > 50


class _ScreenDirections:
    """Stands in for numpy inside ``polytope``: the screen's one ``np.matmul(D, U^T)`` in
    ``extreme_points_many`` records, under the bytes of each program D, the directions U (k', n)
    it tries on D: its own bisector or facet sum, or the sign vectors all programs share."""

    def __init__(self):
        self.of = {}

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        frame = sys._getframe(1)
        if frame.f_code is polytope.extreme_points_many.__code__:
            D, U = frame.f_locals["D"], frame.f_locals["U"]
            U = np.broadcast_to(U, (len(D), *U.shape[-2:]))
            self.of.update((d.tobytes(), u) for d, u in zip(D, U))
        return np.matmul(*args, **kwargs)


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_the_planar_and_sign_vector_screens_agree_with_exact_arithmetic(monkeypatch, kernel):
    # on a seeded quarter of the corpus sets that the planar-arc or the sign-vector screen decides,
    # every row a screen drops has exact delta* = 0 and every row it keeps exact min(D u) > 2 tol
    # at the best direction u the screen tried on its program, or else exact delta* > 2 tol
    corpus = _corpus()
    chosen = np.random.default_rng(16).random(len(corpus)) < 0.25
    sets = [X for X, pick in zip(corpus, chosen) if pick and not _on_facet_path(*X.shape)]
    ref, records = _frozen_full_lp_hulls(sets)
    sent, directions = [], _ScreenDirections()

    def counted(Ds):
        sent.extend(D.tobytes() for D in Ds)
        return margin_directions(Ds)

    monkeypatch.setattr(polytope, "margin_directions", counted)
    monkeypatch.setattr(polytope, "np", directions)
    got = hp.extreme_points_many(sets)
    assert [P.vertices.tobytes() for P in got] == [P.vertices.tobytes() for P in ref]
    sent, verdicts = set(sent), Counter()
    for (V, _, tol, crowded), P in zip(records, got):
        if crowded or len(V) == 1 or _on_facet_path(*V.shape):
            continue
        hull, bar = {w.tobytes() for w in P.vertices}, 2 * Fraction(tol)
        screen = "planar" if V.shape[1] == 2 else "sign vectors"
        for i, D in enumerate(_apart(V[None])[0]):
            if D.tobytes() in sent:
                verdicts["sent"] += 1
            elif V[i].tobytes() not in hull:
                assert screen == "planar" and _exact(tuple(map(tuple, D.tolist()))) == 0
                verdicts["planar dropped"] += 1
            else:
                U = directions.of[D.tobytes()]
                u = U[np.matmul(D, U.T).min(axis=0).argmax()]
                assert _exact_gap(D, u) > bar or _exact(tuple(map(tuple, D.tolist()))) > bar
                verdicts[f"{screen} kept"] += 1
    assert verdicts["planar dropped"] > 500 and verdicts["planar kept"] > 500
    assert verdicts["sign vectors kept"] > 400 and verdicts["sent"] > 300


@pytest.mark.parametrize("k, facets", [(21, True), (22, False), (40, False)])
def test_a_set_past_the_size_bound_takes_the_sign_vectors(monkeypatch, k, facets):
    # the facet screen's (k, C(k, 3)) heights of a set stay within CHUNK_CELLS; a larger set takes
    # the sign vectors, and either way the hull is the frozen hull that solves every LP
    calls, screen = [], polytope._facets

    def spied(V, scale):
        calls.append(V.shape)
        return screen(V, scale)

    monkeypatch.setattr(polytope, "_facets", spied)
    rng = np.random.default_rng(k)
    X = np.vstack([_interior_heavy_set(rng, k // 2 - 4, 3), rng.standard_normal((k - k // 2, 3))])
    (ref,), _ = _frozen_full_lp_hulls([X])
    assert hp.extreme_points(X).vertices.tobytes() == ref.vertices.tobytes()
    assert calls == ([(1, k, 3)] if facets else [])
    assert all(k * math.comb(k, 3) <= CHUNK_CELLS for _, k, _ in calls)
