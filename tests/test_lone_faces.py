"""The lone-face screen of ``extreme_points_many`` never disagrees with the margin LP.

A row whose own margin program D has min(D u) > 2 tol at a sign vector u with one or two
nonzero entries is the lone best of u by that gap, and is kept without its LP.
The seeded corpus holds Gaussian sets in R^2..R^4 at scales 1e-3..1e5 and offsets up to 1e6,
interior-heavy sets, near-duplicate sets as in ROADMAP item 7, and sets with one row whose
margin is 0.25 to 4 times the tolerance; the acceptance corpora ride along. On it every
screened row must have an LP margin over tol, every hull must carry the bytes of a frozen copy
of the hull that solves every LP, and every crowded set must send all of its rows to the LP.
Both LP kernels run it.
"""

import itertools

import numpy as np
import pytest

import homproj as hp
from homproj import polytope
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
    own program D = ``_apart(V)[s, i]``, the rows the screen keeps without an LP."""
    U = [u for u in itertools.product((-1.0, 0.0, 1.0), repeat=V.shape[2])
         if 1 <= np.count_nonzero(u) <= 2]
    gaps = np.matmul(_apart(V), np.array(U).T).min(axis=2)
    return (gaps > 2 * tol[:, None, None]).any(axis=2)


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
        sent.append(len(Ds))
        return margin_directions(Ds)

    monkeypatch.setattr(polytope, "margin_directions", counted)
    got = hp.extreme_points_many(sets)
    assert [P.vertices.tobytes() for P in got] == [P.vertices.tobytes() for P in ref]
    screened = crowded_rows = 0
    for V, deltas, tol, crowded in records:
        if len(V) == 1:
            continue
        if crowded:
            crowded_rows += len(V)
            continue
        lone = _lone_faces(V[None], np.array([tol]))[0]
        assert (deltas[lone] > tol).all()
        screened += np.count_nonzero(lone)
    # the LPs sent are every kept row but the screened ones: crowded sets send all of theirs
    assert sum(sent) == sum(len(V) for V, *_ in records if len(V) > 1) - screened
    assert screened > 1000 and crowded_rows > 1000
    assert sum(crowded for *_, crowded in records) >= 200


@pytest.mark.parametrize("points", [
    [[0, 0], [1, 0], [0, 1]],
    [[0, 0], [1, 0], [0, 1], [1, 1]],
    np.vstack([np.eye(3), -np.eye(3)]),
    np.vstack([np.eye(4), -np.eye(4)]),
], ids=["triangle", "square", "octahedron", "cross4"])
def test_a_hull_of_lone_faces_solves_no_lp(monkeypatch, points):
    # every vertex is the lone best of a coordinate or two-coordinate sign vector
    def no_lp(Ds):
        raise AssertionError("margin LP sent")

    monkeypatch.setattr(polytope, "margin_directions", no_lp)
    assert hp.extreme_points(points).num_vertices == len(points)
