"""Exposed points, exposed diameters, and antipodally exposed points.

A vertex v is exposed when some direction u has its strict maximum over the
polytope at v; a vertex pair (x, z) spans an exposed diameter when one u has
its strict maximum at x and strict minimum at z. Both are decided by the
separation-margin LP over the |u|_inf <= 1 box.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAVertex, PerturbationFailed, SingletonInput, ZeroDirection
from .lp import _dots, _vector, margin_direction, margin_directions
from .polytope import REL_TOL, _apart, _support_rows

PERTURB_RETRIES = 64


@dataclass(frozen=True, eq=False)
class ExposedDiameter:
    """Antipodally exposed vertex pair x = P.vertices[i], z = P.vertices[j].

    The support faces of witness and -witness are the lone vertices x and z,
    with gaps margin_max and margin_min above REL_TOL * P.scale.
    """

    x: np.ndarray
    z: np.ndarray
    i: int
    j: int
    witness: np.ndarray
    margin_max: float
    margin_min: float


def is_exposed(P, v):
    """Whether vertex v is exposed; returns (flag, witness direction, margin)."""
    v = _vector(v, P.dim, "vertex")
    hits = np.flatnonzero((P.vertices == v).all(axis=1))
    if hits.size == 0:
        raise NotAVertex(f"{v.tolist()} is not a vertex of the polytope")
    i = int(hits[0])
    if P.num_vertices == 1:
        return True, np.eye(P.dim)[0], math.inf
    delta, u = margin_direction(_apart(P.vertices)[i])
    return delta > REL_TOL * P.scale, u, delta


def _strict_faces(P, U):
    """Per row of U: its lone face vertex, None unless its gap > REL_TOL * scale; the gaps."""
    _, on_face, margin = _support_rows(P, U)
    tol, margin = REL_TOL * P.scale, margin.tolist()
    faces = zip(on_face.tolist(), margin)
    return [f.index(True) if f.count(True) == 1 and m > tol else None for f, m in faces], margin


def _diameters_at(P, U):
    """Per row u of U, the exposed diameter with witness u or None: one support call on [U; -U]."""
    rows, margin = _strict_faces(P, np.concatenate([U, -U]))
    return [  # zip stops at the end of U: i, hi of u and j, lo of -u
        None if None in (i, j) else ExposedDiameter(P.vertices[i], P.vertices[j], i, j, u, hi, lo)
        for u, i, j, hi, lo in zip(U, rows, rows[len(U):], margin, margin[len(U):])
    ]


def _perturbation_search(dim, f, eps, seed, accept):
    """The first non-None accept(g), over f and then its perturbations g."""
    f = _vector(f, dim, "direction")
    if not abs(np.linalg.norm(f) - 1.0) <= 1e-9:
        raise ZeroDirection("f must be a unit vector")
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    found = accept(f)
    if found is not None:
        return found
    for attempt in range(PERTURB_RETRIES):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        eta = eps
        for _ in range(30):
            g = f + eta * d
            g /= np.linalg.norm(g)
            if np.linalg.norm(f - g) > eps:
                eta /= 2.0
                continue
            found = accept(g)
            if found is not None:
                return found
            break
    raise PerturbationFailed(
        f"no unique exposing direction within eps={eps} after {PERTURB_RETRIES} retries"
    )


def exposed_point_near(P, f, eps, seed=0):
    """Exposed point of P in a direction g with |f - g| <= eps.

    If f itself has a unique support vertex it is returned unchanged;
    otherwise f is perturbed by seeded random directions (magnitude halved
    until the eps bound holds) until the support face becomes a singleton.
    """

    def accept(g):
        (i,), _ = _strict_faces(P, g[None])
        return None if i is None else (P.vertices[i], g)

    return _perturbation_search(P.dim, f, eps, seed, accept)


def exposed_diameter_near(P, f, eps, seed=0):
    """Exposed diameter of P whose witness direction is within eps of f.

    Finds an exposed vertex of the difference body K* = P + (-P) without
    building it: the face of K* in direction g is F(P, g) - F(P, -g), so K*
    has the single vertex x - z there exactly when x is the unique maximizer
    and z the unique minimizer of g over P.
    """
    if P.num_vertices < 2:
        raise SingletonInput("exposed diameters need at least two vertices")
    return _perturbation_search(P.dim, f, eps, seed, lambda g: _diameters_at(P, g[None])[0])


def exposed_diameters(P):
    """All exposed diameters, one per unordered vertex pair that admits one.

    For each pair (v, w) the LP maximizes delta s.t. u.(v - x) >= delta for x != v,
    u.(y - w) >= delta for y != w and |u|_inf <= 1; the pair qualifies iff delta >
    REL_TOL * scale and one ``_diameters_at`` call over all such u / |u| finds it.
    Rows y - w come from ``_apart(-V)``, whose (-w) - (-y) keeps the +0.0 that -(w - y) flips.
    """
    if P.num_vertices < 2:
        raise SingletonInput("exposed diameters need at least two vertices")
    V = P.vertices
    # all k(k-1)/2 pair programs in one batch, pairs in (i, j) row-major order
    I, J = np.triu_indices(P.num_vertices, 1)
    deltas, us = margin_directions(np.concatenate([_apart(V)[I], _apart(-V)[J]], axis=1))
    keep = deltas > REL_TOL * P.scale
    U, pairs = us[keep], zip(I[keep].tolist(), J[keep].tolist())
    found = _diameters_at(P, U / np.sqrt(_dots(U, U))[:, None])
    return [d for d, ij in zip(found, pairs) if d is not None and (d.i, d.j) == ij]


def antipodally_exposed_points(P):
    """Vertices appearing as an endpoint of at least one exposed diameter."""
    endpoints = {k for d in exposed_diameters(P) for k in (d.i, d.j)}
    return [P.vertices[k] for k in sorted(endpoints)]
