"""Exposed points, exposed diameters, and antipodally exposed points.

A vertex v is exposed when some direction u has its strict maximum over the
polytope at v; a vertex pair (x, z) spans an exposed diameter when one u has
its strict maximum at x and strict minimum at z. Both are decided by the
separation-margin LP over the |u|_inf <= 1 box.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAVertex, PerturbationFailed, SingletonInput, ZeroDirection
from .lp import margin_direction, margin_directions
from .polytope import REL_TOL, others_index, support

PERTURB_RETRIES = 64


@dataclass(frozen=True, eq=False)
class ExposedDiameter:
    """Antipodally exposed vertex pair x = P.vertices[i], z = P.vertices[j].

    support(P, witness) is the singleton {x} with gap margin_max, and
    support(P, -witness) is the singleton {z} with gap margin_min.
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
    v = np.asarray(v, dtype=float)
    if v.shape != (P.dim,):
        raise DimensionMismatch(f"vertex length {v.shape} vs dim {P.dim}")
    hits = np.flatnonzero((P.vertices == v).all(axis=1))
    if hits.size == 0:
        raise NotAVertex(f"{v.tolist()} is not a vertex of the polytope")
    i = int(hits[0])
    if P.num_vertices == 1:
        u = np.zeros(P.dim)
        u[0] = 1.0
        return True, u, math.inf
    others = np.delete(P.vertices, i, axis=0)
    delta, u = margin_direction(P.vertices[i] - others)
    return delta > REL_TOL * P.scale, u, delta


def _is_strict(res, P):
    """Whether a support result on P is one vertex with a gap above REL_TOL * scale."""
    return len(res.face) == 1 and res.margin > REL_TOL * P.scale


def _perturbation_search(dim, f, eps, seed, accept):
    """The first non-None accept(g), over f and then its perturbations g."""
    f = np.asarray(f, dtype=float)
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
        res = support(P, g)
        return (P.vertices[res.face[0]], g) if _is_strict(res, P) else None

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

    def accept(g):
        hi, lo = support(P, g), support(P, -g)
        if not (_is_strict(hi, P) and _is_strict(lo, P)):
            return None
        i, j = hi.face[0], lo.face[0]
        return ExposedDiameter(P.vertices[i], P.vertices[j], i, j, g, hi.margin, lo.margin)

    return _perturbation_search(P.dim, f, eps, seed, accept)


def exposed_diameters(P):
    """All exposed diameters, one per unordered vertex pair that admits one.

    For each pair (v, w) the LP maximizes the joint margin delta subject to
    u.(v - x) >= delta for x != v and u.(y - w) >= delta for y != w over the
    |u|_inf <= 1 box; the pair qualifies iff delta > REL_TOL * scale.
    """
    if P.num_vertices < 2:
        raise SingletonInput("exposed diameters need at least two vertices")
    V = P.vertices
    k = V.shape[0]
    tol = REL_TOL * P.scale
    # all k(k-1)/2 pair programs in one batch, pairs in (i, j) row-major order
    others = V[others_index(k)]
    max_rows = V[:, None, :] - others
    min_rows = others - V[:, None, :]
    I, J = np.triu_indices(k, 1)
    deltas, us = margin_directions(np.concatenate([max_rows[I], min_rows[J]], axis=1))
    out = []
    for i, j, delta, u in zip(I.tolist(), J.tolist(), deltas, us):
        if delta <= tol:
            continue
        u = u / np.linalg.norm(u)
        hi = support(P, u)
        lo = support(P, -u)
        if hi.face != (i,) or lo.face != (j,):
            continue
        out.append(
            ExposedDiameter(
                x=V[i],
                z=V[j],
                i=i,
                j=j,
                witness=u,
                margin_max=hi.margin,
                margin_min=lo.margin,
            )
        )
    return out


def antipodally_exposed_points(P):
    """Vertices appearing as an endpoint of at least one exposed diameter."""
    if P.num_vertices < 2:
        raise SingletonInput("needs at least two vertices")
    endpoints = {k for d in exposed_diameters(P) for k in (d.i, d.j)}
    return [P.vertices[k] for k in sorted(endpoints)]
