"""Exposed points, exposed diameters, and antipodally exposed points.

A vertex v is exposed when some direction u has its strict maximum over the
polytope at v; a vertex pair (x, z) spans an exposed diameter when one u has
its strict maximum at x and strict minimum at z. Both are decided by the
separation-margin LP over the |u|_inf <= 1 box. Callers that need only endpoint rows (theorem
2, no-parallel, transfer) skip it for the pairs that ``_screen`` certifies on their own programs,
and in R^2 to R^4 for those that ``_ray_screen`` drops (delta* = 0) or hands ``_screen`` a ray sum
for; only ``exposed_diameters`` itself, whose witness u is its output, solves every pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadTolerance, NotAVertex, PerturbationFailed, SingletonInput, ZeroDirection
from ._simplex_py import CHUNK_CELLS
from .lp import _binade, _dots, _vector, margin_directions
from .polytope import REL_TOL, _apart, _bisectors, _cross, _pairs, _planes, _support_rows

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
    if P.num_vertices == 1:
        return True, np.eye(P.dim)[0], math.inf
    (delta,), (u,) = margin_directions(_apart(P.vertices)[hits[:1]])
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
        raise BadTolerance(f"eps must be positive and finite, got {eps}")
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


def _pair_programs(V, I, J):
    """(len I, 2 (k - 1), n) pair program rows of (v, w) = (V[I], V[J]): v - x for x != v, then
    y - w for y != w as ``_apart(-V)``'s (-w) - (-y), which keeps the +0.0 that -(w - y) flips."""
    return np.concatenate([_apart(V)[I], _apart(-V)[J]], axis=1)


def _pair_diameters(P, I, J):
    """The exposed diameters of the row pairs (I[t], J[t]), i < j, that admit one, in pair order.

    A pair qualifies iff its ``_pair_programs`` LP has delta > REL_TOL * scale and one
    ``_diameters_at`` call over all such u / |u| finds it; each step is per pair, so no verdict
    depends on the batch.
    """
    if not len(I):
        return []
    deltas, us = margin_directions(_pair_programs(P.vertices, I, J))
    keep = deltas > REL_TOL * P.scale
    U, pairs = us[keep], zip(I[keep].tolist(), J[keep].tolist())
    found = _diameters_at(P, U / np.sqrt(_dots(U, U))[:, None])
    return [d for d, ij in zip(found, pairs) if d is not None and (d.i, d.j) == ij]


def exposed_diameters(P):
    """All exposed diameters, one per vertex pair that admits one; pairs row-major, in one batch."""
    if P.num_vertices < 2:
        raise SingletonInput("exposed diameters need at least two vertices")
    return _pair_diameters(P, *_pairs(P.num_vertices))


def _screen(P, U=None):
    """(k, k) mask of the pairs i < j that ``lp``'s screen rule certifies as exposed diameters. Each
    row u of U (by default the chords V[i] - V[j], i < j), scaled to |u|_inf = 1 and turned so that
    i < j are its argmax and argmin over V (zero if they agree), is feasible for the LP of
    D = ``_pair_programs(V, i, j)``: min(D u) > 4 sqrt(n) tol gives delta* > 4 sqrt(n) tol, and as
    |u*|_2 <= sqrt(n), ``_diameters_at`` then accepts u* / |u*|_2."""
    if P.num_vertices < 2:
        raise SingletonInput("exposed diameters need at least two vertices")
    V, screened = P.vertices, np.zeros((P.num_vertices,) * 2, bool)
    if U is None:
        U = np.subtract(*V[_pairs(P.num_vertices), :])
    U = U / np.abs(U).max(axis=1, keepdims=True)
    vals = np.matmul(V, U.T)
    a, b = vals.argmax(axis=0), vals.argmin(axis=0)
    i, j, U = np.minimum(a, b), np.maximum(a, b), U * np.sign(b - a)[:, None]
    gaps = np.matmul(_pair_programs(V, i, j), U[..., None]).min(axis=(1, 2))
    ok = gaps > 4.0 * math.sqrt(P.dim) * REL_TOL * P.scale
    screened[i[ok], j[ok]] = True
    return screened


def _tangent_drops(P):
    """(drops, h, N) of an R^3 or R^4 body by its ``_planes``, shared by all its pairs: drops, and
    the (k, T) heights and (T, n) normals of the planes, from which R^4 reads its candidate rays.

    drops is the (k, k) mask of the pairs with delta* = 0: a chord from one endpoint, say
    w = V[y] - V[j], over the bar inside the cone T_i of chords from the other. Then D's rows -T_i
    and T_j hold neighbourhoods of -w and w, so D u >= 0 only at u = 0. Every facet of T_i is an
    accepted plane through i in its outward sign s (or one with N = 0), and w is inside it when
    s (h_y - h_j) < -2^-42. A plane with N = 0 or accepted both ways blocks. Rounding moves that
    difference from the exact facet normal's by under 2^-43 in R^3, and in R^4 by under
    69u < 2^-46, u = 2^-53: X_b - X_a by 5u at |X| <= 1; the cofactor N by 15u through them, as
    |N| <= |X_b - X_a| |X_c - X_a| |X_d - X_a| <= 1, and by 40u of its own, 5u times its minors'
    terms, whose sum is at most the product of the three rows' 1-norms, 2^3; N (X_y - X_j) by 59u
    through N and X; and the two heights and their difference by 4u, 4u and 2u more."""
    N, h, _, norm, up, down, through = _planes(P.vertices[None], np.array([P.scale]))
    live = (up | down | (norm == 0.0))[0]
    s, through = (up - down * 1.0)[0, live], through[:, live]
    H = h[0][:, live] * s  # (k, T) signed heights, 0 on a blocking plane
    under = (H[None] - H[:, None] < -(2.0**-42)) * 1.0  # [j, y, p]: s (h_y - h_j) < -bar
    inside = (np.matmul(under, through.T) == through.sum(axis=1)).any(axis=1)  # [j, i]
    return inside | inside.T, h[0], N[0].T


def _ray_screen(P, open_):
    """(kept, open) (k, k) masks after the extreme-ray rule on the open pairs i < j of an R^2 to R^4
    body. delta* > 0 exactly when C = {u : D u >= 0} has interior, D = ``_pair_programs(V, i, j)``
    at its ``_binade`` scale; a nonzero C has an extreme ray, +-the normal of n - 1 rows of D (a row
    turned by 90 degrees, the cross product of two). In R^2 and R^3 a pair none of whose candidate
    rays r has D r >= -2^-46 (rounding moves D r by under 2^-48) has C = {0}, delta* = 0, and is
    dropped; the exactly-zero ray of the chord, a row of both blocks, is skipped. The other pairs
    offer the sum of their feasible unit rays to ``_screen``. In R^3 and R^4 ``_tangent_drops``
    comes first. In R^3 only the pairs it leaves open build their own C(m, 2) cross products. In
    R^4, where those would be C(m, 3), a pair's candidates are the normals of its body's vertex
    4-tuple planes, feasible as read off their heights: they drop no pair, as they need not hold
    every ray of C.
    """
    V, (k, n) = P.vertices, P.vertices.shape
    open_ = open_.copy()
    if n > 2:
        drops, h, N = _tangent_drops(P)
        open_ &= ~drops
    if n == 4:  # D N >= 0 for (i, j) with i at the top of N's heights and j at the bottom (2^-46)
        top, low = h >= h.max(axis=0) - 2.0**-46, h <= h.min(axis=0) + 2.0**-46
    I, J = np.nonzero(open_)
    m, U = 2 * (k - 1), [np.zeros((0, n))]
    a, b = _pairs(m) if n == 3 else (np.arange(m), None)
    cells = len(N) if n == 4 else m * len(a)  # a pair's D r values, in R^4 its plane marks
    step = max(1, CHUNK_CELLS // cells)  # pairs whose values fill at most CHUNK_CELLS
    for t in range(0, len(I), step):
        i, j = I[t : t + step], J[t : t + step]
        if n == 4:  # as D N holds scale (h_i - h_x) and scale (h_y - h_j); -N the other way round
            R, up, down = N, top[i] & low[j], low[i] & top[j]
        else:
            D = _binade(_pair_programs(V, i, j), (1, 2))[0]
            R = D[..., ::-1] * [-1.0, 1.0] if n == 2 else _cross(D[:, a], D[:, b], -1)
            G = np.matmul(D, R.swapaxes(1, 2))  # (pairs, m, rays): D r
            up, down = G.min(axis=1) >= -(2.0**-46), G.max(axis=1) <= 2.0**-46
            if n == 3:  # the chord: rows j - 1 (first block) and k - 1 + i (second), in triu order
                c = (j - 1) * (2 * k - 3) - (j - 1) * (j - 2) // 2 + k - 1 + i - j
                up[np.arange(len(i)), c] = down[np.arange(len(i)), c] = False
            none = ~(up | down).any(axis=1)
            open_[i[none], j[none]] = False
        norm = np.sqrt(_dots(R, R))
        w = (up - down * 1.0) / np.where(norm > 0.0, norm, np.inf)  # +-1 / |r| on feasible rays
        U.append(np.matmul(w[:, None], R)[:, 0])
    U = np.concatenate(U)
    kept = _screen(P, U[np.abs(U).max(axis=1) > 0])
    return kept, open_ & ~kept


def _rays_apply(P):
    """Whether ``_ray_screen`` takes P: R^2 to R^4 and k > n rows, within CHUNK_CELLS: in R^2 and
    R^3 the m C(m, n - 1) rays by rows of one pair program, m = 2 (k - 1); in R^4 the k C(k, 4)
    heights of ``_planes``."""
    (k, n), m = P.vertices.shape, 2 * (P.num_vertices - 1)
    cells = k * math.comb(k, 4) if n == 4 else m * math.comb(m, n - 1)
    return 2 <= n <= 4 and k > n and cells <= CHUNK_CELLS


def _diameter_pairs(P):
    """Row-major (i, j) of ``exposed_diameters(P)``: the chord-screened pairs, then in R^2 to R^4
    those ``_ray_screen`` keeps, then one LP batch of the rest."""
    pairs = _screen(P)
    open_ = np.triu(~pairs, 1)
    if _rays_apply(P) and open_.any():
        kept, open_ = _ray_screen(P, open_)
        pairs |= kept
    for d in _pair_diameters(P, *np.nonzero(open_)):
        pairs[d.i, d.j] = True
    return list(zip(*(rows.tolist() for rows in np.nonzero(pairs))))


def _antipodal_rows(P):
    """Sorted endpoint rows of ``exposed_diameters(P)``: ``_screen`` on chords, then the pairs of
    rows left out by ``_ray_screen`` in R^2 and R^3, else ``_screen`` on their ``_bisectors``, then
    one batch (own verdicts, as if enumerated) of the rest."""
    screened = _screen(P)
    hit = screened.any(axis=0) | screened.any(axis=1)
    open_ = np.triu(~screened & ~(hit[:, None] & hit), 1)
    if open_.any():
        if P.dim < 4 and _rays_apply(P):
            kept, open_ = _ray_screen(P, open_)
        else:  # in R^4 the bisectors keep what a cover needs for less than the ray stage costs
            U = _bisectors(_apart(P.vertices)[~hit]).reshape(-1, P.dim)
            kept = _screen(P, U[np.abs(U).max(axis=1) > 0])
            open_ &= ~kept
        screened |= kept
        hit = screened.any(axis=0) | screened.any(axis=1)
    for d in _pair_diameters(P, *np.nonzero(open_ & ~(hit[:, None] & hit))):
        hit[[d.i, d.j]] = True
    return np.flatnonzero(hit).tolist()


def antipodally_exposed_points(P):
    """Vertices that are an endpoint of some exposed diameter, in row order: ``_antipodal_rows``."""
    return [P.vertices[k] for k in _antipodal_rows(P)]
