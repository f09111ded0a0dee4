"""Canonical V-representation of compact convex sets.

A Polytope stores exactly the extreme points of its convex hull, sorted
lexicographically (on a REL_TOL * scale grid so near-ties order stably).
``_bounded`` admits rows and ``_measured`` alone takes the diameter, the scale
(``_scale``: the diameter, 1 for a singleton) and the order of each stack entry:
a constructor call is the one-set case, ``extreme_points_many`` the stacked one.
All predicates compare gaps with REL_TOL * scale and ``_distances`` alone
measures distances. So they are scale-invariant, and translation-invariant only
while diameter / max|coordinate| stays well above machine epsilon; past that, a
translation rounds away the very differences the predicates compare.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from ._simplex_py import CHUNK_CELLS
from .errors import BadDims, BadNumber, DimensionMismatch, EmptyInput, ZeroDirection
from .lp import _binade, _dots, _floats, _vector, margin_directions

REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Polytope:
    """Extreme points (rows, canonical order) of a compact convex set, its diameter and scale.

    A direct build is one set of the stacked rule; it trusts only that its rows are extreme.
    """

    vertices: np.ndarray
    diameter: float = field(init=False, repr=False)
    scale: float = field(init=False, repr=False)

    def __post_init__(self):
        _filled(self, *_measured(_rows(self.vertices)))

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def num_vertices(self):
        return self.vertices.shape[0]


@dataclass(frozen=True)
class SupportResult:
    """Support value, attaining vertex indices, and the uniqueness margin."""

    value: float
    face: tuple
    margin: float


def _scale(diameter):
    """Scale of sets with these diameters: each diameter, 1 if it is 0; the one size policy."""
    return diameter + (diameter == 0.0)


def _bounded(V):
    """V if each row has |x|_2 < 2^1022 / sqrt(dim), else BadNumber (nan and inf too).

    The one coordinate range: orthogonal projection keeps it, and inside it differences, distances,
    LP deltas, and V u and D u at |u|_inf <= 1 (|D u| <= |d|_1: support rows, the pair and hull
    screens) stay below 2^1023. V / 2^1022 is exact for |x| >= 1.
    """
    if not np.square(V * 2.0**-1022).sum(axis=-1).max(initial=0.0) * V.shape[-1] < 1.0:
        raise BadNumber("non-finite coordinates or |x|_2 >= 2^1022 / sqrt(dim)")
    return V


def _distances(V, W=None):
    """(..., len V, len W) distances between the rows of V and W (or V).

    V and W may carry leading stack axes; each stack entry is measured on
    its own ``_binade`` scale, so its bits do not depend on the others.
    """
    W = V if W is None else W
    diff, e, _ = _binade(V[..., :, None, :] - W[..., None, :, :], (-3, -2, -1))
    return np.ldexp(np.sqrt((diff * diff).sum(axis=-1)), e[..., 0])


def diameter(P):
    """Largest pairwise vertex distance; 0 for a singleton."""
    return P.diameter


def _apart(V):
    """(..., k, k - 1, n) rows of the separation programs of V (..., k, n): entry i holds V[i]
    minus each other row of V, in order. Hulls, exposure and diameters all build them here."""
    k = V.shape[-2]
    j = np.arange(k - 1)
    return V[..., :, None, :] - V[..., j + (j >= np.arange(k)[:, None]), :]


@cache
def _pairs(k):
    """Shared, read only: the row-major index arrays (I, J) of the pairs I < J of k rows."""
    I, J = np.triu_indices(k, 1)
    I.flags.writeable = J.flags.writeable = False
    return I, J


def _bisectors(D):
    """(..., r (r - 1) / 2, n) half sums of the unit rows of D (..., r, n), two at a time: feasible
    directions of D's program. A polygon vertex's two edge units sum to its normal cone's centre."""
    W, (a, b) = D / np.abs(D).max(axis=-1, keepdims=True), _pairs(D.shape[-2])
    W = W / np.sqrt(_dots(W, W))[..., None]
    return (np.take(W, a, axis=-2) + np.take(W, b, axis=-2)) / 2.0


def _cross(A, B, axis):
    """Cross products of A and B along ``axis`` (length 3), entries a_j b_l - a_l b_j as written."""
    A, B = np.moveaxis(A, axis, 0), np.moveaxis(B, axis, 0)
    return np.stack([A[j] * B[l] - A[l] * B[j] for j, l in ((1, 2), (2, 0), (0, 1))], axis)


@cache
def _triples(k):
    """Shared, read only: the (k, 2T) columns e_b - e_a, then e_c - e_a, of the T = C(k, 3) row
    triples a < b < c, the flat index of (a, t) in (k, T), and the (k, T) mask of their rows."""
    r = np.arange(k)
    a, b, c = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    t, E = np.arange(len(a)), np.zeros((k, 2, len(a)))
    E[b, 0, t], E[c, 1, t], E[a, :, t] = 1.0, 1.0, -1.0
    through = (r[:, None] == np.stack([a, b, c])[:, None]).any(axis=0) * 1.0
    return E.reshape(k, -1), a * len(a) + t, through


def _planes(V, scale):
    """The vertex-triple planes of a (G, k, 3) stack at (G,) scales, the one enumeration that the
    R^3 hull and pair screens read: (N (G, 3, T), h (G, k, T), o (G, T), |N| (G, T), up (G, T),
    down (G, T), through (k, T)).

    On X = (V - V[0]) / scale, |X| <= 1 (rounded relative to V - V[0], not to the offset), triple
    a < b < c spans N = (X_b - X_a) x (X_c - X_a), with heights h_x = N X_x and o = h_a that
    rounding moves by under 2^-48. Its plane is accepted up (down) if N != 0 and h_x - o <= REL_TOL
    (>= -REL_TOL) at every row x: every facet of conv(X) is, in its outward sign, and a flat plane
    both ways.
    """
    X, (E, at, through) = (V - V[:, :1]) / scale[:, None, None], _triples(V.shape[1])
    P, Q = np.split(np.matmul(X.swapaxes(1, 2), E), 2, axis=2)  # (G, 3, T): X_b - X_a, X_c - X_a
    N = _cross(P, Q, 1)
    h = np.matmul(X, N)  # (G, k, T): N X_x, reduced over the rows (axis 1)
    o, norm = np.take(h.reshape(len(h), -1), at, axis=1), np.sqrt((N * N).sum(axis=1))
    up = (h.max(axis=1) - o <= REL_TOL) & (norm > 0.0)
    down = (h.min(axis=1) - o >= -REL_TOL) & (norm > 0.0)
    return N, h, o, norm, up, down, through


def _facets(V, scale):
    """(u (G k, 1, 3), drop (G k,)) of the R^3 facet screen of a (G, k, 3) stack at (G,) scales.

    On the accepted ``_planes``, outward sign s, a row with s h < s o - (2 REL_TOL |N| + 2^-46)
    under every accepted plane (one at least) is over 2 tol inside every facet, so delta* = 0, while
    a vertex lies on its facets' planes; a plane accepted with both signs (flat) drops no row. u
    sums the unit outward normals of the accepted planes through each row, at |u|_inf = 1.
    """
    N, h, o, norm, up, down, through = _planes(V, scale)
    s = up - down * 1.0
    bar = np.where(up == down, np.where(up, -np.inf, np.inf), s * o - 2 * REL_TOL * norm - 2.0**-46)
    h *= s[:, None]
    drop = (h < bar[:, None]).all(axis=2) & (up | down).any(axis=1)[:, None]
    u = np.matmul(through, (N * (s / np.maximum(norm, 1e-300))[:, None]).swapaxes(1, 2))
    return (u / np.maximum(np.abs(u).max(2)[..., None], 1e-300)).reshape(-1, 1, 3), drop.ravel()


def _canonical_sort(V, scale):
    """Rows of V (k, n) at a scale, or of each entry of an (S, k, n) stack at its own (S,), in
    lexicographic order on the REL_TOL * scale grid, ties by coordinates; a total order."""
    X = V.T  # (n, k) or (n, k, S): one key per coordinate, the scales on the last axis
    cells = np.rint((X - X.min(axis=1, keepdims=True)) / (REL_TOL * scale))
    order = np.lexsort(np.concatenate([X[::-1], cells[::-1]]), axis=0).T
    return V[order] if V.ndim == 2 else V[np.arange(len(V))[:, None], order]


def _measured(V):
    """(canonical rows, diameter, ``_scale``) of V (k, n), or lists over (S, k, n) stack entries."""
    d = _distances(V).max(axis=(-2, -1))
    s = _scale(d)
    return _canonical_sort(V, s), d.tolist(), s.tolist()


def _filled(P, V, diameter, scale):
    """Polytope P with its fields set to ``_measured`` output: the one path that sets them."""
    V.setflags(write=False)
    for name, value in (("vertices", V), ("diameter", diameter), ("scale", scale)):
        object.__setattr__(P, name, value)
    return P


def _rows(points):
    """points as a 2-D float array inside ``_bounded``: the rows a Polytope admits.
    DimensionMismatch if ragged or not 2-D, BadNumber if an entry is no number, EmptyInput
    if empty."""
    P = _floats(points, "points")
    if P.size == 0:
        raise EmptyInput("no input points")
    if P.ndim != 2:
        raise DimensionMismatch("points do not share a common length")
    return _bounded(P)


def _groups(keys):
    """(key, indices) for each distinct key, in order of first appearance."""
    out = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out.items()


def extreme_points(points):
    """Canonical polytope from an arbitrary point set.

    A point survives iff it is not a convex combination of the others,
    certified by the separation LP (margin > REL_TOL * scale). This is the
    one-set case of ``extreme_points_many``.
    """
    return extreme_points_many([points])[0]


def extreme_points_many(stack):
    """``extreme_points`` of each point set of a stack, as a list of Polytopes.

    ``stack`` is an (S, k, n) array, admitted in one ``_bounded`` call, or any sequence of S
    (k_s, n_s) point sets, admitted one by one. Each set is measured, deduplicated and tolerated
    on its own scale, exactly as if hulled alone: sets of one shape share one distance stack, and
    the kept rows of sets of one count one ``_measured`` stack, the rule a direct build runs.
    Row i is kept without its LP by ``lp``'s screen rule, a feasible u with min(D u) > 2 tol on its
    program D = ``_apart(V)[i]``, as delta* >= min(D u): in R^2 the ``_bisectors`` of the two rows
    of D around their widest angular gap; in R^3 with k >= 4 and k C(k, 3) <= CHUNK_CELLS, its
    summed facet normals (``_facets``); else a sign vector with one or two nonzero entries. A row
    is dropped in R^2 if its rows of D leave no gap of pi - 2 REL_TOL, in R^3 if it lies over 2 tol
    inside every facet: then it is in the hull of the others, so delta* = 0. Most such sets of k
    points make no LP call, for O(k^2) work in R^2 and O(k^4) in R^3.
    The other rows of sets keeping the same number of distinct points send their D in one
    ``margin_directions`` call; its per-LP parity makes every result independent of the batch.
    Until ROADMAP item 7 lands, a set with two input rows within 2^10 tol sends every row.
    """
    whole = isinstance(stack, np.ndarray) and stack.ndim == 3 and stack.size > 0
    sets = list(_bounded(_floats(stack, "points"))) if whole else [_rows(P) for P in stack]
    if not sets:
        raise EmptyInput("no point sets")

    # drop near-duplicates (the first one stays) so a duplicated extreme point survives
    scales, crowded = np.zeros(len(sets)), np.zeros(len(sets), dtype=bool)
    for _, index in _groups(P.shape for P in sets):
        dist = _distances(np.stack([sets[s] for s in index]))
        scales[index] = _scale(dist.max(axis=(1, 2)))
        tol = REL_TOL * scales[index][:, None, None]
        upper = ~np.tri(dist.shape[1], dtype=bool)  # the pairs i < j
        crowded[index] = (upper & (dist <= 2**10 * tol)).any(axis=(1, 2))
        near = upper & (dist <= tol)
        for j in np.flatnonzero(near.any(axis=(1, 2))):
            keep = np.ones(near.shape[1], dtype=bool)
            for i in np.flatnonzero(near[j].any(axis=1)):
                keep[near[j, i] & keep[i]] = False
            sets[index[j]] = sets[index[j]][keep]

    # all open "vertex minus the others" programs of same-count sets in one batch
    for (k, n), index in _groups(V.shape for V in sets):
        if k == 1:
            continue
        V = np.stack([sets[s] for s in index])
        D = _apart(V).reshape(-1, k - 1, n)
        tol, screen = np.repeat(REL_TOL * scales[index], k), np.repeat(~crowded[index], k)
        if n == 2:  # the rows of each D by angle, and their widest gap
            A = np.angle(D.view(np.complex128)[..., 0])
            order = np.argsort(A, axis=1)
            A = np.take_along_axis(A, order, axis=1)
            gaps = np.diff(A, axis=1, append=A[:, :1] + 2.0 * np.pi)
            g = gaps.argmax(axis=1)[:, None]
            pair = np.take_along_axis(order, np.concatenate([g, (g + 1) % (k - 1)], axis=1), axis=1)
            U = _bisectors(np.take_along_axis(D, pair[..., None], axis=1))
            drop = gaps.max(axis=1) < np.pi - 2.0 * REL_TOL
        elif n == 3 and k >= 4 and k * k * (k - 1) * (k - 2) <= 6 * CHUNK_CELLS:
            U, drop = _facets(V, scales[index])  # a set's (k, C(k, 3)) heights within CHUNK_CELLS
        else:  # the sign vectors with one or two nonzero entries
            I, (i, j) = np.eye(n), _pairs(n)
            U = np.concatenate([I, I[i] + I[j], I[i] - I[j]])
            U, drop = np.concatenate([U, -U]), False
        gaps = np.matmul(D, U.swapaxes(-1, -2)).min(axis=1)
        keep = (gaps > 2.0 * tol[:, None]).any(axis=1) & screen
        open_ = ~keep & ~(screen & drop)
        if open_.any():
            deltas, _ = margin_directions(D[open_])
            keep[open_] = deltas > tol[open_]
        for s, rows in zip(index, keep.reshape(-1, k)):
            sets[s] = sets[s][rows]
    hulls = [None] * len(sets)
    for (k, _), index in _groups(V.shape for V in sets):  # kept rows were admitted at entry
        if k == 0:
            raise EmptyInput("no row of a point set is kept")
        for s, V, d, scale in zip(index, *_measured(np.stack([sets[s] for s in index]))):
            hulls[s] = _filled(object.__new__(Polytope), V, d, scale)
    return hulls


def _support_rows(P, U):
    """(value, face mask, margin) of P at each finite nonzero row u of U.

    The face is the vertices within REL_TOL * scale * |u| of the max, the margin the
    gap to the best vertex off it (inf if none), each row at its ``_binade`` scale (inf past range).
    """
    U, e, big = _binade(U, 1)
    if not all(0.5 <= b < 1.0 for b in big[:, 0].tolist()):
        raise ZeroDirection("support direction must be nonzero and finite")
    e = e[:, 0]
    norm_u = np.sqrt(_dots(U, U))
    vals = np.matmul(P.vertices, U[:, :, None])[:, :, 0]
    best = vals.max(axis=1)
    on_face = vals >= (best - REL_TOL * P.scale * norm_u)[:, None]
    margin = best - vals.max(axis=1, where=~on_face, initial=-np.inf)
    with np.errstate(over="ignore"):  # a value past the float range is inf
        return np.ldexp(best, e), on_face, np.ldexp(margin, e)


def support(P, u):
    """Support value, face and margin of P at a finite nonzero u; one row of ``_support_rows``."""
    value, on_face, margin = _support_rows(P, _vector(u, P.dim, "direction")[None])
    return SupportResult(value.item(), tuple(np.flatnonzero(on_face).tolist()), margin.item())


def negate(P):
    """Reflection through the origin."""
    return Polytope(-P.vertices)


def minkowski_sum(P, Q):
    """Minkowski sum; vertices are extreme points of all pairwise sums."""
    if P.dim != Q.dim:
        raise DimensionMismatch(f"dims {P.dim} vs {Q.dim}")
    sums = (P.vertices[:, None, :] + Q.vertices[None, :, :]).reshape(-1, P.dim)
    return extreme_points(sums)


def _shadow(P, B):
    """(S, k, m) vertices of P in each frame of the (S, m, n) basis stack B, for projections."""
    if B.shape[2] != P.dim:
        raise DimensionMismatch(f"frame ambient dim {B.shape[2]} vs polytope dim {P.dim}")
    return np.matmul(P.vertices, B.transpose(0, 2, 1))


def project_polytope(P, frame):
    """Orthogonal projection onto the frame's subspace, in frame coordinates."""
    return extreme_points(_shadow(P, frame.basis[None])[0])


def random_polytope(n, k, seed):
    """Hull of k standard-normal samples in R^n; deterministic per seed."""
    if n < 1 or k < 1:
        raise BadDims(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    return extreme_points(rng.standard_normal((k, n)))
