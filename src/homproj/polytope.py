"""Canonical V-representation of compact convex sets.

A Polytope stores exactly the extreme points of its convex hull, sorted
lexicographically (on a REL_TOL * scale grid so near-ties order stably). Its
constructor alone admits the rows (``_bounded``), measures the diameter, sets
the scale (``_scale``: the diameter, 1 for a singleton) and orders the rows.
All predicates compare gaps with REL_TOL * scale and ``_distances`` alone
measures distances. So they are scale-invariant, and translation-invariant only
while diameter / max|coordinate| stays well above machine epsilon; past that, a
translation rounds away the very differences the predicates compare.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDims, BadNumber, DimensionMismatch, EmptyInput, ZeroDirection
from .lp import _binade, _dots, _vector, margin_directions

REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Polytope:
    """Extreme points (rows, canonical order) of a compact convex set, its diameter and scale.

    A direct build bounds, measures and orders its rows; it trusts only that they are extreme.
    """

    vertices: np.ndarray
    diameter: float = field(init=False, repr=False)
    scale: float = field(init=False, repr=False)

    def __post_init__(self):
        V = _rows(self.vertices)
        d = float(_distances(V).max(initial=0.0))
        object.__setattr__(self, "diameter", d)
        object.__setattr__(self, "scale", _scale(d))
        object.__setattr__(self, "vertices", _canonical_sort(V, self.scale))
        self.vertices.setflags(write=False)

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
    """Scale of a set with this diameter: the one size policy of the package."""
    return diameter if diameter > 0.0 else 1.0


def _bounded(V):
    """V if each row has |x|_2 < 2^1022 / sqrt(dim), else BadNumber (nan and inf too).

    The one coordinate range: orthogonal projection keeps it, and inside it differences,
    distances, LP deltas and V @ (u / 2^e) stay below 2^1023. V / 2^1022 is exact for |x| >= 1.
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


def _canonical_sort(V, scale):
    """Lexicographic row order on the REL_TOL * scale grid, ties by coordinates; a total order."""
    cells = np.round((V - V.min(axis=0)) / (REL_TOL * scale))
    return V[np.lexsort(np.concatenate([V.T[::-1], cells.T[::-1]]))]


def _rows(points):
    """points as a 2-D float array inside ``_bounded``: the rows a Polytope admits.
    DimensionMismatch if ragged or not 2-D, EmptyInput if empty."""
    try:
        P = np.asarray(points, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch("points do not share a common length") from exc
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

    ``stack`` is an (S, k, n) array or any sequence of S (k_s, n_s) point
    sets. Each set is measured, deduplicated and tolerated on its own scale,
    exactly as if hulled alone. Sets of one shape share one distance stack,
    and sets that keep the same number of distinct points share one
    ``margin_directions`` call; its per-LP parity makes every result
    independent of the batch it was solved in.
    """
    sets = [_rows(points) for points in stack]
    if not sets:
        raise EmptyInput("no point sets")

    # drop near-duplicates (the first one stays) so a duplicated extreme point survives
    scales = [0.0] * len(sets)
    for _, index in _groups(P.shape for P in sets):
        dist = _distances(np.stack([sets[s] for s in index]))
        for s, d in zip(index, dist.max(axis=(1, 2)).tolist()):
            scales[s] = _scale(d)
        tol = REL_TOL * np.array([scales[s] for s in index])
        near = np.triu(dist <= tol[:, None, None], 1)
        for j in np.flatnonzero(near.any(axis=(1, 2))):
            keep = np.ones(near.shape[1], dtype=bool)
            for i in np.flatnonzero(near[j].any(axis=1)):
                keep[near[j, i] & keep[i]] = False
            sets[index[j]] = sets[index[j]][keep]

    # all "vertex minus the others" programs of same-count sets in one batch
    for (k, _), index in _groups(V.shape for V in sets):
        if k == 1:
            continue
        V = np.stack([sets[s] for s in index])
        deltas, _ = margin_directions(_apart(V).reshape(-1, k - 1, V.shape[2]))
        for s, delta in zip(index, deltas.reshape(len(index), k)):
            sets[s] = sets[s][delta > REL_TOL * scales[s]]
    return [Polytope(V) for V in sets]


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
