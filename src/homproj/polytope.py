"""Canonical V-representation of compact convex sets.

A Polytope stores exactly the extreme points of its convex hull, sorted
lexicographically (on a REL_TOL * scale grid so near-ties order stably). All
predicates compare gaps with REL_TOL * scale, where ``_scale`` alone sets
scale = diameter (1 for a singleton) and ``_distances`` alone measures point
distances. So the predicates are scale-invariant. They are
translation-invariant only while diameter / max|coordinate| stays well above
machine epsilon; past that, a translation rounds away the very differences
the predicates compare, which no tolerance can restore.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadDims, DimensionMismatch, EmptyInput, ZeroDirection
from .lp import margin_directions

REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Polytope:
    """Extreme points (rows, canonical order) of a compact convex set."""

    vertices: np.ndarray

    def __post_init__(self):
        V = np.ascontiguousarray(np.atleast_2d(np.asarray(self.vertices, dtype=float)))
        V.setflags(write=False)
        object.__setattr__(self, "vertices", V)

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @cached_property
    def diameter(self):
        """Largest pairwise vertex distance; 0 for a singleton."""
        return float(_distances(self.vertices).max(initial=0.0))

    @cached_property
    def scale(self):
        """The length that every tolerance on this polytope is relative to."""
        return _scale(self.diameter)


@dataclass(frozen=True)
class SupportResult:
    """Support value, attaining vertex indices, and the uniqueness margin."""

    value: float
    face: tuple
    margin: float


def _scale(diameter):
    """Scale of a set with this diameter: the one size policy of the package."""
    return diameter if diameter > 0.0 else 1.0


def _distances(V, W=None):
    """(..., len V, len W) distances between the rows of V and W (or V).

    V and W may carry leading stack axes; each stack entry is measured on
    its own. Its differences are divided by the power of two 2^e that puts
    their max|.| in [0.5, 1) before they are squared, so the largest square
    neither under- nor overflows; 2^e is exact and commutes with squaring,
    summing and sqrt, so normal-range bits do not depend on it or on the
    other entries of the stack.
    """
    W = V if W is None else W
    diff = V[..., :, None, :] - W[..., None, :, :]
    big = np.abs(diff).max(axis=(-3, -2, -1), initial=0.0, keepdims=True)
    e = np.frexp(big)[1]
    diff = np.ldexp(diff, -e)
    return np.ldexp(np.sqrt((diff * diff).sum(axis=-1)), e[..., 0])


def diameter(P):
    """Largest pairwise vertex distance; 0 for a singleton."""
    return P.diameter


def others_index(k):
    """(k, k-1) index array whose row i lists 0..k-1 without i, in order."""
    j = np.arange(k - 1)
    return j + (j >= np.arange(k)[:, None])


def _canonical_sort(V, scale):
    """Lexicographic row order on the REL_TOL * scale grid; a total order."""
    cells = np.round(V / (REL_TOL * scale))
    return V[np.lexsort(cells.T[::-1])]


def _point_array(points):
    """points as a float array; DimensionMismatch if ragged, EmptyInput if empty."""
    try:
        P = np.asarray(points, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch("points do not share a common length") from exc
    if P.size == 0:
        raise EmptyInput("no input points")
    return P


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
    P = _point_array(points)
    if P.ndim == 1:
        P = P[None, :]
    (hull,) = extreme_points_many([P])
    return hull


def extreme_points_many(stack):
    """``extreme_points`` of each point set of a stack, as a list of Polytopes.

    ``stack`` is an (S, k, n) array or any sequence of S (k_s, n_s) point
    sets. Each set is measured, deduplicated and tolerated on its own scale,
    exactly as if hulled alone. Sets of one shape share one distance stack,
    and sets that keep the same number of distinct points share one
    ``margin_directions`` call; its per-LP parity makes every result
    independent of the batch it was solved in.
    """
    sets = [_point_array(points) for points in stack]
    if not sets:
        raise EmptyInput("no point sets")
    for P in sets:
        if P.ndim != 2:
            raise DimensionMismatch("points do not share a common length")
        if not np.all(np.isfinite(P)):
            raise ValueError("non-finite coordinates")

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
        deltas, _ = margin_directions(
            (V[:, :, None, :] - V[:, others_index(k)]).reshape(-1, k - 1, V.shape[2])
        )
        for s, delta in zip(index, deltas.reshape(len(index), k)):
            sets[s] = sets[s][delta > REL_TOL * scales[s]]
    return [Polytope(_canonical_sort(V, scale)) for V, scale in zip(sets, scales)]


def support(P, u):
    """Support function value of P at a finite nonzero u, with the attaining face.

    face holds the argmax vertex indices within REL_TOL * scale * |u|; margin is
    the gap to the best vertex outside the face (inf when there is none).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (P.dim,):
        raise DimensionMismatch(f"direction length {u.shape} vs dim {P.dim}")
    big = max(map(abs, u.tolist()))  # may step over a nan; the norm below does not
    if 0.0 < big < math.inf and not 2.0**-500 < big < 2.0**500:
        # |u| could over- or underflow: solve at u / 2^e, max|u / 2^e| in [0.5, 1)
        e = math.frexp(big)[1]
        res = support(P, np.ldexp(u, -e))
        with np.errstate(over="ignore"):  # a value past the float range is inf
            value, margin = np.ldexp([res.value, res.margin], e).tolist()
        return SupportResult(value=value, face=res.face, margin=margin)
    norm_u = float(np.linalg.norm(u))  # in range, unless u is 0 or not finite
    if not 0.0 < norm_u < math.inf:
        raise ZeroDirection("support direction must be nonzero and finite")
    vals = P.vertices @ u
    best = float(vals.max())
    tol = REL_TOL * P.scale * norm_u
    on_face = vals >= best - tol
    face = tuple(int(i) for i in np.flatnonzero(on_face))
    off = vals[~on_face]
    margin = float(best - off.max()) if off.size else math.inf
    return SupportResult(value=best, face=face, margin=margin)


def negate(P):
    """Reflection through the origin."""
    return Polytope(_canonical_sort(-P.vertices, P.scale))


def minkowski_sum(P, Q):
    """Minkowski sum; vertices are extreme points of all pairwise sums."""
    if P.dim != Q.dim:
        raise DimensionMismatch(f"dims {P.dim} vs {Q.dim}")
    sums = (P.vertices[:, None, :] + Q.vertices[None, :, :]).reshape(-1, P.dim)
    return extreme_points(sums)


def _shadow(P, frame):
    """Vertices of P in the frame's coordinates: the points a projection hulls."""
    if frame.ambient_dim != P.dim:
        raise DimensionMismatch(
            f"frame ambient dim {frame.ambient_dim} vs polytope dim {P.dim}"
        )
    return P.vertices @ frame.basis.T


def project_polytope(P, frame):
    """Orthogonal projection onto the frame's subspace, in frame coordinates."""
    return extreme_points(_shadow(P, frame))


def random_polytope(n, k, seed):
    """Hull of k standard-normal samples in R^n; deterministic per seed."""
    if n < 1 or k < 1:
        raise BadDims(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    return extreme_points(rng.standard_normal((k, n)))
