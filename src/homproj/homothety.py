"""Homotheties x -> z + lambda * x and detection of homothetic polytopes."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadTolerance, DimensionMismatch, ZeroLambda
from .polytope import REL_TOL, Polytope, _distances

DEFAULT_TOL = REL_TOL


@dataclass(frozen=True, eq=False)
class HomothetyResult:
    """Witness of P1 = shift + ratio * P2 and its vertex bijection ``match``.

    P1.vertices[i] lies within residual of shift + ratio * P2.vertices[match[i]];
    match is None for regions without vertices (parabola shadows).
    """

    shift: np.ndarray
    ratio: float
    residual: float
    match: tuple = None


def apply_homothety(P, z, ratio):
    """Image of P under x -> z + ratio * x, vertex count kept; BadNumber past the Polytope bound."""
    z = np.asarray(z, dtype=float)
    if ratio == 0.0:
        raise ZeroLambda("homothety ratio must be nonzero")
    if z.shape != (P.dim,):
        raise DimensionMismatch(f"shift length {z.shape} vs dim {P.dim}")
    with np.errstate(all="ignore"):  # a non-finite ratio or shift, or an overflow, fails the bound
        V = z + ratio * P.vertices
    return Polytope(V)


def homothety_record(result):
    """JSON-ready record of a detected homothety; None when there is none."""
    if result is None:
        return None
    return {
        "z": result.shift.tolist(),
        "lambda": result.ratio,
        "residual": result.residual,
    }


def _match_bijection(V1, V2, dist_tol):
    """(match, max distance) of the nearest-neighbor bijection V1[i] -> V2[match[i]], or None.

    Vertices of a canonical polytope are pairwise separated well beyond the
    matching tolerance, so nearest-neighbor assignment is unambiguous
    whenever a bijection within tolerance exists.
    """
    dists = _distances(V1, V2)
    match = tuple(dists.argmin(axis=1).tolist())
    best = dists[np.arange(len(V1)), match]
    if best.max() > dist_tol or len(set(match)) != len(V1):
        return None
    return match, float(best.max())


def set_equal(P1, P2, tol=DEFAULT_TOL):
    """True iff the vertex sets match bijectively within tol * scale."""
    if P1.dim != P2.dim:
        raise DimensionMismatch(f"dims {P1.dim} vs {P2.dim}")
    if P1.num_vertices != P2.num_vertices:
        return False
    return _match_bijection(P1.vertices, P2.vertices, tol * max(P1.scale, P2.scale)) is not None


def detect_homothety(P1, P2, tol=DEFAULT_TOL):
    """Find (z, lambda) with P1 = z + lambda * P2, or None.

    |lambda| is fixed by the diameter ratio (None if it is 0 or inf: no float lambda exists)
    and the translation by the vertex centroids (both are homothety covariant); the positive
    sign is tried first, so centrally symmetric pairs deterministically report lambda > 0.
    """
    if P1.dim != P2.dim:
        raise DimensionMismatch(f"dims {P1.dim} vs {P2.dim}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise BadTolerance(f"tolerance must be finite and positive, got {tol}")
    if P1.num_vertices != P2.num_vertices:
        return None
    if P1.num_vertices == 1:
        z = P1.vertices[0] - P2.vertices[0]
        return HomothetyResult(shift=z, ratio=1.0, residual=0.0, match=(0,))
    ratio_abs = P1.diameter / P2.diameter
    if not 0.0 < ratio_abs < math.inf:
        return None
    c1 = P1.vertices.mean(axis=0)
    c2 = P2.vertices.mean(axis=0)
    for ratio in (ratio_abs, -ratio_abs):
        z = c1 - ratio * c2
        found = _match_bijection(P1.vertices, z + ratio * P2.vertices, tol * P1.scale)
        if found is not None:
            match, residual = found
            return HomothetyResult(shift=z, ratio=float(ratio), residual=residual, match=match)
    return None
