"""Analytic model of solid paraboloids in R^3 and their planar shadows.

K_A = {(x, y, z) : (x, y) . A . (x, y) <= z} for a symmetric positive
definite 2x2 matrix A. These sets are unbounded, so they are handled in
closed form via the support function h(v) = (v_xy . A^-1 . v_xy) / (4 |v_3|)
(finite only for v_3 < 0) rather than through the polytope kernel.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDims, MixedVariants
from .homothety import HomothetyResult
from .lp import _dots, _vector

HORIZONTAL_TOL = 1e-10
AXIS_TOL = 1e-9
PROPORTION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ParaboloidSpec:
    """Coefficient matrix A of the solid paraboloid (x,y).A.(x,y) <= z, and its inverse.

    A is finite, exactly symmetric, and its smallest eigenvalue exceeds 1e-12 times its
    largest (positive definite relative to its own size). A^-1 is computed with it, once.
    """

    coeff: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = np.ascontiguousarray(np.asarray(self.coeff, dtype=float))
        if A.shape != (2, 2):
            raise BadDims(f"coefficient matrix must be 2x2, got {A.shape}")
        if A[0, 1] != A[1, 0]:
            raise ValueError("coefficient matrix must be exactly symmetric")
        if not np.all(np.isfinite(A)):
            raise ValueError("coefficient matrix must be finite")
        low, high = np.linalg.eigvalsh(A)
        if not low > 1e-12 * high:
            raise ValueError("coefficient matrix must be positive definite")
        for name, M in (("coeff", A), ("inverse", np.linalg.inv(A))):
            M.setflags(write=False)
            object.__setattr__(self, name, M)


@dataclass(frozen=True, eq=False)
class ParabolaRegion:
    """Planar shadow of a paraboloid: the whole plane or a parabola region.

    A parabola region is {vertex + t*perp(axis) + s*axis : s >= quad_coeff * t^2},
    i.e. the convex side of a parabola opening along ``axis``.
    """

    full_plane: bool
    axis: np.ndarray = None
    vertex: np.ndarray = None
    quad_coeff: float = None


def _parabolas(spec, B):
    """(full, axis, vertex, quad) of the shadows on the 2-frames of an (S, 2, 3) stack B.

    A full plane reads axis = vertex = 0, quad = 1, which ``_homotheties`` maps by the identity.
    """
    w = B[:, :, 2]
    wn = np.sqrt(_dots(w, w))
    full = wn <= HORIZONTAL_TOL
    axis, vertex, quad = np.zeros((len(B), 2)), np.zeros((len(B), 2)), np.ones(len(B))
    tilted, wn = ~full, wn[~full, None]
    a = w[tilted] / wn
    perp = np.stack([-a[:, 1], a[:, 0]], axis=1)
    P = B[tilted, :, :2]
    M = np.matmul(np.matmul(P, spec.inverse), P.transpose(0, 2, 1)) / wn[:, :, None]
    m11, m12, m22 = (_dots(np.matmul(u[:, None], M)[:, 0], v)
                     for u, v in ((perp, perp), (perp, a), (a, a)))
    axis[tilted], quad[tilted] = a, 1.0 / m11
    vertex[tilted] = (-m12[:, None] / 2.0) * perp + (-m22[:, None] / 4.0) * a
    return full, axis, vertex, quad


def project_paraboloid(spec, frame):
    """Orthogonal projection of the paraboloid onto a 2-frame in R^3.

    Horizontal planes (z-axis orthogonal to the frame within 1e-10) give the
    whole plane; every other plane gives a parabola region whose axis is the
    normalized in-plane image of the z-axis. Vertex and quadratic coefficient
    come from matching the support function of the shadow with the support
    function of a parabola region. This is the one-frame case of ``_parabolas``.
    """
    if frame.ambient_dim != 3 or frame.sub_dim != 2:
        raise BadDims("projection target must be a 2-frame in R^3")
    (full,), (axis,), (vertex,), (quad,) = _parabolas(spec, frame.basis[None])
    return ParabolaRegion(True) if full else ParabolaRegion(False, axis, vertex, float(quad))


def _homotheties(p1, p2):
    """(shift, ratio) with r1 = shift + ratio * r2 for each entry of two ``_parabolas`` stacks.

    Parabola regions with equal unit axes (opposite ones, 2 apart, never occur on one frame) are
    positively homothetic: ratio and shift map quadratic coefficient and vertex onto r1's.
    """
    (full1, axis1, vertex1, quad1), (full2, axis2, vertex2, quad2) = p1, p2
    if np.any(full1 != full2):
        raise MixedVariants("cannot relate a full plane to a parabola region")
    gap = axis1 - axis2
    if np.any(np.hypot(gap[:, 0], gap[:, 1]) > AXIS_TOL):
        raise MixedVariants("parabola axes do not point the same way")
    ratio = quad2 / quad1
    return vertex1 - ratio[:, None] * vertex2, ratio


def _as_stack(r):
    """A ParabolaRegion as a one-entry ``_parabolas`` stack."""
    fields = ((0.0, 0.0), (0.0, 0.0), 1.0) if r.full_plane else (r.axis, r.vertex, r.quad_coeff)
    return (np.array([r.full_plane]), *(np.array([x], dtype=float) for x in fields))


def parabola_homothety(r1, r2):
    """Homothety r1 = z + lambda * r2 of two shadows on one frame; one pair of ``_homotheties``."""
    (shift,), (ratio,) = _homotheties(_as_stack(r1), _as_stack(r2))
    return HomothetyResult(shift=shift, ratio=float(ratio), residual=0.0)


def paraboloid_homothetic(s1, s2):
    """Positive ratio relating the two solid paraboloids, or None.

    K_{A1} and K_{A2} are homothetic iff A1 and A2 are proportional; the
    reported ratio is the entrywise proportion A1/A2 (so identity matrices
    against 2*identity give 0.5), and A1 - ratio * A2 must vanish to within
    PROPORTION_TOL * max|A1|. A negative ratio is impossible because the
    reflected paraboloid opens downward; a ratio of 0 or inf gives None, as no
    float ratio exists.
    """
    A1, A2 = s1.coeff, s2.coeff
    i, j = np.unravel_index(np.abs(A1).argmax(), A1.shape)  # on the diagonal: A2[i, j] > 0
    with np.errstate(over="ignore"):  # an entry past the float range reads inf
        ratio = A1[i, j] / A2[i, j]
        if not 0.0 < ratio < math.inf:
            return None
        if np.max(np.abs(A1 - ratio * A2)) > PROPORTION_TOL * abs(A1[i, j]):
            return None
    return float(ratio)


def shadow_support(spec, frame, d):
    """Support function of the shadow at in-plane direction d (oracle hook).

    Finite only when d has a negative component along the projected z-axis;
    returns inf otherwise.
    """
    v = _vector(d, frame.sub_dim, "direction") @ frame.basis
    if v[2] >= 0.0:
        return math.inf if np.linalg.norm(v) > 0 else 0.0
    vxy = v[:2]
    return float(vxy @ spec.inverse @ vxy) / (4.0 * abs(v[2]))
