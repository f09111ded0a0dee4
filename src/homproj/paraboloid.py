"""Analytic model of solid paraboloids in R^3 and their planar shadows.

K_A = {(x, y, z) : (x, y) . A . (x, y) <= z} for a symmetric positive
definite 2x2 matrix A. These sets are unbounded, so they are handled in
closed form via the support function h(v) = (v_xy . A^-1 . v_xy) / (4 |v_3|)
(finite only for v_3 < 0) rather than through the polytope kernel.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadDims, MixedVariants
from .homothety import HomothetyResult

HORIZONTAL_TOL = 1e-10
AXIS_TOL = 1e-9
PROPORTION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ParaboloidSpec:
    """Coefficient matrix A of the solid paraboloid (x,y).A.(x,y) <= z.

    A is finite, exactly symmetric, and its smallest eigenvalue exceeds 1e-12
    times its largest (positive definite relative to its own size).
    """

    coeff: np.ndarray

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
        A.setflags(write=False)
        object.__setattr__(self, "coeff", A)

    @cached_property
    def inverse(self):
        """A^-1, computed once per paraboloid."""
        return np.linalg.inv(self.coeff)


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


def _perp(v):
    return np.array([-v[1], v[0]])


def project_paraboloid(spec, frame):
    """Orthogonal projection of the paraboloid onto a 2-frame in R^3.

    Horizontal planes (z-axis orthogonal to the frame within 1e-10) give the
    whole plane; every other plane gives a parabola region whose axis is the
    normalized in-plane image of the z-axis. Vertex and quadratic coefficient
    come from matching the support function of the shadow with the support
    function of a parabola region.
    """
    if frame.ambient_dim != 3 or frame.sub_dim != 2:
        raise BadDims("projection target must be a 2-frame in R^3")
    w = frame.basis[:, 2]
    wn = float(np.linalg.norm(w))
    if wn <= HORIZONTAL_TOL:
        return ParabolaRegion(full_plane=True)
    axis = w / wn
    perp = _perp(axis)
    B = frame.basis[:, :2]
    M = B @ spec.inverse @ B.T / wn
    m11 = float(perp @ M @ perp)
    m12 = float(perp @ M @ axis)
    m22 = float(axis @ M @ axis)
    quad = 1.0 / m11
    vertex = (-m12 / 2.0) * perp + (-m22 / 4.0) * axis
    return ParabolaRegion(full_plane=False, axis=axis, vertex=vertex, quad_coeff=quad)


def parabola_homothety(r1, r2):
    """Homothety r1 = z + lambda * r2 between shadows of a shared frame.

    Parabola regions with equal unit axes (opposite ones, 2 apart, never occur on one frame)
    are positively homothetic: lambda is the quadratic-coefficient ratio, z maps vertex to vertex.
    """
    if r1.full_plane != r2.full_plane:
        raise MixedVariants("cannot relate a full plane to a parabola region")
    if r1.full_plane:
        return HomothetyResult(shift=np.zeros(2), ratio=1.0, residual=0.0)
    if math.hypot(*(r1.axis - r2.axis)) > AXIS_TOL:
        raise MixedVariants("parabola axes do not point the same way")
    ratio = r2.quad_coeff / r1.quad_coeff
    z = r1.vertex - ratio * r2.vertex
    return HomothetyResult(shift=z, ratio=float(ratio), residual=0.0)


def paraboloid_homothetic(s1, s2):
    """Positive ratio relating the two solid paraboloids, or None.

    K_{A1} and K_{A2} are homothetic iff A1 and A2 are proportional; the
    reported ratio is the entrywise proportion A1/A2 (so identity matrices
    against 2*identity give 0.5), and A1 - ratio * A2 must vanish to within
    PROPORTION_TOL * max|A1|. A negative ratio is impossible because the
    reflected paraboloid opens downward.
    """
    A1, A2 = s1.coeff, s2.coeff
    i, j = np.unravel_index(np.abs(A1).argmax(), A1.shape)
    ratio = A1[i, j] / A2[i, j]
    if ratio <= 0.0:
        return None
    if np.max(np.abs(A1 - ratio * A2)) > PROPORTION_TOL * abs(A1[i, j]):
        return None
    return float(ratio)


def shadow_support(spec, frame, d):
    """Support function of the shadow at in-plane direction d (oracle hook).

    Finite only when d has a negative component along the projected z-axis;
    returns inf otherwise.
    """
    d = np.asarray(d, dtype=float)
    v = d @ frame.basis
    if v[2] >= 0.0:
        return math.inf if np.linalg.norm(v) > 0 else 0.0
    vxy = v[:2]
    return float(vxy @ spec.inverse @ vxy) / (4.0 * abs(v[2]))
