import math

import numpy as np
import pytest

from homproj import (
    BadDims,
    MixedVariants,
    ParabolaRegion,
    ParaboloidSpec,
    orthonormalize,
    parabola_homothety,
    paraboloid_homothetic,
    project_paraboloid,
    random_frame,
)
from homproj.paraboloid import shadow_support


def boundary_point(region, t):
    return region.vertex + t * np.array([-region.axis[1], region.axis[0]]) + (
        region.quad_coeff * t * t
    ) * region.axis


def test_vertical_plane_identity_coefficients():
    L = orthonormalize([[1, 0, 0], [0, 0, 1]])
    r = project_paraboloid(ParaboloidSpec(np.eye(2)), L)
    assert not r.full_plane
    assert np.allclose(r.axis, [0, 1])
    assert np.allclose(r.vertex, [0, 0], atol=1e-12)
    assert r.quad_coeff == pytest.approx(1.0)


def test_vertical_plane_anisotropic():
    L = orthonormalize([[1, 0, 0], [0, 0, 1]])
    r = project_paraboloid(ParaboloidSpec(np.diag([2.0, 1.0])), L)
    assert r.quad_coeff == pytest.approx(2.0)
    assert np.allclose(r.vertex, [0, 0], atol=1e-12)


def test_horizontal_plane_is_full_plane():
    L = orthonormalize([[1, 0, 0], [0, 1, 0]])
    for A in (np.eye(2), np.diag([2.0, 1.0])):
        assert project_paraboloid(ParaboloidSpec(A), L).full_plane


def test_bad_frame_dims():
    with pytest.raises(BadDims):
        project_paraboloid(ParaboloidSpec(np.eye(2)), orthonormalize([[1, 0, 0]]))


def test_axis_is_projected_z_axis():
    for seed in range(40):
        F = random_frame(3, 2, 1000 + seed)
        w = F.basis @ np.array([0.0, 0.0, 1.0])
        if np.linalg.norm(w) <= 1e-10:
            continue
        r = project_paraboloid(ParaboloidSpec(np.eye(2)), F)
        assert np.linalg.norm(r.axis - w / np.linalg.norm(w)) <= 1e-10


def test_boundary_against_support_oracle():
    # sampled boundary points of the analytic region must be supported
    # points of the numerically evaluated shadow support function
    spec = ParaboloidSpec(np.array([[2.0, 0.3], [0.3, 1.0]]))
    for seed in (3, 4, 5):
        F = random_frame(3, 2, seed)
        r = project_paraboloid(spec, F)
        if r.full_plane:
            continue
        for t in np.linspace(-3.0, 3.0, 50):
            p = boundary_point(r, t)
            # supporting direction of the parabola eta >= a xi^2 at xi = t
            perp = np.array([-r.axis[1], r.axis[0]])
            d = 2.0 * r.quad_coeff * t * perp - r.axis
            h = shadow_support(spec, F, d)
            assert abs(float(p @ d) - h) <= 1e-7


def test_boundary_inside_shadow():
    spec = ParaboloidSpec(np.diag([2.0, 1.0]))
    rng = np.random.default_rng(0)
    F = random_frame(3, 2, 11)
    r = project_paraboloid(spec, F)
    for t in np.linspace(-2.0, 2.0, 20):
        p = boundary_point(r, t)
        for _ in range(20):
            d = rng.standard_normal(2)
            assert float(p @ d) <= shadow_support(spec, F, d) + 1e-7


def test_primal_projection_lands_on_parabola():
    # project the support-maximizing boundary point of the body and check it
    # satisfies the analytic parabola equation
    spec = ParaboloidSpec(np.array([[1.5, -0.2], [-0.2, 0.8]]))
    Ainv = np.linalg.inv(spec.coeff)
    for seed in range(10):
        F = random_frame(3, 2, 2000 + seed)
        r = project_paraboloid(spec, F)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            d = rng.standard_normal(2)
            v = d @ F.basis
            if v[2] >= -1e-6:
                continue
            u = -Ainv @ v[:2] / (2.0 * v[2])
            q = np.array([u[0], u[1], float(u @ spec.coeff @ u)])
            p = F.basis @ q
            rel = p - r.vertex
            xi = float(rel @ np.array([-r.axis[1], r.axis[0]]))
            eta = float(rel @ r.axis)
            assert eta == pytest.approx(r.quad_coeff * xi * xi, abs=1e-7)


def test_parabola_homothety_coefficient_ratio():
    L = orthonormalize([[1, 0, 0], [0, 0, 1]])
    r1 = project_paraboloid(ParaboloidSpec(np.eye(2)), L)
    r2 = project_paraboloid(ParaboloidSpec(np.diag([2.0, 1.0])), L)
    # r2 has coefficient 2; scaling it by lambda = 1/2 gives coefficient ...
    res = parabola_homothety(r1, r2)
    assert res.ratio == pytest.approx(2.0)
    assert res.residual == 0.0 and res.match is None  # regions have no vertices
    same = parabola_homothety(r1, r1)
    assert same.ratio == pytest.approx(1.0)


def test_parabola_homothety_full_plane_and_mixed():
    L_h = orthonormalize([[1, 0, 0], [0, 1, 0]])
    L_v = orthonormalize([[1, 0, 0], [0, 0, 1]])
    full = project_paraboloid(ParaboloidSpec(np.eye(2)), L_h)
    parab = project_paraboloid(ParaboloidSpec(np.eye(2)), L_v)
    res = parabola_homothety(full, full)
    assert res.ratio == 1.0
    with pytest.raises(MixedVariants):
        parabola_homothety(full, parab)


@pytest.mark.parametrize("angle", [1e-6, 4e-5, math.pi / 2, math.pi])
def test_parabola_homothety_needs_equal_axes(angle):
    # 1 - cos(angle) cancels below ~4.5e-5 rad; |a1 - a2| does not
    def region(a):
        axis = np.array([math.cos(a), math.sin(a)])
        return ParabolaRegion(full_plane=False, axis=axis, vertex=np.zeros(2), quad_coeff=1.0)

    assert parabola_homothety(region(angle), region(angle)).ratio == 1.0
    with pytest.raises(MixedVariants):
        parabola_homothety(region(0.0), region(angle))


def test_parabola_homothety_scaling_identity():
    # scaling eta >= 2 xi^2 by lambda = 2 gives eta >= xi^2
    L = orthonormalize([[1, 0, 0], [0, 0, 1]])
    r1 = project_paraboloid(ParaboloidSpec(np.eye(2)), L)
    r2 = project_paraboloid(ParaboloidSpec(np.diag([2.0, 1.0])), L)
    res = parabola_homothety(r1, r2)
    # map boundary of r2 through the homothety; it must satisfy r1's equation
    for t in np.linspace(-2, 2, 15):
        p = res.shift + res.ratio * (
            r2.vertex + t * np.array([-r2.axis[1], r2.axis[0]]) + 2.0 * t * t * r2.axis
        )
        rel = p - r1.vertex
        xi = float(rel @ np.array([-r1.axis[1], r1.axis[0]]))
        eta = float(rel @ r1.axis)
        assert eta == pytest.approx(r1.quad_coeff * xi * xi, abs=1e-12)


def test_paraboloid_homothetic_proportional():
    assert paraboloid_homothetic(
        ParaboloidSpec(np.eye(2)), ParaboloidSpec(2.0 * np.eye(2))
    ) == pytest.approx(0.5)
    assert paraboloid_homothetic(ParaboloidSpec(np.eye(2)), ParaboloidSpec(np.eye(2))) == 1.0
    assert (
        paraboloid_homothetic(
            ParaboloidSpec(np.eye(2)), ParaboloidSpec(np.diag([2.0, 1.0]))
        )
        is None
    )


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-12, 1e-10, 1e-6, 1.0, 1e6, 1e10, 1e200, 1e300])
def test_paraboloid_homothetic_is_scale_invariant(s):
    example1 = ParaboloidSpec(np.diag([2.0 * s, s])), ParaboloidSpec(np.diag([s, s]))
    assert paraboloid_homothetic(*example1) is None
    identity = ParaboloidSpec(s * np.eye(2))
    assert paraboloid_homothetic(identity, ParaboloidSpec(2.0 * s * np.eye(2))) == 0.5
    assert paraboloid_homothetic(identity, ParaboloidSpec(s * np.diag([2.0, 1.0]))) is None
    A = s * np.array([[3.0, 0.7], [0.7, 1.1]])
    assert paraboloid_homothetic(ParaboloidSpec(A), ParaboloidSpec(A / 3.0)) == pytest.approx(3.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        ParaboloidSpec(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        ParaboloidSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    for diagonal, reason in (
        ([np.inf, 1.0], "must be finite"),
        ([np.nan, 1.0], "must be finite"),
        ([1.0, 1e-13], "positive definite"),
        ([0.0, 0.0], "positive definite"),
    ):
        with pytest.raises(ValueError, match=reason):
            ParaboloidSpec(np.diag(diagonal))
