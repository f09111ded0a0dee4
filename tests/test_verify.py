import numpy as np
import pytest

from homproj import (
    BadDims,
    SingletonInput,
    apply_homothety,
    extreme_points,
    random_frame,
    random_polytope,
    verify_corollary1,
    verify_diameter_transfer,
    verify_example1,
    verify_no_parallel_diameters,
    verify_theorem1,
    verify_theorem2,
)
from homproj.files import report_to_text


def test_theorem1_forward_cube(cube):
    P2 = apply_homothety(cube, np.array([1.0, 2.0, 3.0]), 2.0)
    rep = verify_theorem1(cube, P2, 2, 100, 0)
    assert rep.verdict == "pass"
    assert rep.passes == rep.instances_run == 100
    assert not rep.existential


def test_theorem1_converse_witness(cube, octahedron):
    rep = verify_theorem1(cube, octahedron, 2, 50, 0)
    assert rep.verdict == "pass"
    assert rep.existential
    assert any("projection_1" in w for w in rep.witnesses)


def test_theorem1_bad_dims(cube):
    with pytest.raises(BadDims):
        verify_theorem1(cube, cube, 3, 10, 0)  # m = n


def test_corollary1_forward():
    P = random_polytope(4, 10, 1)
    P2 = apply_homothety(P, np.array([0.5, -1.0, 2.0, 0.0]), 3.0)
    S = random_frame(4, 1, 3)
    rep = verify_corollary1(P, P2, S, 3, 40, 0)
    assert rep.verdict == "pass"
    assert rep.passes == 40


def test_corollary1_dimension_condition(cube):
    S = random_frame(3, 1, 0)
    with pytest.raises(BadDims):
        verify_corollary1(cube, cube, S, 2, 10, 0)  # r = m - 1


def test_corollary1_zero_subspace_witness(cube, octahedron):
    rep = verify_corollary1(cube, octahedron, None, 2, 50, 0)
    assert rep.verdict == "pass"
    assert rep.existential


def test_theorem2(square):
    rep = verify_theorem2(square)
    assert rep.verdict == "pass"
    assert rep.passes == 4
    rep = verify_theorem2(random_polytope(3, 12, 6))
    assert rep.verdict == "pass"
    with pytest.raises(SingletonInput):
        verify_theorem2(extreme_points([[0.0, 0.0]]))


def test_no_parallel_diameters(square, triangle):
    assert verify_no_parallel_diameters(square).verdict == "pass"
    assert verify_no_parallel_diameters(triangle).verdict == "pass"
    seg = extreme_points([[0.0, 0.0], [1.0, 1.0]])
    rep = verify_no_parallel_diameters(seg)
    assert rep.verdict == "pass"  # single diameter, vacuous
    assert rep.instances_run == 0


def test_no_parallel_diameters_on_near_parallel_pairs():
    # ten points on the unit circle: two of the 45 diameters are about 3e-5
    # rad apart, which 1 - |cos| < 1e-9 used to call parallel
    pts = np.random.default_rng(np.random.SeedSequence([3, 2, 54])).standard_normal((10, 2))
    P = extreme_points(pts / np.linalg.norm(pts, axis=1)[:, None])
    rep = verify_no_parallel_diameters(P)
    assert (rep.instances_run, rep.passes, rep.verdict) == (45, 45, "pass")
    assert rep.witnesses == []


def test_diameter_transfer(cube, square, triangle):
    P2 = apply_homothety(cube, np.array([0.3, -0.7, 1.1]), 1.8)
    assert verify_diameter_transfer(P2, cube).verdict == "pass"
    # central reflection
    from homproj import negate

    assert verify_diameter_transfer(negate(cube), cube).verdict == "pass"
    assert verify_diameter_transfer(square, triangle).verdict == "not-applicable"


def test_example1():
    rep = verify_example1(100, 1)
    assert rep.verdict == "pass"
    assert rep.passes == 100


def test_reports_are_deterministic(cube):
    P2 = apply_homothety(cube, np.array([1.0, 0.0, -1.0]), -0.5)
    a = report_to_text(verify_theorem1(cube, P2, 2, 25, 9))
    b = report_to_text(verify_theorem1(cube, P2, 2, 25, 9))
    assert a == b
    assert report_to_text(verify_example1(30, 4)) == report_to_text(verify_example1(30, 4))
