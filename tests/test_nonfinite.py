"""Public entry points reject NaN and infinite arguments instead of computing with them."""

import numpy as np
import pytest

from homproj import (
    BadNumber,
    BadTolerance,
    DependentInput,
    Frame,
    Polytope,
    ZeroDirection,
    apply_homothety,
    exposed_diameter_near,
    exposed_point_near,
    extreme_points,
    orthonormalize,
    project_point,
    random_frame,
    set_equal,
    support,
)
from homproj.paraboloid import ParaboloidSpec, shadow_support

SQUARE = extreme_points([[0, 0], [1, 0], [0, 1], [1, 1]])
HUGE = extreme_points([[0, 0], [1e200, 0], [0, 1e200]])
SHIFTED = extreme_points(SQUARE.vertices + 0.3)
BOWL = ParaboloidSpec(np.eye(2))
TIED = [1.0, 0.0]  # an edge normal of SQUARE: only perturbed directions expose a vertex

CASES = {
    "frame-nan": (lambda: Frame([[np.nan, 0.0, 0.0]]), DependentInput),
    "frame-inf": (lambda: Frame([[np.inf, 0.0, 0.0]]), DependentInput),
    "orthonormalize-nan": (lambda: orthonormalize([[np.nan, 1.0, 0.0]]), DependentInput),
    "orthonormalize-inf": (lambda: orthonormalize([[1.0, 0, 0], [np.inf, 1, 0]]), DependentInput),
    "support-nan": (lambda: support(SQUARE, [np.nan, 1.0]), ZeroDirection),
    "support-inf": (lambda: support(SQUARE, [np.inf, 1.0]), ZeroDirection),
    "point-near-nan-f": (lambda: exposed_point_near(SQUARE, [np.nan, 1.0], 0.1), ZeroDirection),
    "point-near-inf-eps": (lambda: exposed_point_near(SQUARE, TIED, np.inf), BadTolerance),
    "point-near-nan-eps": (lambda: exposed_point_near(SQUARE, TIED, np.nan), BadTolerance),
    "diameter-near-inf-eps": (lambda: exposed_diameter_near(SQUARE, TIED, np.inf), BadTolerance),
    "diameter-near-nan-eps": (lambda: exposed_diameter_near(SQUARE, TIED, np.nan), BadTolerance),
    "homothety-nan-ratio": (lambda: apply_homothety(SQUARE, [0.0, 0.0], np.nan), ValueError),
    "homothety-inf-ratio": (lambda: apply_homothety(SQUARE, [0.0, 0.0], np.inf), ValueError),
    "homothety-nan-shift": (lambda: apply_homothety(SQUARE, [np.nan, 0.0], 2.0), ValueError),
    "homothety-inf-shift": (lambda: apply_homothety(SQUARE, [0.0, -np.inf], 2.0), ValueError),
    "homothety-overflow": (lambda: apply_homothety(HUGE, [0.0, 0.0], 1e200), ValueError),
    "polytope-nan": (lambda: Polytope([[np.nan, 0.0], [1.0, 1.0]]), BadNumber),
    "polytope-inf": (lambda: Polytope([[0.0, -np.inf]]), BadNumber),
    "polytope-past-bound": (lambda: Polytope([[1e308, 0.0], [-1e308, 0.0]]), BadNumber),
    "project-point-nan": (lambda: project_point(random_frame(3, 2, 0), [np.nan, 0, 0]), BadNumber),
    "project-point-inf": (lambda: project_point(random_frame(3, 1, 0), [np.inf, 0, 0]), BadNumber),
    "set-equal-nan-tol": (lambda: set_equal(SQUARE, SHIFTED, np.nan), BadTolerance),
    "set-equal-inf-tol": (lambda: set_equal(SQUARE, SHIFTED, np.inf), BadTolerance),
    "shadow-support-nan": (lambda: shadow_support(BOWL, random_frame(3, 2, 0), [np.nan, 1.0]),
                           ZeroDirection),
    "shadow-support-inf": (lambda: shadow_support(BOWL, random_frame(3, 2, 0), [1.0, -np.inf]),
                           ZeroDirection),
}


@pytest.mark.parametrize("case", list(CASES))
def test_non_finite_arguments_raise(case):
    call, error = CASES[case]
    with pytest.raises(error):
        call()
