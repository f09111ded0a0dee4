"""Refusals of the public entry points: each raises its own KernelError subclass, with no
warning on the way, and the branches that answer instead of refusing answer as documented."""

import math

import numpy as np
import pytest

from homproj import (
    BadDims,
    BadNumber,
    BadTolerance,
    DependentInput,
    DimensionMismatch,
    EmptyInput,
    FormatError,
    Frame,
    ParaboloidSpec,
    PerturbationFailed,
    SingletonInput,
    antipodally_exposed_points,
    apply_homothety,
    detect_homothety,
    exposed_diameter_near,
    exposed_point_near,
    extreme_points,
    files,
    is_exposed,
    minkowski_sum,
    orthonormalize,
    paraboloid_homothetic,
    project_polytope,
    random_frame,
    set_equal,
    support,
    verify_no_parallel_diameters,
    verify_theorem1,
)
from homproj.paraboloid import shadow_support

SQUARE = extreme_points([[0, 0], [1, 0], [0, 1], [1, 1]])
CUBE = extreme_points([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
POINT = extreme_points([[3.0, 4.0]])
SHIFTED = extreme_points(SQUARE.vertices + 0.3)

CASES = {
    "homothety-shift-length": (lambda: apply_homothety(SQUARE, [0, 0, 0], 2.0), DimensionMismatch),
    "set-equal-dims": (lambda: set_equal(SQUARE, CUBE), DimensionMismatch),
    "set-equal-zero-tol": (lambda: set_equal(SQUARE, SHIFTED, 0.0), BadTolerance),
    "set-equal-negative-tol": (lambda: set_equal(SQUARE, SHIFTED, -1.0), BadTolerance),
    "extreme-points-flat": (lambda: extreme_points([1.0, 2.0]), DimensionMismatch),
    "extreme-points-ragged": (lambda: extreme_points([[0, 0], [1]]), DimensionMismatch),
    "extreme-points-non-numeric": (lambda: extreme_points([["a", "b"], ["c", "d"]]), BadNumber),
    "support-non-numeric": (lambda: support(SQUARE, ["x", 1]), BadNumber),
    "is-exposed-non-numeric": (lambda: is_exposed(SQUARE, ["x", 0]), BadNumber),
    "exposed-point-zero-eps": (lambda: exposed_point_near(SQUARE, [1, 0], 0.0), BadTolerance),
    "exposed-diameter-zero-eps": (
        lambda: exposed_diameter_near(SQUARE, [1, 0], 0.0), BadTolerance
    ),
    "detect-homothety-dims": (lambda: detect_homothety(SQUARE, CUBE), DimensionMismatch),
    "support-direction-length": (lambda: support(SQUARE, [1, 0, 0]), DimensionMismatch),
    "exposed-point-direction-length": (
        lambda: exposed_point_near(SQUARE, [1, 0, 0], 0.1), DimensionMismatch
    ),
    "exposed-diameter-direction-length": (
        lambda: exposed_diameter_near(CUBE, [1, 0], 0.1), DimensionMismatch
    ),
    "minkowski-dims": (lambda: minkowski_sum(SQUARE, CUBE), DimensionMismatch),
    "project-frame-ambient": (
        lambda: project_polytope(SQUARE, random_frame(3, 2, 0)), DimensionMismatch
    ),
    "orthonormalize-empty": (lambda: orthonormalize([]), EmptyInput),
    "orthonormalize-too-many": (
        lambda: orthonormalize([[1, 0], [0, 1], [1, 1]]), DependentInput
    ),
    "orthonormalize-non-numeric": (lambda: orthonormalize([["a", 0, 0]]), BadNumber),
    "orthonormalize-ragged": (lambda: orthonormalize([[1, 0], [0]]), DimensionMismatch),
    "frame-3d-basis": (lambda: Frame(np.zeros((1, 2, 3))), BadDims),
    "frame-non-numeric": (lambda: Frame([["a", 0, 0]]), BadNumber),
    "frame-ragged": (lambda: Frame([[1, 0], [0]]), DimensionMismatch),
    "spec-not-2x2": (lambda: ParaboloidSpec(np.eye(3)), BadDims),
    "spec-non-numeric": (lambda: ParaboloidSpec([["a", 0], [0, 1]]), BadNumber),
    "spec-ragged": (lambda: ParaboloidSpec([[1, 0], [0]]), DimensionMismatch),
    "shadow-support-direction-length": (
        lambda: shadow_support(ParaboloidSpec(np.eye(2)), random_frame(3, 2, 0), [1, 0, 0]),
        DimensionMismatch,
    ),
    "sweep-ambient-dims": (lambda: verify_theorem1(SQUARE, CUBE, 2, 1, 0), BadDims),
    "top-level-array": (lambda: files.polytope_from_text("[[0, 0]]"), FormatError),
    "frame-basis-shape": (
        lambda: files.frame_from_text('{"ambient_dim": 3, "sub_dim": 2, "basis": [[1, 0, 0]]}'),
        FormatError,
    ),
    "perturbation-exhausted": (
        lambda: exposed_point_near(SQUARE, [0, 1], 1e-300), PerturbationFailed
    ),
    # the pair paths, ``exposed_diameters`` and ``_screen``, own the singleton refusal
    "antipodal-singleton": (lambda: antipodally_exposed_points(POINT), SingletonInput),
    "no-parallel-singleton": (lambda: verify_no_parallel_diameters(POINT), SingletonInput),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(CASES))
def test_refusal_raises_its_own_type(case):
    call, error = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_number_and_tolerance_refusals_stay_value_errors():
    # callers that caught the bare ValueError these inputs raised before still catch them
    for call in (
        lambda: support(SQUARE, ["x", 1]),
        lambda: exposed_point_near(SQUARE, [1, 0], 0),
        lambda: Frame([["a", 0, 0]]),
        lambda: orthonormalize([["a", 0, 0]]),
        lambda: ParaboloidSpec([["a", 0], [0, 1]]),
    ):
        with pytest.raises(ValueError):
            call()


@pytest.mark.filterwarnings("error")
def test_branches_that_answer_instead_of_refusing():
    assert set_equal(SQUARE, extreme_points([[0, 0], [1, 0], [0, 1]])) is False
    identity, stretched = ParaboloidSpec(np.eye(2)), ParaboloidSpec(np.diag([2.0, 1.0]))
    assert paraboloid_homothetic(identity, stretched) is None
    flag, witness, margin = is_exposed(POINT, [3.0, 4.0])
    assert (flag, witness.tolist(), margin) == (True, [1.0, 0.0], math.inf)
