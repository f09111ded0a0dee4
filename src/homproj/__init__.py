"""Convex-geometry kernel: exposed diameters, orthogonal projections, and
homothety detection for compact convex sets in V-representation, plus a
verification harness for the projection/homothety statements it implements.
"""

from .errors import (
    BadDims,
    BadNumber,
    BadTolerance,
    DependentInput,
    DimensionMismatch,
    EmptyInput,
    FormatError,
    KernelError,
    MissingField,
    MixedVariants,
    NotAVertex,
    PerturbationFailed,
    SingletonInput,
    ZeroDirection,
    ZeroLambda,
)
from .exposed import (
    ExposedDiameter,
    antipodally_exposed_points,
    exposed_diameter_near,
    exposed_diameters,
    exposed_point_near,
    is_exposed,
)
from .geometry import Frame, frame_containing, orthonormalize, project_point, random_frame
from .homothety import HomothetyResult, apply_homothety, detect_homothety, set_equal
from .lp import BACKEND
from .paraboloid import (
    ParabolaRegion,
    ParaboloidSpec,
    parabola_homothety,
    paraboloid_homothetic,
    project_paraboloid,
)
from .polytope import (
    Polytope,
    SupportResult,
    diameter,
    extreme_points,
    extreme_points_many,
    minkowski_sum,
    negate,
    project_polytope,
    random_polytope,
    support,
)
from .verify import (
    Report,
    verify_corollary1,
    verify_diameter_transfer,
    verify_example1,
    verify_no_parallel_diameters,
    verify_theorem1,
    verify_theorem2,
)

__version__ = "0.1.0"
