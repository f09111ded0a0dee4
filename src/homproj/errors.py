"""Exception types raised by the kernel and the file readers."""


class KernelError(Exception):
    """Base class for all errors raised by homproj operations."""


class EmptyInput(KernelError):
    """An operation that needs at least one point got none."""


class DimensionMismatch(KernelError):
    """Operands live in different ambient dimensions."""


class BadDims(KernelError):
    """Requested subspace/ambient dimensions are out of range."""


class DependentInput(KernelError):
    """Vectors expected to be linearly independent are not (numerical rank test)."""


class ZeroDirection(KernelError):
    """A direction vector is zero, not finite, or not unit where a unit vector is required."""


class NotAVertex(KernelError):
    """The queried point is not a vertex of the polytope."""


class SingletonInput(KernelError):
    """The operation needs a polytope with more than one vertex."""


class PerturbationFailed(KernelError):
    """Seeded perturbation retries exhausted without an admissible witness."""


class ZeroLambda(KernelError):
    """Homothety ratio must be nonzero."""


class BadTolerance(KernelError, ValueError):
    """A tolerance argument must be positive and finite."""


class MixedVariants(KernelError):
    """A full-plane region was paired with a parabola region."""


class FormatError(KernelError):
    """Base class for file-format problems."""


class MissingField(FormatError):
    """A required field is absent from an input document."""


class BadNumber(FormatError, ValueError):
    """A number is not finite, or points leave the coordinate range (read or computed)."""
