"""Orthonormal frames and orthogonal projection onto linear subspaces.

A subspace is always represented by a Frame: an explicit orthonormal basis
stored as rows. Projection returns coordinates in that basis, so a projected
point lives in R^m, not as an embedded point of R^n.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDims, DependentInput, DimensionMismatch, EmptyInput

GRAM_TOL = 1e-12
RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal basis (rows) of an m-dimensional subspace of R^n."""

    basis: np.ndarray

    def __post_init__(self):
        B = np.ascontiguousarray(np.atleast_2d(np.asarray(self.basis, dtype=float)))
        if B.ndim != 2 or B.shape[0] < 1 or B.shape[0] > B.shape[1]:
            raise BadDims(f"bad basis shape {B.shape}")
        gram = B @ B.T
        if not np.max(np.abs(gram - np.eye(B.shape[0]))) <= GRAM_TOL:
            raise DependentInput("basis rows are not orthonormal")
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @property
    def ambient_dim(self):
        return self.basis.shape[1]

    @property
    def sub_dim(self):
        return self.basis.shape[0]


def orthonormalize(vectors):
    """Orthonormalize independent vectors into a Frame spanning the same space.

    Modified Gram-Schmidt with a re-orthogonalization pass. Raises
    DependentInput when the numerical rank (tolerance RANK_TOL relative to
    the largest input norm) is below the vector count, or an entry is not finite.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    if V.size == 0:
        raise EmptyInput("no vectors to orthonormalize")
    if V.shape[0] > V.shape[1]:
        raise DependentInput("more vectors than ambient dimension")
    max_norm = float(np.max(np.linalg.norm(V, axis=1)))
    if max_norm == 0.0:
        raise DependentInput("zero input vector")
    rows = []
    for v in V:
        w = v.astype(float).copy()
        for _ in range(2):
            for r in rows:
                w -= (w @ r) * r
        norm = np.linalg.norm(w)
        if not norm > RANK_TOL * max_norm:
            raise DependentInput("numerically dependent input vectors")
        rows.append(w / norm)
    return Frame(np.array(rows))


def project_point(frame, p):
    """Coordinates of the orthogonal projection of p in the frame basis."""
    p = np.asarray(p, dtype=float)
    if p.shape != (frame.ambient_dim,):
        raise DimensionMismatch(
            f"point of length {p.shape} vs ambient dimension {frame.ambient_dim}"
        )
    return frame.basis @ p


def random_frame(n, m, seed):
    """Random m-frame in R^n: orthonormalized standard-normal rows.

    Deterministic for a fixed seed; the distribution is rotation invariant.
    """
    if not 1 <= m <= n:
        raise BadDims(f"need 1 <= m <= n, got m={m}, n={n}")
    return _extend(np.empty((0, n)), m, seed)


def frame_containing(sub, m, seed):
    """Random m-frame whose row space contains the given frame's row space."""
    n = sub.ambient_dim
    if not sub.sub_dim <= m <= n:
        raise BadDims(f"need sub_dim <= m <= n, got {sub.sub_dim}, m={m}, n={n}")
    if m == sub.sub_dim:
        return sub
    return _extend(sub.basis, m, seed)


def _extend(head, m, seed):
    """Frame of head's rows and m - len(head) seeded normal rows, redrawn while dependent."""
    rng = np.random.default_rng(seed)
    for _ in range(16):
        extra = rng.standard_normal((m - head.shape[0], head.shape[1]))
        try:
            return orthonormalize(np.concatenate([head, extra]))
        except DependentInput:
            continue
    raise DependentInput("random sampling kept producing dependent vectors")
