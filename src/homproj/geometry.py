"""Orthonormal frames and orthogonal projection onto linear subspaces.

A subspace is always represented by a Frame: an explicit orthonormal basis
stored as rows. Projection returns coordinates in that basis, so a projected
point lives in R^m, not as an embedded point of R^n.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDims, DependentInput, DimensionMismatch, EmptyInput
from .lp import _binade

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
        if not _orthonormal(B[None])[0]:
            raise DependentInput("basis rows are not orthonormal")
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @property
    def ambient_dim(self):
        return self.basis.shape[1]

    @property
    def sub_dim(self):
        return self.basis.shape[0]


def _orthonormal(B):
    """ok[s] iff the rows of B[s] are orthonormal within GRAM_TOL: the Gram check of a stack."""
    gram = np.matmul(B, B.transpose(0, 2, 1))
    return np.abs(gram - np.eye(B.shape[1])).max(axis=(1, 2)) <= GRAM_TOL


def _gram_schmidt(V):
    """(Q, ok): ``orthonormalize`` of each entry of an (S, k, n) stack, at its ``_binade`` scale.

    Stacked (1, n) by (n, 1) matmuls give each entry the bits of its own 1-D ``w @ r``.
    ok[s] is False where entry s is dependent or not finite.
    """
    V, _, big = _binade(V, (1, 2))
    ok = np.isfinite(big[:, 0, 0])
    V = np.where(ok[:, None, None], V, 0.0)
    tol = RANK_TOL * np.sqrt((V * V).sum(axis=2)).max(axis=1)
    for i in range(V.shape[1]):  # rows before i are done, row i is w
        w = V[:, i]
        for _ in range(2):
            for j in range(i):
                w -= np.matmul(w[:, None, :], V[:, j, :, None])[:, 0] * V[:, j]
        norm = np.sqrt(np.matmul(w[:, None, :], w[:, :, None]))[:, 0, 0]
        ok &= norm > tol
        w /= np.where(ok, norm, 1.0)[:, None]
    return V, ok


def orthonormalize(vectors):
    """Orthonormalize independent vectors into a Frame spanning the same space.

    Modified Gram-Schmidt with a re-orthogonalization pass (one entry of ``_gram_schmidt``).
    Raises DependentInput when the numerical rank (tolerance RANK_TOL relative to the
    largest input norm) is below the vector count, or an entry is not finite.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    if V.size == 0:
        raise EmptyInput("no vectors to orthonormalize")
    if V.shape[0] > V.shape[1]:
        raise DependentInput("more vectors than ambient dimension")
    Q, ok = _gram_schmidt(V[None])
    if not ok[0]:
        raise DependentInput("numerically dependent input vectors")
    return Frame(Q[0])


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
    return Frame(_extend(np.empty((0, n)), m, [seed])[0])


def frame_containing(sub, m, seed):
    """Random m-frame whose row space contains the given frame's row space."""
    n = sub.ambient_dim
    if not sub.sub_dim <= m <= n:
        raise BadDims(f"need sub_dim <= m <= n, got {sub.sub_dim}, m={m}, n={n}")
    if m == sub.sub_dim:
        return sub
    return Frame(_extend(sub.basis, m, [seed])[0])


def _extend(head, m, seeds):
    """(S, m, n) bases: head's rows and m - len(head) normal rows from each seed's own rng,
    which alone redraws an entry that is dependent or fails the Gram check (16 tries)."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    k, n = head.shape
    B = np.empty((len(rngs), m, n))
    B[:, :k] = head
    todo = np.arange(len(rngs))
    for _ in range(16):
        for s in todo.tolist():
            B[s, k:] = rngs[s].standard_normal((m - k, n))
        Q, ok = _gram_schmidt(B[todo])
        ok &= _orthonormal(Q)
        B[todo[ok]] = Q[ok]
        todo = todo[~ok]
        if not todo.size:
            return B
    raise DependentInput("random sampling kept producing dependent vectors")
