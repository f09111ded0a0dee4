"""Orthonormal frames and orthogonal projection onto linear subspaces.

A subspace is always represented by a Frame: an explicit orthonormal basis
stored as rows. Projection returns coordinates in that basis, so a projected
point lives in R^m, not as an embedded point of R^n.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadDims, BadNumber, DependentInput, EmptyInput
from .lp import _binade, _dots, _floats, _vector

GRAM_TOL = 1e-12
RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal basis (rows) of an m-dimensional subspace of R^n."""

    basis: np.ndarray

    def __post_init__(self):
        B = np.ascontiguousarray(np.atleast_2d(_floats(self.basis, "basis")))
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

    Every dot product and norm is a ``_dots`` row product. ok[s] is False where entry s is
    dependent or not finite.
    """
    V, _, big = _binade(V, (1, 2))
    ok = np.isfinite(big[:, 0, 0])
    V = np.where(ok[:, None, None], V, 0.0)
    tol = RANK_TOL * np.sqrt((V * V).sum(axis=2)).max(axis=1)
    for i in range(V.shape[1]):  # rows before i are done, row i is w
        w = V[:, i]
        for _ in range(2):
            for j in range(i):
                w -= _dots(w, V[:, j])[:, None] * V[:, j]
        norm = np.sqrt(_dots(w, w))
        ok &= norm > tol
        w /= np.where(ok, norm, 1.0)[:, None]
    return V, ok


def orthonormalize(vectors):
    """Orthonormalize independent vectors into a Frame spanning the same space.

    Modified Gram-Schmidt with a re-orthogonalization pass (one entry of ``_gram_schmidt``).
    Raises DependentInput when the numerical rank (tolerance RANK_TOL relative to the
    largest input norm) is below the vector count, or an entry is not finite.
    """
    V = np.atleast_2d(_floats(vectors, "vectors"))
    if V.size == 0:
        raise EmptyInput("no vectors to orthonormalize")
    if V.shape[0] > V.shape[1]:
        raise DependentInput("more vectors than ambient dimension")
    Q, ok = _gram_schmidt(V[None])
    if not ok[0]:
        raise DependentInput("numerically dependent input vectors")
    return Frame(Q[0])


def project_point(frame, p):
    """Coordinates of the orthogonal projection of p in the frame basis; BadNumber unless finite."""
    with np.errstate(all="ignore"):  # a non-finite point, or an overflow, fails the check
        q = frame.basis @ _vector(p, frame.ambient_dim, "point")
    if not np.isfinite(q).all():
        raise BadNumber("non-finite point coordinates or projection")
    return q


def random_frame(n, m, seed):
    """Random m-frame in R^n: orthonormalized standard-normal rows.

    Deterministic for a fixed seed, a non-negative int: the rows are drawn from
    ``np.random.default_rng(seed)``. The distribution is rotation invariant.
    """
    if not 1 <= m <= n:
        raise BadDims(f"need 1 <= m <= n, got m={m}, n={n}")
    return Frame(_extend(np.empty((0, n)), m, _words([seed]))[0])


def frame_containing(sub, m, seed):
    """Random m-frame whose row space contains the given frame's row space."""
    n = sub.ambient_dim
    if not sub.sub_dim <= m <= n:
        raise BadDims(f"need sub_dim <= m <= n, got {sub.sub_dim}, m={m}, n={n}")
    if m == sub.sub_dim:
        return sub
    return Frame(_extend(sub.basis, m, _words([seed]))[0])


def _powers(init, mult, count):
    """init * mult^k mod 2^32 for k < count: the running multipliers of numpy's seed hashes."""
    return np.cumprod([init] + [mult] * (count - 1), dtype=np.uint32)[:, None]


# numpy's SeedSequence, pool of 4 words: hash k xors with _POOL[k] and multiplies by _POOL[k + 1].
# Hashes 0-3 fill the pool; in round r, hashes 4 + 3r.. of word r mix into the other words in
# ascending order, listed here in the rotated order r + 1, r + 2, r + 3 (mod 4) of the pool rows.
_POOL = _powers(0x43B0D7E5, 0x931E8875, 17)
_ROUNDS = 4 + 3 * np.arange(4)[:, None] + [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2]]
_ROUND_HASHES = list(zip(_POOL[_ROUNDS], _POOL[_ROUNDS + 1]))
_STATE = _powers(0x8B51F9DD, 0x58F38DED, 9)  # the hashes of generate_state, up to 8 words
_MIX = np.uint32([0xCA01F9DD, 0x4973F715])


def _hash(x, xor, mul):
    x = (x ^ xor) * mul
    x ^= x >> 16
    return x


def _mix(x, h):
    x = x * _MIX[0] - h * _MIX[1]
    x ^= x >> 16
    return x


def _seed_state(entropy, n_words):
    """(S, n_words) uint32: ``SeedSequence(row).generate_state(n_words)`` for each row of the
    (S, W) uint32 ``entropy``, n_words <= 8: each hash is one op on (k, S) rows of the pool."""
    E = entropy.T
    pool = np.zeros((4, E.shape[1]), np.uint32)
    pool[: len(E)] = E[:4]
    pool = _hash(pool, _POOL[:4], _POOL[1:5])
    for xor, mul in _ROUND_HASHES:  # word r at row 0, rotated to the end after its round
        pool = np.concatenate([_mix(pool[1:], _hash(pool[0], xor, mul)), pool[:1]])
    if len(E) > 4:  # each word past the pool's four mixes into all four, hashes 16 + 4k..
        more = _powers(int(_POOL[16, 0]), 0x931E8875, 4 * len(E) - 15)
        for k, e in enumerate(E[4:]):
            pool = _mix(pool, _hash(e, more[4 * k : 4 * k + 4], more[4 * k + 1 : 4 * k + 5]))
    return _hash(np.tile(pool, (2, 1))[:n_words], _STATE[:n_words], _STATE[1 : n_words + 1]).T


def _words(seeds):
    """(S, W) uint32 words of non-negative int seeds of one word count, as numpy splits them."""
    from numpy.random.bit_generator import _coerce_to_uint32_array

    return np.array([_coerce_to_uint32_array(s) for s in seeds], dtype=np.uint32)


@functools.cache
def _stated():
    """ISeedSequence that hands PCG64 its given ``generate_state(4, uint64)``, all that PCG64
    seeding reads. Made on first use: importing numpy.random costs ``import homproj`` ~12 ms."""
    from numpy.random.bit_generator import ISeedSequence

    class Stated(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise NotImplementedError("PCG64 seeding changed")
            return self.words

    return Stated


def _rngs(words):
    """``np.random.default_rng(seed)`` for each seed, bit for bit, from one ``_seed_state`` pass
    over the (S, W) uint32 words of the seeds (``_words``)."""
    from numpy.random import PCG64, Generator

    w = _seed_state(words, 8).astype(np.uint64)
    state, stated = np.ascontiguousarray(w[:, ::2] | w[:, 1::2] << 32), _stated()
    return [Generator(PCG64(stated(row))) for row in state]  # row: generate_state(4, uint64)


def _extend(head, m, words):
    """(S, m, n) bases: head's rows and m - len(head) normal rows from each seed's own rng,
    which alone redraws an entry that is dependent or fails the Gram check (16 tries).
    The seeds are the rows of the (S, W) uint32 ``words``; the rngs are ``_rngs(words)``."""
    rngs = _rngs(words)
    k, n = head.shape
    B = np.empty((len(rngs), m, n))
    B[:, :k] = head
    todo = np.arange(len(rngs))
    for _ in range(16):
        for s in todo.tolist():
            rngs[s].standard_normal(out=B[s, k:])
        Q, ok = _gram_schmidt(B[todo])
        ok &= _orthonormal(Q)
        B[todo[ok]] = Q[ok]
        todo = todo[~ok]
        if not todo.size:
            return B
    raise DependentInput("random sampling kept producing dependent vectors")


def _frames(n, m, sub, samples, seed):
    """(samples, m, n) basis stack of a sweep: entry i is ``random_frame(n, m, s_i)``, or
    ``frame_containing(sub, m, s_i)`` unless sub is None (m > dim sub), where the seed is a
    non-negative int and s_i = ``SeedSequence([seed, i]).generate_state(1)[0]``."""
    if samples < 1:
        raise BadDims("samples must be >= 1")
    head = np.empty((0, n)) if sub is None else sub.basis
    words = _words([seed])
    entropy = np.empty((samples, words.shape[1] + 1), np.uint32)
    entropy[:, :-1], entropy[:, -1] = words, np.arange(samples)
    return _extend(head, m, _seed_state(entropy, 1))  # (S, 1) words: the s_i themselves
