"""The lockstep batch simplex against a frozen copy of the scalar loop.

The parity contract is per LP: every program of a batch must give, byte for
byte (signed zeros included), the status, objective and x that the scalar
Bland's-rule loop gives for it alone, and the hull and diameter routines
built on the batch must return the bytes of their one-LP-at-a-time form.
"""

import numpy as np
import pytest

import homproj as hp
from homproj import _simplex_py
from homproj._simplex_py import OPTIMAL, UNBOUNDED, simplex_maximize_batch
from homproj.lp import margin_directions
from homproj.polytope import _canonical_sort, _distances
from homproj.verify import _subseed


def _scalar_simplex(A, b, c, tol):
    """Frozen copy of the seed's scalar ``simplex_maximize``: the reference."""
    A = np.ascontiguousarray(A, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    c = np.ascontiguousarray(c, dtype=float)
    m, n = A.shape
    ncols = n + m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = A
    T[:m, n:ncols] = np.eye(m)
    T[:m, ncols] = b
    T[m, :n] = -c
    basis = list(range(n, ncols))

    while True:
        col = -1
        for j in range(ncols):
            if T[m, j] < -tol:
                col = j
                break
        if col < 0:
            break
        row = -1
        best = 0.0
        for i in range(m):
            a = T[i, col]
            if a > tol:
                ratio = T[i, ncols] / a
                if row < 0 or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row = i
                    best = ratio
        if row < 0:
            return UNBOUNDED, 0.0, np.zeros(n)
        piv = T[row, col]
        T[row, :] /= piv
        for i in range(m + 1):
            if i != row:
                f = T[i, col]
                if f != 0.0:
                    T[i, :] -= f * T[row, :]
                    T[i, col] = 0.0
        basis[row] = col

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, ncols]
    return OPTIMAL, T[m, ncols], x


def _margin_program(D):
    """The seed's margin-LP assembly for one direction list: (A, b, c, tol)."""
    m, n = D.shape
    nv = 2 * n + 1
    A = np.zeros((m + 2 * n, nv))
    A[:m, :n] = -D
    A[:m, n : 2 * n] = D
    A[:m, 2 * n] = 1.0
    A[m : m + n, :n] = np.eye(n)
    A[m + n :, n : 2 * n] = np.eye(n)
    b = np.concatenate([np.zeros(m), np.ones(2 * n)])
    c = np.zeros(nv)
    c[2 * n] = 1.0
    return A, b, c, 1e-9 * max(1.0, float(np.abs(D).max()))


def _scalar_margin(D):
    """The seed's ``margin_direction`` on the scalar reference loop."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    n = D.shape[1]
    status, obj, x = _scalar_simplex(*_margin_program(D))
    assert status == OPTIMAL
    return obj, x[:n] - x[n : 2 * n]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _assert_batch_matches(A, b, c, tol):
    """simplex_maximize_batch equals the scalar loop on every program; returns
    the reference results."""
    status, obj, x = simplex_maximize_batch(A, b, c, tol)
    ref = [_scalar_simplex(A[k], b[k], c, tol[k]) for k in range(len(A))]
    for k, (s, o, xk) in enumerate(ref):
        assert status[k] == s, k
        assert _bits(obj[k]) == _bits(o), k
        assert _bits(x[k]) == _bits(xk), k
    return ref


def _margin_batch(Ds):
    programs = [_margin_program(D) for D in Ds]
    A = np.array([p[0] for p in programs])
    b = np.array([p[1] for p in programs])
    tol = np.array([p[3] for p in programs])
    return A, b, programs[0][2], tol


def _margin_corpus(rng, count, m, n):
    """Direction lists of four kinds, in turn: origin-surrounded Gaussian rows,
    strictly separable rows, and both with coordinates rounded to 0.1 so that
    ratio ties and degenerate pivots are common."""
    out = []
    for k in range(count):
        D = rng.standard_normal((m, n))
        if k % 2:
            D[:, 0] = np.abs(D[:, 0]) + 0.05
        if k % 4 >= 2:
            D = np.round(D, 1)
        out.append(D)
    return np.array(out)


@pytest.mark.parametrize(
    "count, m, n",
    [
        (1, 11, 3),  # B = 1
        (7, 1, 2),
        (200, 11, 3),  # 18 x 25 tableaux: 72 per chunk, so three chunks
        (300, 22, 4),
        (150, 15, 3),
        (100, 5, 2),
        (60, 42, 3),  # difference-body sized
    ],
)
def test_batch_matches_scalar_on_margin_lps(count, m, n):
    rng = np.random.default_rng(1000 * m + n)
    Ds = _margin_corpus(rng, count, m, n)
    A, b, c, tol = _margin_batch(Ds)
    _assert_batch_matches(A, b, c, tol)
    deltas, us = margin_directions(Ds)
    for k, D in enumerate(Ds):
        delta, u = _scalar_margin(D)
        assert _bits(deltas[k]) == _bits(delta)
        assert _bits(us[k]) == _bits(u)


def test_batch_matches_scalar_across_small_chunks(monkeypatch):
    # one direction in R^1 gives 4 x 7 tableaux, two per 80-cell chunk: 41
    # programs leave a partial last chunk
    monkeypatch.setattr(_simplex_py, "CHUNK_CELLS", 80)
    rng = np.random.default_rng(5)
    Ds = _margin_corpus(rng, 41, 1, 1)
    _assert_batch_matches(*_margin_batch(Ds))


def test_batch_mixes_unbounded_and_optimal():
    # general programs; rows with b = -0.0 start degenerate and carry signed
    # zeros into x, which the byte comparison must see. Every other A is
    # rounded to 0.1, which leaves -0.0 pivot-column entries: subtracting
    # (-0.0) * (pivot row) would turn such a -0.0 in b into +0.0.
    rng = np.random.default_rng(11)
    negative_zeros = 0
    for m, n in ((6, 4), (3, 5), (4, 2), (8, 3)):
        B = 150
        A = rng.standard_normal((B, m, n))
        A[::2] = np.round(A[::2], 1)
        b = rng.uniform(0.0, 2.0, (B, m))
        b[::3, : m // 2] = -0.0
        c = rng.standard_normal(n)
        ref = _assert_batch_matches(A, b, c, np.full(B, 1e-9))
        assert {s for s, _, _ in ref} == {OPTIMAL, UNBOUNDED}, (m, n)
        x = np.concatenate([xk for _, _, xk in ref])
        negative_zeros += np.count_nonzero((x == 0.0) & np.signbit(x))
    assert negative_zeros > 0


def test_batch_without_rows():
    for c in ([1.0, -1.0], [-1.0, -2.0]):
        _assert_batch_matches(np.zeros((3, 0, 2)), np.zeros((3, 0)), np.array(c), np.full(3, 1e-9))


def _scalar_extreme_points(points):
    """The seed's ``extreme_points``: one np.delete and one scalar LP per point."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    scale = max(1.0, _distances(P).max())
    tol = 1e-9 * scale
    kept = []
    for p in P:
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    V = np.array(kept)
    if V.shape[0] > 1:
        extreme = []
        for i in range(V.shape[0]):
            delta, _ = _scalar_margin(V[i] - np.delete(V, i, axis=0))
            if delta > tol:
                extreme.append(V[i])
        V = np.array(extreme)
    return _canonical_sort(V, scale)


def _scalar_exposed_diameters(P):
    """The seed's ``exposed_diameters`` as (i, j, witness, margins) tuples."""
    V = P.vertices
    k = V.shape[0]
    tol = 1e-9 * max(1.0, hp.diameter(P))
    out = []
    for i in range(k):
        max_rows = V[i] - np.delete(V, i, axis=0)
        for j in range(i + 1, k):
            min_rows = np.delete(V, j, axis=0) - V[j]
            delta, u = _scalar_margin(np.vstack([max_rows, min_rows]))
            if delta <= tol:
                continue
            u = u / np.linalg.norm(u)
            hi = hp.support(P, u)
            lo = hp.support(P, -u)
            if hi.face != (i,) or lo.face != (j,):
                continue
            out.append((V[i], V[j], u, hi.margin, lo.margin))
    return out


def _corpus_1_2():
    """Every 5th polytope of the criteria 1 and 2 corpus, plus their fixtures."""
    out = [hp.random_polytope(n, 12, 1000 * n + i) for n in (2, 3, 4) for i in range(0, 100, 5)]
    out.append(hp.extreme_points([[0, 0], [1, 0], [0, 1], [1, 1]]))
    out.append(hp.extreme_points([[0, 0], [1, 0], [0, 1]]))
    out.append(hp.extreme_points([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]))
    out.append(hp.extreme_points(np.vstack([np.eye(3), -np.eye(3)])))
    return out


def test_hulls_match_scalar_on_acceptance_corpora():
    # criteria 1 and 2: the random polytopes from their raw samples
    for n in (2, 3, 4):
        for i in range(0, 100, 5):
            points = np.random.default_rng(1000 * n + i).standard_normal((12, n))
            assert hp.extreme_points(points).vertices.tobytes() == (
                _scalar_extreme_points(points).tobytes()
            )
    # criterion 5: its polytopes, their homothetic images and the shadows of
    # both on the first frames that verify_theorem1 samples
    rng = np.random.default_rng(55)
    for n in (3, 4):
        for pair in range(20):
            seed = 7000 + 100 * n + pair
            z = rng.standard_normal(n)
            lam = float(rng.uniform(0.1, 10.0)) * (1 if pair % 2 else -1)
            if pair % 4:
                continue
            points = np.random.default_rng(seed).standard_normal((10, n))
            P = hp.extreme_points(points)
            assert P.vertices.tobytes() == _scalar_extreme_points(points).tobytes()
            P1 = hp.apply_homothety(P, z, lam)
            for m in range(2, n):
                for i in range(3):
                    frame = hp.random_frame(n, m, _subseed(10 * pair + m, i))
                    for Q in (P1, P):
                        shadow = Q.vertices @ frame.basis.T
                        assert hp.project_polytope(Q, frame).vertices.tobytes() == (
                            _scalar_extreme_points(shadow).tobytes()
                        )


def test_exposed_diameters_match_scalar_on_acceptance_corpora():
    for P in _corpus_1_2():
        got = hp.exposed_diameters(P)
        ref = _scalar_exposed_diameters(P)
        assert len(got) == len(ref)
        for d, (x, z, u, margin_max, margin_min) in zip(got, ref):
            assert d.x.tobytes() == x.tobytes()
            assert d.z.tobytes() == z.tobytes()
            assert d.witness.tobytes() == u.tobytes()
            assert _bits(d.margin_max) == _bits(margin_max)
            assert _bits(d.margin_min) == _bits(margin_min)
