"""The lockstep batch simplex against a frozen copy of the scalar loop.

The parity contract is per LP: every program of a batch must give, byte for
byte (signed zeros included), the status, objective and x that the scalar
Bland's-rule loop gives for it alone, and the hull and diameter routines
built on the batch must return the bytes of their one-LP-at-a-time form.
After every pivot, the numpy kernel's condensed tableau must hold the rhs and
nonbasic columns of a frozen copy of its full-tableau form.
A hull of a stack of point sets must not depend on the other sets, and a
projection sweep that hulls all its shadows at once must write the reports of
the per-frame sweep. Likewise the frames of a sweep, orthonormalized as one
stack, and the paraboloid shadows of example 1, taken as one stack, must carry
the bits of their frozen one-at-a-time forms. The Polytope constructor, which
sorts every polytope at its own scale, must give the order the callers' frozen
sorts gave, except on near-ties of the sort grid. The hull, sweep and
constructor oracles run on both LP kernels (the ``kernel`` fixture). Every separation
program and every stacked row product must carry the bytes of its frozen builder or
matmul, signed zeros included; a hull row that a frozen copy of the lone-face screen
certifies must send no program at all.
"""

import hashlib
import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homproj as hp
from homproj import _simplex_py, files, geometry, homothety, lp, verify
from homproj._simplex_py import CHUNK_CELLS, OPTIMAL, PIVOT_TOL, UNBOUNDED, simplex_maximize_batch
from homproj.errors import DependentInput
from homproj.geometry import GRAM_TOL, RANK_TOL
from homproj.lp import margin_directions
from homproj.paraboloid import AXIS_TOL, HORIZONTAL_TOL, _homotheties, _parabolas
from homproj.polytope import REL_TOL, _canonical_sort, _distances


def _subseed(seed, index):
    """Frozen seed of entry ``index`` of a sweep: the reference for ``geometry._frames``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


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


def _assert_batch_matches(A, b, c):
    """simplex_maximize_batch equals the scalar loop on every program; returns
    the reference results."""
    status, obj, x = simplex_maximize_batch(A, b, c)
    ref = [_scalar_simplex(A[k], b, c, PIVOT_TOL) for k in range(len(A))]
    for k, (s, o, xk) in enumerate(ref):
        assert status[k] == s, k
        assert _bits(obj[k]) == _bits(o), k
        assert _bits(x[k]) == _bits(xk), k
    return ref


def _margin_batch(Ds):
    programs = [_margin_program(D) for D in Ds]
    A = np.array([p[0] for p in programs])
    return A, programs[0][1], programs[0][2]


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


def _count_chunks(monkeypatch, A, per_chunk):
    """Caps ``CHUNK_CELLS`` at ``per_chunk`` condensed (m + 1) x (n + 1) tableaux of
    A's shape; returns the list that records the size of every chunk solved."""
    _, m, n = A.shape
    monkeypatch.setattr(_simplex_py, "CHUNK_CELLS", per_chunk * (m + 1) * (n + 1))
    sizes, solve = [], _simplex_py._solve_chunk

    def counted(A, *rest):
        sizes.append(len(A))
        solve(A, *rest)

    monkeypatch.setattr(_simplex_py, "_solve_chunk", counted)
    return sizes


MARGIN_CASES = [
    (1, 11, 3, None),  # B = 1
    (7, 1, 2, None),
    (200, 11, 3, 72),  # 72 tableaux per chunk: 72, 72 and a partial 56
    (300, 22, 4, None),
    (150, 15, 3, None),
    (100, 5, 2, None),
    (60, 42, 3, None),  # difference-body sized
]


@pytest.mark.parametrize(
    "count, m, n, per_chunk", MARGIN_CASES, ids=[f"{c}-{m}-{n}" for c, m, n, _ in MARGIN_CASES]
)
def test_batch_matches_scalar_on_margin_lps(monkeypatch, count, m, n, per_chunk):
    rng = np.random.default_rng(1000 * m + n)
    Ds = _margin_corpus(rng, count, m, n)
    A, b, c = _margin_batch(Ds)
    if per_chunk:
        sizes = _count_chunks(monkeypatch, A, per_chunk)
    _assert_batch_matches(A, b, c)
    if per_chunk:
        assert sizes == [per_chunk] * (count // per_chunk) + [count % per_chunk]
    deltas, us = margin_directions(Ds)
    for k, D in enumerate(Ds):
        delta, u = _scalar_margin(D)
        assert _bits(deltas[k]) == _bits(delta)
        assert _bits(us[k]) == _bits(u)


def test_batch_matches_scalar_across_small_chunks(monkeypatch):
    # one direction in R^1 gives 4 x 4 condensed tableaux, two per chunk: 41
    # programs leave a partial last chunk
    rng = np.random.default_rng(5)
    A, b, c = _margin_batch(_margin_corpus(rng, 41, 1, 1))
    sizes = _count_chunks(monkeypatch, A, 2)
    _assert_batch_matches(A, b, c)
    assert sizes == [2] * 20 + [1]


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
        b = rng.uniform(0.0, 2.0, m)
        b[: m // 2] = -0.0
        c = rng.standard_normal(n)
        ref = _assert_batch_matches(A, b, c)
        assert {s for s, _, _ in ref} == {OPTIMAL, UNBOUNDED}, (m, n)
        x = np.concatenate([xk for _, _, xk in ref])
        negative_zeros += np.count_nonzero((x == 0.0) & np.signbit(x))
    assert negative_zeros > 0


def test_pivot_tolerance_boundary_on_three_solvers(c_kernel):
    # reduced costs (-c) and pivot-column entries at exactly +-PIVOT_TOL and
    # one step to either side: the numpy kernel, the C kernel, which gets the
    # tolerance as an argument, and the scalar loop must draw the strict
    # "< -tol" and "> tol" lines at the same place
    edge = [np.nextafter(PIVOT_TOL, 0.0), PIVOT_TOL, np.nextafter(PIVOT_TOL, 1.0)]
    values = np.array(edge + [-v for v in edge] + [1.0])
    A = np.random.default_rng(3).choice(values, (300, 2, 2))
    b = np.array([1.0, 2.0])
    flips = {np.nextafter(PIVOT_TOL, 0.0): 0, np.nextafter(PIVOT_TOL, 1.0): 0}
    for c in itertools.product(values, repeat=2):
        c = np.array(c)
        ref = _assert_batch_matches(A, b, c)
        got = c_kernel.simplex_maximize_batch(A, b, c)
        assert [s for s, _, _ in ref] == got[0].tolist()
        assert _bits([o for _, o, _ in ref]) == _bits(got[1])
        assert _bits([xk for _, _, xk in ref]) == _bits(got[2])
        for tol in flips:
            flips[tol] += sum(
                _scalar_simplex(A[k], b, c, tol)[0] != s for k, (s, _, _) in enumerate(ref)
            )
    # a tolerance one step off either way changes some verdicts: the data
    # sits on the boundary
    assert all(flips.values()), flips


def _full_tableau_chunk(A, b, c, record):
    """Frozen copy of the full-tableau lockstep ``_solve_chunk``, which kept the m
    basic columns too; calls record(T, basis, slots) before every ratio test.
    Returns (status, obj, x)."""
    B, m, n = A.shape
    ncols = n + m
    T = np.zeros((B, m + 1, ncols + 1))
    T[:, :m, :n] = A
    T[:, np.arange(m), np.arange(n, ncols)] = 1.0
    T[:, :m, ncols] = b
    T[:, m, :n] = -c
    basis = np.broadcast_to(np.arange(n, ncols), (B, m)).copy()
    ids = np.arange(B)
    rows = np.arange(B)
    status, obj, x = np.full(B, OPTIMAL), np.zeros(B), np.zeros((B, n))

    while True:
        enter = T[:, m, :ncols] < -PIVOT_TOL
        has_col = enter.any(axis=1)
        col = enter.argmax(axis=1)
        record(T, basis, ids)

        a = T[rows, :m, col]
        eligible = (a > PIVOT_TOL) & has_col[:, None]
        ratio = np.divide(T[:, :m, ncols], a, out=np.full_like(a, np.inf), where=eligible)
        tied = eligible & (ratio == ratio.min(axis=1)[:, None])
        row = np.where(tied, basis, ncols).argmin(axis=1)
        has_row = tied.any(axis=1)

        if not has_row.all():
            optimal = ~has_col
            obj[ids[optimal]] = T[optimal, -1, -1]
            lp_, i = np.nonzero(basis[optimal] < n)
            x[ids[optimal][lp_], basis[optimal][lp_, i]] = T[optimal][lp_, i, -1]
            status[ids[has_col & ~has_row]] = UNBOUNDED
            T, basis, ids = T[has_row], basis[has_row], ids[has_row]
            col, row = col[has_row], row[has_row]
            if not ids.size:
                return status, obj, x
            rows = np.arange(ids.size)

        prow = T[rows, row] / T[rows, row, col][:, None]
        T[rows, row] = prow
        f = T[rows, :, col]
        f[rows, row] = 0.0
        np.subtract(T, f[:, :, None] * prow[:, None, :], out=T, where=(f != 0.0)[:, :, None])
        basis[rows, row] = col


class _CondensedSnapshots:
    """Stands in for numpy inside ``_simplex_py``: each ``np.divide`` call, the
    ratio test of one lockstep iteration, records the caller's condensed
    tableaux ``T`` and labels ``lab`` (basic variable of each row, variable of
    each column, output slot) under their output slots."""

    def __init__(self):
        self.by_slot = {}

    def __getattr__(self, name):
        return getattr(np, name)

    def divide(self, *args, **kwargs):
        frame = sys._getframe(1).f_locals
        for T, lab in zip(frame["T"], frame["lab"]):
            self.by_slot.setdefault(int(lab[-1]), []).append((T.copy(), lab[:-1].copy()))
        return np.divide(*args, **kwargs)


def _general_programs(rng, m, n, signed_zeros_in_A):
    """150 programs A x <= b, x >= 0: Gaussian A, every other one rounded to 0.1
    (ratio ties, degenerate pivots); b with -0.0 rows; c rounded on half the draws.
    Without ``signed_zeros_in_A`` the rounded zeros of A are all +0.0."""
    A = rng.standard_normal((150, m, n))
    A[::2] = np.round(A[::2], 1)
    if not signed_zeros_in_A:
        A += 0.0
    b = rng.uniform(0.0, 2.0, m)
    b[: m // 2] = -0.0
    c = rng.standard_normal(n)
    if rng.integers(2):
        c = np.round(c, 1)
    return A, b, c


@pytest.mark.parametrize("signed_zeros_in_A", [False, True])
def test_condensed_tableau_is_the_full_tableau_after_every_pivot(
    monkeypatch, c_kernel, signed_zeros_in_A
):
    # Each condensed tableau must hold, byte for byte, the rhs and the nonbasic
    # columns of the frozen full tableau after every pivot, and every basic
    # column of the full tableau must be a unit column. A -0.0 in A can survive
    # in a basic column of the full tableau where the condensed one puts back
    # +0.0; that zero's sign reaches no decision and no rhs entry, so there the
    # nonbasic columns must match in value, and in bytes away from zeros.
    rng = np.random.default_rng(19)
    re_entries = unbounded = zero_signs = 0
    for m, n in ((6, 4), (3, 5), (4, 2), (8, 3), (12, 6)):
        A, b, c = _general_programs(rng, m, n, signed_zeros_in_A)
        full = {}

        def record(T, basis, ids):
            for k, slot in enumerate(ids):
                full.setdefault(int(slot), []).append((T[k].copy(), basis[k].copy()))

        ref = _full_tableau_chunk(A, b, c, record)
        snapshots = _CondensedSnapshots()
        got = np.full(len(A), OPTIMAL), np.zeros(len(A)), np.zeros((len(A), n))
        with monkeypatch.context() as patch:
            patch.setattr(_simplex_py, "np", snapshots)
            _simplex_py._solve_chunk(A, b, c, *got)
        assert sorted(snapshots.by_slot) == sorted(full) == list(range(len(A)))
        for slot, steps in full.items():
            assert len(snapshots.by_slot[slot]) == len(steps), slot
            previous, left = None, set()  # basis before the pivot, every variable that left
            for (Tf, basis), (Tc, lab) in zip(steps, snapshots.by_slot[slot]):
                assert sorted(lab) == list(range(n + m))
                assert lab[:m].tolist() == basis.tolist()
                assert np.array_equal(Tf[:m, basis], np.eye(m)) and not Tf[m, basis].any()
                kept = Tf[:, np.append(lab[m:], n + m)]
                assert _bits(Tc[:, n]) == _bits(kept[:, n]), slot
                if signed_zeros_in_A:
                    assert np.array_equal(Tc, kept), slot
                    nonzero = kept != 0.0
                    assert _bits(Tc[nonzero]) == _bits(kept[nonzero]), slot
                    zero_signs += np.count_nonzero(np.signbit(Tc) != np.signbit(kept))
                else:
                    assert _bits(Tc) == _bits(kept), slot
                now = set(basis.tolist())
                if previous is not None:
                    re_entries += len((now - previous) & left)
                    left |= previous - now
                previous = now
        # the outputs: the frozen full tableau, the scalar loop and the C kernel
        for k in range(len(A)):
            s, o, xk = _scalar_simplex(A[k], b, c, PIVOT_TOL)
            assert (ref[0][k], _bits(ref[1][k]), _bits(ref[2][k])) == (s, _bits(o), _bits(xk))
        for one, other in zip(got, ref):
            assert _bits(one) == _bits(other)
        for one, other in zip(c_kernel.simplex_maximize_batch(A, b, c), ref):
            assert _bits(one) == _bits(other)
        unbounded += np.count_nonzero(ref[0] == UNBOUNDED)
    assert re_entries > 0 and unbounded > 0
    assert (zero_signs > 0) == signed_zeros_in_A


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


def _scalar_support(P, u):
    """Frozen copy of the per-direction ``support`` as (value, face, margin)."""
    norm_u = float(np.linalg.norm(u))
    vals = P.vertices @ u
    best = float(vals.max())
    on_face = vals >= best - 1e-9 * P.scale * norm_u
    off = vals[~on_face]
    margin = float(best - off.max()) if off.size else float("inf")
    return best, tuple(int(i) for i in np.flatnonzero(on_face)), margin


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
            _, hi_face, hi_margin = _scalar_support(P, u)
            _, lo_face, lo_margin = _scalar_support(P, -u)
            if hi_face != (i,) or lo_face != (j,):
                continue
            out.append((V[i], V[j], u, hi_margin, lo_margin))
    return out


def _corpus_1_2():
    """Every 5th polytope of the criteria 1 and 2 corpus, plus their fixtures."""
    out = [hp.random_polytope(n, 12, 1000 * n + i) for n in (2, 3, 4) for i in range(0, 100, 5)]
    out.append(hp.extreme_points([[0, 0], [1, 0], [0, 1], [1, 1]]))
    out.append(hp.extreme_points([[0, 0], [1, 0], [0, 1]]))
    out.append(hp.extreme_points([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]))
    out.append(hp.extreme_points(np.vstack([np.eye(3), -np.eye(3)])))
    return out


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_hulls_match_scalar_on_acceptance_corpora(kernel):
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


SET_KINDS = ("gauss", "grid", "near_duplicates", "collinear", "one_point")


def _point_set(rng, kind, k, n):
    """k points in R^n of one kind, at a random scale and offset."""
    X = rng.standard_normal((k, n))
    if kind == "grid":
        X = np.round(X)  # duplicates, collinear and coplanar points
    elif kind == "near_duplicates":
        # half the points copy another one, moved by 0 to 3 times the tolerance
        step = rng.standard_normal((k, n))
        step *= REL_TOL * np.ptp(X) * rng.uniform(0.0, 3.0, (k, 1)) / np.linalg.norm(
            step, axis=1, keepdims=True
        )
        copies = rng.random(k) < 0.5
        X[copies] = X[rng.integers(k, size=k)][copies] + step[copies]
    elif kind == "collinear":
        X = X[:1] + rng.standard_normal((k, 1)) * rng.standard_normal(n)
    elif kind == "one_point":
        X = np.repeat(X[:1], k, axis=0)
    return 10.0 ** rng.integers(-150, 151) * (X + 10.0 * rng.standard_normal(n))


@st.composite
def point_stacks(draw):
    """An (S, k, n) stack of point sets of mixed kinds and scales, or (ragged)
    a list of S sets with their own k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(SET_KINDS), min_size=1, max_size=8))
    if draw(st.booleans()):
        return [_point_set(rng, kind, int(rng.integers(1, 10)), n) for kind in kinds]
    k = draw(st.integers(1, 9))
    return np.array([_point_set(rng, kind, k, n) for kind in kinds])


@settings(max_examples=150, deadline=None)
@given(stack=point_stacks())
def test_many_hulls_match_one_hull_each(stack):
    hulls = hp.extreme_points_many(stack)
    assert len(hulls) == len(stack)
    for points, hull in zip(stack, hulls):
        alone = hp.extreme_points(points).vertices
        assert hull.vertices.shape == alone.shape
        assert hull.vertices.tobytes() == alone.tobytes()


def _frozen_sort(V, scale):
    """Frozen copy of the canonical sort as callers ran it before the constructor owned it."""
    cells = np.round((V - V.min(axis=0)) / (REL_TOL * scale))
    return V[np.lexsort(cells.T[::-1])]


def _frozen_hull_rows(points, hull):
    """(the hull's rows in input order, first copy of each; the input set's scale)."""
    rows, kept = {v.tobytes() for v in hull.vertices}, {}
    for p in points:
        if p.tobytes() in rows:
            kept.setdefault(p.tobytes(), p)
    return np.array(list(kept.values())), float(_distances(points).max()) or 1.0


def _matches_frozen_sort(P, rows, scale):
    """True if P.vertices has the bytes of the frozen sort of rows at scale. Else False, after
    checking that both orders hold the same rows and that every pair they order differently
    is a near-tie on the grid: under each scale its first differing cells are one apart, or
    none differs (the frozen sort then kept the input order, the constructor compares the
    coordinates)."""
    old = _frozen_sort(rows, scale)
    if P.vertices.tobytes() == old.tobytes():
        return True
    rank = {v.tobytes(): i for i, v in enumerate(P.vertices)}
    moved = [rank[v.tobytes()] for v in old]
    assert sorted(moved) == list(range(P.num_vertices))
    for s in (scale, P.scale):
        cells = np.round((P.vertices - P.vertices.min(axis=0)) / (REL_TOL * s))
        for a, b in itertools.combinations(range(len(moved)), 2):
            if moved[a] > moved[b]:
                step = (cells[moved[a]] - cells[moved[b]])[cells[moved[a]] != cells[moved[b]]]
                assert step.size == 0 or abs(step[0]) == 1
    return False


def _parity_set(rng, k, n):
    """k points in R^n at a scale in 1e-5..1e5: Gaussian, with a copy of the farthest point
    moved by 1 to 1.5 times the hull tolerance (just outside its dedupe radius), or with the
    first coordinates within a sort-grid cell of each other (near-ties on the grid)."""
    X = rng.standard_normal((k, n))
    kind = rng.integers(3)
    if kind == 1:
        far = X[np.argmax(np.linalg.norm(X, axis=1))]
        step = rng.standard_normal(n)
        step *= REL_TOL * _distances(X).max() * rng.uniform(1.0, 1.5) / np.linalg.norm(step)
        X[rng.integers(k)] = far + step
    elif kind == 2 and n > 1:
        X[:, 0] = np.round(X[0, 0], 1) + REL_TOL * rng.uniform(-1.0, 1.0, k)
    shift = 10.0 ** rng.uniform(-5.0, 5.0) * rng.standard_normal(n)
    return 10.0 ** rng.uniform(-5.0, 5.0) * X + shift


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_constructor_order_matches_the_frozen_caller_sorts(kernel):
    # callers sorted hulls at the input set's scale, images at |lambda| * diameter and
    # reflections at the scale of P; the constructor sorts each at its own scale, which
    # may reorder only near-ties on the grid (see the next test)
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 4):
        stack = [_parity_set(rng, int(rng.integers(2, 10)), n) for _ in range(150)]
        for points, P in zip(stack, hp.extreme_points_many(stack)):
            _matches_frozen_sort(P, *_frozen_hull_rows(points, P))
            assert _bits(P.diameter) == _bits(_distances(P.vertices).max(initial=0.0))
            z = 10.0 ** rng.uniform(-5.0, 5.0) * rng.standard_normal(n)
            ratio = 10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([-1.0, 1.0])
            image = hp.apply_homothety(P, z, ratio)
            scale = (abs(ratio) * P.diameter) or 1.0
            _matches_frozen_sort(image, z + ratio * P.vertices, scale)
            assert _matches_frozen_sort(hp.negate(P), -P.vertices, P.scale)


def test_an_image_far_out_is_ordered_at_its_own_scale():
    # a thin triangle moved 6e5 away: the rounded image's diameter is 1.6e-10 relative
    # off |lambda| * diameter, and two rows 1.2 grid cells apart share every cell at that
    # scale but not at the image's own; the image takes the order every build of its rows
    # takes, where the old caller-side sort kept the order of P
    P = hp.extreme_points([[1.1, 1.6], [-0.7, 0.5], [1.10000000143493, 1.5999999978599406]])
    image = hp.apply_homothety(P, [424148.0, -467379.0], 0.1)
    rows = [424148.0, -467379.0] + 0.1 * P.vertices
    assert not _matches_frozen_sort(image, rows, 0.1 * P.diameter)
    assert image.vertices.tolist() == [
        [424147.93, -467378.95], [424148.11, -467378.84], [424148.11000000016, -467378.8400000002]
    ]
    for p in itertools.permutations(range(3)):
        assert hp.Polytope(rows[list(p)]).vertices.tobytes() == image.vertices.tobytes()


def _admission_stack(rng, k, n):
    """(S, k, n) stack: every ``SET_KINDS`` kind (mixed kept counts) and a set whose first
    coordinates lie within a sort-grid cell of each other (near-ties), each at scales 1e-300, 1
    and 1e300 with offsets up to 1e6; and a set whose rows lie 16 ulps inside the ``_bounded``
    edge."""
    ties = rng.standard_normal((k, n))
    ties[:, 0] = np.round(ties[0, 0], 1) + REL_TOL * rng.uniform(-1.0, 1.0, k)
    sets = []
    for X in [_point_set(rng, kind, k, n) for kind in SET_KINDS] + [ties]:
        X = X / np.abs(X).max()
        for scale in (1e-300, 1.0, 1e300):
            offset = rng.choice([0.0, 1.0, 1e6]) * rng.uniform(-1.0, 1.0, n)
            sets.append(scale * (X + offset))
    U = rng.standard_normal((k, n))
    edge = U / np.linalg.norm(U, axis=1, keepdims=True) * (2.0**1022 / math.sqrt(n))
    sets.append(hp.polytope._bounded(edge * (1.0 - 2.0**-48)))
    with pytest.raises(hp.BadNumber):
        hp.polytope._bounded(edge * (1.0 + 2.0**-44))
    return np.array(sets)


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_stacked_admission_matches_a_direct_build_of_each_hull(kernel):
    # an (S, k, n) array is admitted, measured and ordered as one stack per kept count, a list
    # set by set; each hull has the bytes, diameter and scale of Polytope(its kept rows)
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 4):
        for k in (2, 5, 9):
            stack = _admission_stack(rng, k, n)
            for given in (stack, list(stack)):
                for points, hull in zip(stack, hp.extreme_points_many(given)):
                    alone = hp.Polytope(_frozen_hull_rows(points, hull)[0])
                    assert hull.vertices.tobytes() == alone.vertices.tobytes()
                    assert _bits(hull.diameter) == _bits(alone.diameter)
                    assert _bits(hull.scale) == _bits(alone.scale)


def _count_margin_calls(monkeypatch):
    calls = []

    def counted(Ds):
        calls.append(len(Ds))
        return margin_directions(Ds)

    monkeypatch.setattr(hp.polytope, "margin_directions", counted)
    return calls


def test_many_hulls_make_one_lp_call_per_kept_count(monkeypatch):
    # the LPs sent are the rows that the frozen screen leaves open, at most one call per kept count
    rng = np.random.default_rng(3)
    kinds = ("gauss", "one_point", "near_duplicates", "grid", "collinear") * 2
    stack = np.array([_point_set(rng, kind, 8, 3) for kind in kinds])
    kept = [len(_dedupe_reference(points)) for points in stack]
    sent = [np.count_nonzero(_open_rows(points)) for points in stack]
    calls = _count_margin_calls(monkeypatch)
    hp.extreme_points_many(stack)
    assert len(calls) == len({k for k, n in zip(kept, sent) if n}) > 1
    assert sum(calls) == sum(sent)
    assert 0 < sum(sent) < sum(k for k in kept if k > 1)


def test_exposed_diameters_read_all_faces_in_one_support_call(monkeypatch):
    calls = []
    rows = hp.exposed._support_rows

    def counted(P, U):
        calls.append(len(U))
        return rows(P, U)

    def refused(P, u):
        raise AssertionError("exposed_diameters called support")

    monkeypatch.setattr(hp.exposed, "_support_rows", counted)
    monkeypatch.setattr(hp.polytope, "support", refused)
    monkeypatch.setattr(hp, "support", refused)
    for P in _corpus_1_2():
        calls.clear()
        found = hp.exposed_diameters(P)
        assert len(calls) == 1
        assert calls[0] % 2 == 0 and calls[0] >= 2 * len(found) > 0


def _dedupe_reference(points):
    """The points that survive the near-duplicate pass of one hull."""
    dist = _distances(points)
    tol = REL_TOL * (dist.max() or 1.0)
    kept = []
    for i in range(len(points)):
        if all(dist[i, j] > tol for j in kept):
            kept.append(i)
    return kept


def _frozen_facet_rows(V, scale, tol):
    """Frozen R^3 facet screen of one set of V (k, 3): a mask of the rows it decides. Each triple
    a < b < c of X = (V - V[0]) / scale spans N = (X_b - X_a) x (X_c - X_a), and with a sign s
    its plane is accepted when N != 0 and s h_x <= REL_TOL at every row x, h_x = N . X_x - N . X_a.
    A row under every accepted plane (one at least) by more than 2 REL_TOL |N| + 2^-46 is
    dropped; a row is kept when the sum of the unit outward normals of the accepted planes of its
    triples, scaled to |u|_inf = 1, has min(D u) > 2 tol on its program D."""
    X, planes = (V - V[0]) / scale, []
    for t in itertools.combinations(range(len(V)), 3):
        p, q = X[t[1]] - X[t[0]], X[t[2]] - X[t[0]]
        N = np.array([p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
                      p[0] * q[1] - p[1] * q[0]])
        h, norm = X @ N, math.sqrt(N @ N)
        h = h - h[t[0]]
        planes += [(t, s * N / norm, s * h, norm) for s in (1.0, -1.0)
                   if norm > 0.0 and (s * h <= REL_TOL).all()]
    decided = np.zeros(len(V), dtype=bool)
    for i in range(len(V)):
        below = all(h[i] < -(2.0 * REL_TOL * norm + 2.0**-46) for _, _, h, norm in planes)
        u = sum((unit for t, unit, _, _ in planes if i in t), np.zeros(3))
        top = np.abs(u).max()
        D = V[i] - np.delete(V, i, axis=0)
        decided[i] = (bool(planes) and below) or (top > 0.0 and (D @ (u / top)).min() > 2 * tol)
    return decided


def _open_rows(points):
    """Frozen screen of one hull: a mask of the rows kept by its near-duplicate pass that go to
    the LP. All of them if two input rows lie within 2^10 tol; else, for 4 to 21 rows in R^3
    (k C(k, 3) <= CHUNK_CELLS), those the frozen facet screen leaves undecided; else those that
    no sign vector with one or two nonzero entries has as its lone best by more than 2 tol
    (values measured from the first kept row: V[i] - V[0], then one sum of two coordinates)."""
    dist = _distances(points)
    tol = REL_TOL * (dist.max() or 1.0)
    V = points[_dedupe_reference(points)]
    if len(V) == 1 or (dist[np.triu_indices(len(points), 1)] <= 2**10 * tol).any():
        return np.full(len(V), len(V) > 1)
    if V.shape[1] == 3 and 4 <= len(V) and len(V) * math.comb(len(V), 3) <= CHUNK_CELLS:
        return ~_frozen_facet_rows(V, dist.max(), tol)
    X, lone = V - V[0], np.zeros(len(V), dtype=bool)
    for u in itertools.product((-1.0, 0.0, 1.0), repeat=V.shape[1]):
        if 1 <= np.count_nonzero(u) <= 2:
            vals = sum(u[i] * X[:, i] for i in np.flatnonzero(u))
            second, best = np.argsort(vals, kind="stable")[-2:]
            lone[best] |= vals[best] - vals[second] > 2 * tol
    return ~lone


def _frozen_projection_record(basis, Q1, Q2, result):
    """Frozen copy of the sweep's witness record of one frame, with its homothety (or None)."""
    return {
        "frame": basis.tolist(),
        "projection_1": Q1.vertices.tolist(),
        "projection_2": Q2.vertices.tolist(),
        "homothety": verify.homothety_record(result),
    }


def _per_frame_sweep(name, P1, P2, B, seed):
    """Frozen copy of the projection sweep that hulls two shadows per frame of the basis stack B."""
    direct = hp.detect_homothety(P1, P2)
    witnesses = []
    homothetic_count = 0
    n_frames = 0
    first_bad = None
    for basis in B:
        frame = hp.Frame(basis)
        n_frames += 1
        Q1 = hp.project_polytope(P1, frame)
        Q2 = hp.project_polytope(P2, frame)
        result = hp.detect_homothety(Q1, Q2)
        sound = result is not None and hp.set_equal(
            Q1, hp.apply_homothety(Q2, result.shift, result.ratio)
        )
        if sound:
            homothetic_count += 1
        elif first_bad is None:
            first_bad = _frozen_projection_record(basis, Q1, Q2, result)

    if direct is not None:
        verdict = "pass" if homothetic_count == n_frames else "fail"
        if first_bad is not None:
            witnesses.append(first_bad)
        return verify.Report(
            check_name=name,
            instances_run=n_frames,
            passes=homothetic_count,
            seed=seed,
            verdict=verdict,
            witnesses=witnesses + [{"direct_homothety": verify.homothety_record(direct)}],
        )
    if first_bad is not None:
        witnesses.append(first_bad)
        verdict = "pass"
    else:
        witnesses.append({"converse_tension": True})
        verdict = "fail"
    return verify.Report(
        check_name=name,
        instances_run=n_frames,
        passes=n_frames - homothetic_count,
        seed=seed,
        verdict=verdict,
        existential=True,
        witnesses=witnesses,
    )


def _sweep_pairs():
    cube = hp.extreme_points([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    tetrahedron = hp.extreme_points([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    octahedron = hp.extreme_points(np.vstack([np.eye(3), -np.eye(3)]))
    P4 = hp.random_polytope(4, 10, 17)
    return {
        "moved_cube": (hp.apply_homothety(cube, [1.0, -2.0, 0.5], -1.5), cube),
        "cube_tetrahedron": (cube, tetrahedron),
        "tetrahedron_octahedron": (tetrahedron, octahedron),
        "homothetic_4d": (hp.apply_homothety(P4, np.arange(4.0), 0.3), P4),
        "random_4d": (P4, hp.random_polytope(4, 12, 18)),
    }


# every (pair, seed) on the active backend (id "pair-seed") and on the C kernel ("c-pair-seed")
SWEEP_CASES = [
    pytest.param(pair, seed, kernel, id=f"{prefix}{pair}-{seed}")
    for kernel, prefix in (("active", ""), ("c", "c-"))
    for seed in (0, 7, 4242)
    for pair in sorted(_sweep_pairs())
]


@pytest.mark.parametrize("pair, seed, kernel", SWEEP_CASES, indirect=["kernel"])
def test_sweep_reports_match_the_per_frame_sweep(monkeypatch, pair, seed, kernel):
    P1, P2 = _sweep_pairs()[pair]
    n = P1.dim
    runs = [(hp.verify_theorem1, (P1, P2, m, 6, seed)) for m in range(2, n)]
    runs.append((hp.verify_corollary1, (P1, P2, None, n - 1, 6, seed)))
    if n == 4:
        line = hp.orthonormalize([[1.0, 2.0, 0.0, -1.0]])
        runs.append((hp.verify_corollary1, (P1, P2, line, 3, 6, seed)))
    got = [files.report_to_text(check(*args)) for check, args in runs]
    monkeypatch.setattr(verify, "_projection_sweep", _per_frame_sweep)
    assert got == [files.report_to_text(check(*args)) for check, args in runs]


def test_sweep_hulls_all_shadows_in_one_lp_call(monkeypatch):
    # the R^4 shadows of an m = 4 sweep share one call; the facet screen decides every row of the
    # m = 3 shadows of the 4-D pair, and the planar screens every row of the m = 2 shadows of the
    # moved cube, so those sweeps make no call at all
    pairs, calls = _sweep_pairs(), _count_margin_calls(monkeypatch)
    P5 = hp.random_polytope(5, 12, 19)
    pairs["homothetic_5d"] = (hp.apply_homothety(P5, np.arange(5.0), 0.3), P5)
    for pair, m, sent in (("homothetic_5d", 4, 1), ("homothetic_4d", 3, 0), ("moved_cube", 2, 0)):
        calls.clear()
        report = hp.verify_theorem1(*pairs[pair], m, 8, 5)
        assert report.verdict == "pass" and report.passes == 8
        assert len(calls) == sent


def _spy(monkeypatch, owner, name, record):
    """Patch owner.name to call through; the list it returns gets record(*args, result) per call."""
    calls, real = [], getattr(owner, name)

    def called(*args):
        result = real(*args)
        calls.append(record(*args, result))
        return result

    monkeypatch.setattr(owner, name, called)
    return calls


def test_sweep_admits_its_shadows_once_and_sorts_each_kept_count_once(monkeypatch):
    # bodies of one vertex count send their shadows as one (2S, k, m) array: one _bounded call,
    # one stacked sort per kept count and no per-set constructor; others send a list, set by set
    pairs = _sweep_pairs()
    bounded = _spy(monkeypatch, hp.polytope, "_bounded", lambda V, out: V.shape)
    sorts = _spy(monkeypatch, hp.polytope, "_canonical_sort", lambda V, scale, out: V.shape)
    built = _spy(monkeypatch, hp.Polytope, "__post_init__", lambda P, out: P)
    hulls = _spy(monkeypatch, verify, "extreme_points_many", lambda stack, out: out)
    for pair, m in (("homothetic_4d", 3), ("moved_cube", 2), ("cube_tetrahedron", 2)):
        P1, P2 = pairs[pair]
        for calls in (bounded, sorts, hulls):
            calls.clear()
        hp.verify_theorem1(P1, P2, m, 8, 5)
        if P1.num_vertices == P2.num_vertices:
            assert bounded == [(16, P1.num_vertices, m)]
        else:
            assert bounded == [(P1.num_vertices, m), (P2.num_vertices, m)] * 8
        groups = Counter((Q.num_vertices, Q.dim) for Q in hulls[0])
        assert sorted(sorts) == sorted((count, k, n) for (k, n), count in groups.items())
        assert not built


def _fail_second_frame(monkeypatch):
    """Detect no homothety on the second frame (the third call): a universal fail."""
    calls = []

    def third_fails(P1, P2, tol=REL_TOL):
        calls.append(None)
        return None if len(calls) == 3 else homothety.detect_homothety(P1, P2, tol)

    for module in (verify, hp):
        monkeypatch.setattr(module, "detect_homothety", third_fails)


def _hide_direct_homothety(monkeypatch):
    """Find no homothety between the 3-D bodies: converse tension."""

    def no_direct(P1, P2, tol=REL_TOL):
        return None if P1.dim == 3 else homothety.detect_homothety(P1, P2, tol)

    for module in (verify, hp):
        monkeypatch.setattr(module, "detect_homothety", no_direct)


FIRST_BAD = ["frame", "projection_1", "projection_2", "homothety"]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "patch, existential, passes, witness_keys",
    [
        (_fail_second_frame, False, 5, [FIRST_BAD, ["direct_homothety"]]),
        (_hide_direct_homothety, True, 0, [["converse_tension"]]),
    ],
)
def test_sweep_fail_branches_match_the_per_frame_sweep(
    monkeypatch, patch, existential, passes, witness_keys, seed
):
    P1, P2 = _sweep_pairs()["moved_cube"]
    texts = []
    for sweep in (verify._projection_sweep, _per_frame_sweep):
        monkeypatch.setattr(verify, "_projection_sweep", sweep)
        patch(monkeypatch)
        report = hp.verify_theorem1(P1, P2, 2, 6, seed)
        assert (report.verdict, report.existential, report.passes) == ("fail", existential, passes)
        assert [list(w) for w in report.witnesses] == witness_keys
        texts.append(files.report_to_text(report))
    assert texts[0] == texts[1]


def _frozen_orthonormalize(vectors):
    """Frozen copy of the per-frame ``orthonormalize``: its basis, or DependentInput."""
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
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
    B = np.array(rows)
    if not np.max(np.abs(B @ B.T - np.eye(B.shape[0]))) <= GRAM_TOL:
        raise DependentInput("basis rows are not orthonormal")
    return B


def _frozen_extend(head, m, seed):
    """Frozen copy of the per-frame sampling loop of ``random_frame`` and ``frame_containing``."""
    rng = np.random.default_rng(seed)
    for _ in range(16):
        extra = rng.standard_normal((m - head.shape[0], head.shape[1]))
        try:
            return _frozen_orthonormalize(np.concatenate([head, extra]))
        except DependentInput:
            continue
    raise DependentInput("random sampling kept producing dependent vectors")


@pytest.mark.parametrize("n, m", [(3, 2), (4, 2), (4, 3), (6, 4)])
def test_stacked_frames_match_the_per_frame_sampler(n, m):
    line = hp.random_frame(n, 1, 99)
    for sub in (None, line):
        head = np.empty((0, n)) if sub is None else line.basis
        for seed in (0, 7):
            B = geometry._frames(n, m, sub, 100, seed)
            assert B.shape == (100, m, n)
            for i, basis in enumerate(B):
                s = _subseed(seed, i)
                alone = hp.random_frame(n, m, s) if sub is None else hp.frame_containing(line, m, s)
                assert basis.tobytes() == _frozen_extend(head, m, s).tobytes()
                assert basis.tobytes() == alone.basis.tobytes()


def test_a_redrawn_entry_keeps_the_bits_of_its_own_draws(monkeypatch):
    # seed 11 draws a dependent pair first, seed 13 a zero pair and then a nan
    # pair; each must redraw from its own rng alone. _extend's draws are rigged
    # on their way into the Gram-Schmidt hook, so each rigged draw has taken its
    # normals from the real stream; the frozen sampler's rng takes them too.
    rigged = {
        11: [[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]],
        13: [np.zeros((2, 3)), np.full((2, 3), np.nan)],
    }
    real_rng, real_gram_schmidt = np.random.default_rng, geometry._gram_schmidt
    seeds = [10, 11, 12, 13]
    stacks = []

    def rigged_gram_schmidt(V):
        # round r orthonormalizes the entries still to do, in seed order
        todo = [s for s in seeds if len(rigged.get(s, [])) >= len(stacks)]
        for row, seed in zip(V, todo):
            if len(stacks) < len(rigged.get(seed, [])):
                row[:] = rigged[seed][len(stacks)]
        stacks.append(len(V))
        return real_gram_schmidt(V)

    class Rigged:
        def __init__(self, seed):
            self.rng, self.first = real_rng(seed), list(rigged.get(seed, []))

        def standard_normal(self, shape):
            drawn = self.rng.standard_normal(shape)
            return np.array(self.first.pop(0)) if self.first else drawn

    honest = geometry._extend(np.empty((0, 3)), 2, geometry._words(seeds))
    monkeypatch.setattr(geometry, "_gram_schmidt", rigged_gram_schmidt)
    B = geometry._extend(np.empty((0, 3)), 2, geometry._words(seeds))
    assert stacks == [4, 2, 1]  # three rounds: 11 redrawn once, 13 twice
    monkeypatch.setattr(np.random, "default_rng", Rigged)
    for basis, seed in zip(B, seeds):
        assert basis.tobytes() == _frozen_extend(np.empty((0, 3)), 2, seed).tobytes()
    assert B[[0, 2]].tobytes() == honest[[0, 2]].tobytes()
    assert (B[[1, 3]] != honest[[1, 3]]).all()


def test_example1_frame_bases_are_pinned():
    digests = {
        0: "0a3e9babcf28a6f322283f0fbf2e530cf0d87f7872b017a706e8bddcbda236c7",
        7: "2f594b216f8d48fe9e99b1edc11a72c8cc7fe91a63b83590d391b520e8dd8e8e",
        4242: "7c691c45418f7c1b5be15361ef29bbf621d2cc5f929ca5605934fd9d184aa3cf",
    }
    for seed, digest in digests.items():
        B = geometry._frames(3, 2, None, 100, seed)
        assert hashlib.sha256(B.tobytes()).hexdigest() == digest


def test_a_dependent_entry_is_flagged_alone():
    solo = [[[1.0, 2.0, 0.0], [0.5, 0.0, 1.0]], [[0.0, 3.0, 1.0], [2.0, 2.0, 2.0]]]
    for bad in ([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0]],
                [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]):
        Q, ok = geometry._gram_schmidt(np.array([solo[0], bad, solo[1]]))
        assert ok.tolist() == [True, False, True]
        for q, V in zip(Q[[0, 2]], solo):
            assert q.tobytes() == hp.orthonormalize(V).basis.tobytes()
            assert q.tobytes() == _frozen_orthonormalize(V).tobytes()
        with pytest.raises(DependentInput):
            hp.orthonormalize(bad)


def _frozen_parabola(spec, basis):
    """Frozen copy of the per-frame ``project_paraboloid``: (axis, vertex, quad), None if full."""
    w = basis[:, 2]
    wn = float(np.linalg.norm(w))
    if wn <= HORIZONTAL_TOL:
        return None
    axis = w / wn
    perp = np.array([-axis[1], axis[0]])
    B = basis[:, :2]
    M = B @ spec.inverse @ B.T / wn
    m11 = float(perp @ M @ perp)
    m12 = float(perp @ M @ axis)
    m22 = float(axis @ M @ axis)
    return axis, (-m12 / 2.0) * perp + (-m22 / 4.0) * axis, 1.0 / m11


SPECS = (hp.ParaboloidSpec(np.eye(2)), hp.ParaboloidSpec(np.diag([2.0, 1.0])),
         hp.ParaboloidSpec(np.array([[1.5, -0.2], [-0.2, 0.8]])))


def test_stacked_shadows_match_the_per_frame_projection():
    # example-1 frames with the horizontal frame at two places and a frame
    # 1e-11 off it at a third: a full plane for those entries only
    horizontal = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    almost = hp.orthonormalize([[1.0, 0.0, 0.0], [0.0, 1.0, 1e-11]]).basis
    B = geometry._frames(3, 2, None, 200, 3)
    B[[5, 77]], B[150] = horizontal, almost
    for spec in SPECS:
        full, axis, vertex, quad = _parabolas(spec, B)
        assert np.flatnonzero(full).tolist() == [5, 77, 150]
        for i, basis in enumerate(B):
            ref = _frozen_parabola(spec, basis)
            region = hp.project_paraboloid(spec, hp.Frame(basis))
            assert region.full_plane == full[i] == (ref is None)
            if ref is None:
                assert (axis[i].tolist(), vertex[i].tolist(), quad[i]) == ([0, 0], [0, 0], 1)
                continue
            got = (axis[i], vertex[i], quad[i])
            for x, y, z in zip(got, ref, (region.axis, region.vertex, region.quad_coeff)):
                assert _bits(x) == _bits(y) == _bits(z)
        shift, ratio = _homotheties(_parabolas(SPECS[0], B), (full, axis, vertex, quad))
        for i in (5, 77, 150):
            assert (shift[i].tolist(), ratio[i]) == ([0.0, 0.0], 1.0)


def _per_frame_example1(samples, seed):
    """Frozen copy of ``verify_example1``: one frame, two shadows and one homothety at a time."""
    s1, s2 = SPECS[:2]
    body_ratio = hp.paraboloid_homothetic(s1, s2)
    passes = 0
    witnesses = []
    for i in range(samples):
        basis = _frozen_extend(np.empty((0, 3)), 2, _subseed(seed, i))
        r1, r2 = _frozen_parabola(s1, basis), _frozen_parabola(s2, basis)
        assert (r1 is None) == (r2 is None)
        if r1 is None:
            ratio = 1.0
        else:
            assert math.hypot(*(r1[0] - r2[0])) <= AXIS_TOL
            ratio = r2[2] / r1[2]
        if ratio > 0.0:
            passes += 1
        else:
            witnesses.append({"frame": basis.tolist()})
    witnesses.append({"body_homothety_ratio": body_ratio})
    return verify.Report(
        check_name="example1",
        instances_run=samples,
        passes=passes,
        seed=seed,
        verdict="pass" if passes == samples and body_ratio is None else "fail",
        witnesses=witnesses,
    )


@pytest.mark.parametrize("samples, seed", [(1, 0), (100, 7), (100, 4242), (250, 1)])
def test_example1_reports_match_the_per_frame_check(samples, seed):
    got = files.report_to_text(hp.verify_example1(samples, seed))
    assert got == files.report_to_text(_per_frame_example1(samples, seed))


def test_example1_witnesses_read_the_basis_stack(monkeypatch):
    # a frame whose ratio is not positive is a witness with its own basis
    def negated(p1, p2):
        shift, ratio = _homotheties(p1, p2)
        ratio[[3, 8]] *= -1.0
        return shift, ratio

    monkeypatch.setattr(verify, "_homotheties", negated)
    report = hp.verify_example1(10, 5)
    B = geometry._frames(3, 2, None, 10, 5)
    assert (report.verdict, report.passes) == ("fail", 8)
    assert report.witnesses[:2] == [{"frame": B[3].tolist()}, {"frame": B[8].tolist()}]


def _frozen_others(k):
    """Frozen copy of the former ``polytope.others_index``: row i lists 0..k-1 without i."""
    j = np.arange(k - 1)
    return j + (j >= np.arange(k)[:, None])


def _frozen_hull_programs(V):
    """Frozen hull builder: the "vertex minus the others" programs of an (S, k, n) stack."""
    k, n = V.shape[1:]
    return (V[:, :, None, :] - V[:, _frozen_others(k)]).reshape(-1, k - 1, n)


def _frozen_pair_programs(V):
    """Frozen builder of the pair programs of ``exposed_diameters``: v - x rows, then y - w."""
    others = V[_frozen_others(len(V))]
    I, J = np.triu_indices(len(V), 1)
    return np.concatenate([(V[:, None, :] - others)[I], (others - V[:, None, :])[J]], axis=1)


def _frozen_exposure_program(V, i):
    """Frozen builder of the ``is_exposed`` program of vertex i."""
    return V[i] - np.delete(V, i, axis=0)


def _frozen_unit_rows(U):
    """Frozen witness normalization of ``exposed_diameters``."""
    return U / np.sqrt(np.matmul(U[:, None, :], U[:, :, None]))[:, 0]


def _integer_bodies():
    """Square, cube and simplex4 (rows sharing coordinates give exact zero differences), and
    the reflected square, whose -0.0 coordinates meet +0.0 ones."""
    square = hp.extreme_points([[0, 0], [1, 0], [0, 1], [1, 1]])
    cube = hp.extreme_points([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    simplex4 = hp.extreme_points(np.vstack([np.zeros(4), np.eye(4)]))
    return [square, cube, simplex4, hp.negate(square)]


def _recorded(monkeypatch, module, name):
    """Replace module.name by a wrapper that records (arguments, result) of every call."""
    calls, real = [], getattr(module, name)

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_separation_programs_match_the_frozen_builders(monkeypatch, kernel):
    # every program reaches the kernel with the bytes of its frozen builder, signed zeros
    # included: o - v and (-v) - (-o) are one IEEE sum, -(v - o) is not where v and o tie
    hulls = _recorded(monkeypatch, hp.polytope, "margin_directions")
    pairs = _recorded(monkeypatch, hp.exposed, "margin_directions")
    units = _recorded(monkeypatch, hp.exposed, "_diameters_at")
    rng = np.random.default_rng(17)
    stacks = [np.stack([P.vertices for P in _integer_bodies()[i::3]]) for i in range(3)]
    for n, k in ((2, 5), (3, 7), (4, 9)):
        shift = 10.0 ** rng.uniform(-3.0, 3.0, (20, 1, n)) * rng.standard_normal((20, 1, n))
        X = 10.0 ** rng.uniform(-3.0, 3.0, (20, 1, 1)) * rng.standard_normal((20, k, n))
        if n == 2:  # crowded (a row 8 tol from another), so the planar screens leave every row open
            X[:, -1] = X[:, 0] + 8 * REL_TOL * _distances(X).max(axis=(1, 2))[:, None] * [0.6, 0.8]
        if n == 3:  # every other set crowded, as the facet screen decides the rows of the others
            X[::2, -1] = X[::2, 0] + 8 * REL_TOL * _distances(X[::2]).max(axis=(1, 2))[:, None] / 3**0.5
        stacks.append(X + shift)
    sent = certified = 0
    for V in stacks:
        # rows the frozen screen certifies send no program; the others send their frozen ones
        hulls.clear()
        hp.extreme_points_many(V)
        open_rows = np.array([_open_rows(points) for points in V])
        programs = _frozen_hull_programs(V).reshape(*V.shape[:2], -1, V.shape[2])[open_rows]
        assert [Ds.tobytes() for (Ds,), _ in hulls] == ([programs.tobytes()] if len(programs) else [])
        sent, certified = sent + open_rows.sum(), certified + (~open_rows).sum()
    assert sent > 0 and certified > 0
    for P in _corpus_1_2()[::4] + _integer_bodies():
        pairs.clear()
        units.clear()
        hp.exposed_diameters(P)
        ((Ds,), (deltas, us)), = pairs
        assert Ds.tobytes() == _frozen_pair_programs(P.vertices).tobytes()
        ((_, U), _), = units
        keep = deltas > REL_TOL * P.scale
        assert U.tobytes() == _frozen_unit_rows(us[keep]).tobytes()
        pairs.clear()
        for v in P.vertices:
            hp.is_exposed(P, v)
        for i, ((Ds,), _) in enumerate(pairs):
            assert Ds.shape == (1, P.num_vertices - 1, P.dim)
            assert Ds.tobytes() == _frozen_exposure_program(P.vertices, i).tobytes()
        assert len(pairs) == P.num_vertices


def _frozen_support_rows(P, U):
    """Frozen copy of ``polytope._support_rows`` (its |u| a stacked matmul), as (value, face,
    margin) on rows of U inside the float range."""
    U, e, _ = lp._binade(U, 1)
    e = e[:, 0]
    norm_u = np.sqrt(np.matmul(U[:, None, :], U[:, :, None]))[:, 0, 0]
    vals = np.matmul(P.vertices, U[:, :, None])[:, :, 0]
    best = vals.max(axis=1)
    on_face = vals >= (best - REL_TOL * P.scale * norm_u)[:, None]
    margin = best - vals.max(axis=1, where=~on_face, initial=-np.inf)
    return np.ldexp(best, e), on_face, np.ldexp(margin, e)


def _frozen_gram_schmidt(V):
    """Frozen copy of ``geometry._gram_schmidt`` with its dot products and norms as matmuls."""
    V, _, big = lp._binade(V, (1, 2))
    ok = np.isfinite(big[:, 0, 0])
    V = np.where(ok[:, None, None], V, 0.0)
    tol = RANK_TOL * np.sqrt((V * V).sum(axis=2)).max(axis=1)
    for i in range(V.shape[1]):
        w = V[:, i]
        for _ in range(2):
            for j in range(i):
                w -= np.matmul(w[:, None, :], V[:, j, :, None])[:, 0] * V[:, j]
        norm = np.sqrt(np.matmul(w[:, None, :], w[:, :, None]))[:, 0, 0]
        ok &= norm > tol
        w /= np.where(ok, norm, 1.0)[:, None]
    return V, ok


def _frozen_parabolas(spec, B):
    """Frozen copy of ``paraboloid._parabolas`` with |w| and its quadratic forms as matmuls."""
    w = B[:, :, 2]
    wn = np.sqrt(np.matmul(w[:, None, :], w[:, :, None]))[:, 0]
    full = wn[:, 0] <= HORIZONTAL_TOL
    axis, vertex, quad = np.zeros((len(B), 2)), np.zeros((len(B), 2)), np.ones(len(B))
    tilted, wn = ~full, wn[~full]
    a = w[tilted] / wn
    perp = np.stack([-a[:, 1], a[:, 0]], axis=1)
    P = B[tilted, :, :2]
    M = np.matmul(np.matmul(P, spec.inverse), P.transpose(0, 2, 1)) / wn[:, :, None]
    m11, m12, m22 = (np.matmul(np.matmul(u[:, None], M), v[:, :, None])[:, 0]
                     for u, v in ((perp, perp), (perp, a), (a, a)))
    axis[tilted], quad[tilted] = a, 1.0 / m11[:, 0]
    vertex[tilted] = (-m12 / 2.0) * perp + (-m22 / 4.0) * a
    return full, axis, vertex, quad


def test_row_products_match_the_frozen_matmuls():
    rng = np.random.default_rng(18)
    for P in _corpus_1_2()[::4] + _integer_bodies():
        U = rng.standard_normal((50, P.dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (50, 1))
        U[::5, 0] = 0.0
        U[1::5] = np.round(U[1::5])
        U = U[np.abs(U).max(axis=1) > 0.0]
        unit = lp._binade(U, 1)[0]
        assert np.sqrt(lp._dots(unit, unit)).tobytes() == (
            np.sqrt(np.matmul(unit[:, None, :], unit[:, :, None]))[:, 0, 0].tobytes()
        )
        for got, ref in zip(hp.polytope._support_rows(P, U), _frozen_support_rows(P, U)):
            assert got.tobytes() == ref.tobytes()
    for n, m in ((3, 2), (4, 3), (6, 4)):
        X = rng.standard_normal((100, m, n))
        X[::4] = np.round(X[::4])  # integer rows: exact zeros, and some dependent entries
        Q, ok = geometry._gram_schmidt(X)
        Q_ref, ok_ref = _frozen_gram_schmidt(X)
        assert Q.tobytes() == Q_ref.tobytes() and ok.tolist() == ok_ref.tolist()
    B = geometry._frames(3, 2, None, 200, 3)
    B[[5, 77]] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    B[150] = [[0.0, 1.0, 0.0], [0.6, 0.0, 0.8]]
    for spec in SPECS:
        for got, ref in zip(_parabolas(spec, B), _frozen_parabolas(spec, B)):
            assert got.tobytes() == ref.tobytes()
