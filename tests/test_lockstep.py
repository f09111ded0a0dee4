"""The lockstep batch simplex against a frozen copy of the scalar loop.

The parity contract is per LP: every program of a batch must give, byte for
byte (signed zeros included), the status, objective and x that the scalar
Bland's-rule loop gives for it alone, and the hull and diameter routines
built on the batch must return the bytes of their one-LP-at-a-time form.
A hull of a stack of point sets must not depend on the other sets, and a
projection sweep that hulls all its shadows at once must write the reports of
the per-frame sweep.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homproj as hp
from homproj import _simplex_py, files, homothety, verify
from homproj._simplex_py import OPTIMAL, PIVOT_TOL, UNBOUNDED, simplex_maximize_batch
from homproj.homothety import DEFAULT_TOL
from homproj.lp import margin_directions
from homproj.polytope import REL_TOL, _canonical_sort, _distances
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
    _assert_batch_matches(*_margin_batch(Ds))
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


def _count_margin_calls(monkeypatch):
    calls = []

    def counted(Ds):
        calls.append(len(Ds))
        return margin_directions(Ds)

    monkeypatch.setattr(hp.polytope, "margin_directions", counted)
    return calls


def test_many_hulls_make_one_lp_call_per_kept_count(monkeypatch):
    rng = np.random.default_rng(3)
    kinds = ("gauss", "one_point", "near_duplicates", "grid", "collinear") * 2
    stack = np.array([_point_set(rng, kind, 8, 3) for kind in kinds])
    batched = [c for c in map(len, map(_dedupe_reference, stack)) if c > 1]
    calls = _count_margin_calls(monkeypatch)
    hp.extreme_points_many(stack)
    assert len(calls) == len(set(batched)) > 1
    assert sum(calls) == sum(batched)


def _dedupe_reference(points):
    """The points that survive the near-duplicate pass of one hull."""
    dist = _distances(points)
    tol = REL_TOL * (dist.max() or 1.0)
    kept = []
    for i in range(len(points)):
        if all(dist[i, j] > tol for j in kept):
            kept.append(i)
    return kept


def _per_frame_sweep(name, P1, P2, frames, seed):
    """Frozen copy of the projection sweep that hulls two shadows per frame."""
    direct = hp.detect_homothety(P1, P2)
    witnesses = []
    homothetic_count = 0
    n_frames = 0
    first_bad = None
    for frame in frames:
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
            first_bad = verify._projection_record(frame, Q1, Q2, result)

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


@pytest.mark.parametrize("seed", [0, 7, 4242])
@pytest.mark.parametrize("pair", sorted(_sweep_pairs()))
def test_sweep_reports_match_the_per_frame_sweep(monkeypatch, pair, seed):
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
    P1, P2 = _sweep_pairs()["moved_cube"]
    calls = _count_margin_calls(monkeypatch)
    report = hp.verify_theorem1(P1, P2, 2, 8, 5)
    assert report.verdict == "pass" and report.passes == 8
    assert len(calls) == 1


def _fail_second_set_equal(monkeypatch):
    """Make the second frame's soundness check fail: a universal fail."""
    calls = []

    def second_fails(P1, P2, tol=DEFAULT_TOL):
        calls.append(None)
        return len(calls) != 2 and homothety.set_equal(P1, P2, tol)

    for module in (verify, hp):
        monkeypatch.setattr(module, "set_equal", second_fails)


def _hide_direct_homothety(monkeypatch):
    """Find no homothety between the 3-D bodies: converse tension."""

    def no_direct(P1, P2, tol=DEFAULT_TOL):
        return None if P1.dim == 3 else homothety.detect_homothety(P1, P2, tol)

    for module in (verify, hp):
        monkeypatch.setattr(module, "detect_homothety", no_direct)


FIRST_BAD = ["frame", "projection_1", "projection_2", "homothety"]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "patch, existential, passes, witness_keys",
    [
        (_fail_second_set_equal, False, 5, [FIRST_BAD, ["direct_homothety"]]),
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
