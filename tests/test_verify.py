from dataclasses import asdict, replace

import numpy as np
import pytest

from homproj import (
    BadDims,
    SingletonInput,
    apply_homothety,
    extreme_points,
    random_frame,
    random_polytope,
    verify_corollary1,
    verify_diameter_transfer,
    verify_example1,
    verify_no_parallel_diameters,
    verify_theorem1,
    verify_theorem2,
)
from homproj import exposed, homothety, verify
from homproj.files import _dumps, report_to_text
from homproj.homothety import detect_homothety
from homproj.polytope import _distances


def test_theorem1_forward_cube(cube):
    P2 = apply_homothety(cube, np.array([1.0, 2.0, 3.0]), 2.0)
    rep = verify_theorem1(cube, P2, 2, 100, 0)
    assert rep.verdict == "pass"
    assert rep.passes == rep.instances_run == 100
    assert not rep.existential


def test_theorem1_converse_witness(cube, octahedron):
    rep = verify_theorem1(cube, octahedron, 2, 50, 0)
    assert rep.verdict == "pass"
    assert rep.existential
    assert any("projection_1" in w for w in rep.witnesses)


def test_theorem1_bad_dims(cube):
    with pytest.raises(BadDims):
        verify_theorem1(cube, cube, 3, 10, 0)  # m = n


def test_theorem1_on_singletons_far_from_the_origin():
    # z + Q2 rounds off Q1 by more than tol here; a point still maps onto a point
    P1 = extreme_points([[1e8 + 0.3, 3.7e8, 1.1]])
    P2 = extreme_points([[-2.9e8, 1.3, 5e7 + 0.1]])
    report = verify_theorem1(P1, P2, 2, 5, 0)
    assert (report.verdict, report.passes) == ("pass", 5)


def test_corollary1_forward():
    P = random_polytope(4, 10, 1)
    P2 = apply_homothety(P, np.array([0.5, -1.0, 2.0, 0.0]), 3.0)
    S = random_frame(4, 1, 3)
    rep = verify_corollary1(P, P2, S, 3, 40, 0)
    assert rep.verdict == "pass"
    assert rep.passes == 40


def test_corollary1_dimension_condition(cube):
    S = random_frame(3, 1, 0)
    with pytest.raises(BadDims):
        verify_corollary1(cube, cube, S, 2, 10, 0)  # r = m - 1


def test_corollary1_zero_subspace_witness(cube, octahedron):
    rep = verify_corollary1(cube, octahedron, None, 2, 50, 0)
    assert rep.verdict == "pass"
    assert rep.existential


def test_corollary1_at_the_zero_subspace_is_theorem1(cube, octahedron):
    moved = apply_homothety(cube, np.array([1.0, -2.0, 0.5]), -1.5)
    P4 = random_polytope(4, 10, 17)
    for P1, P2 in ((moved, cube), (cube, octahedron), (P4, random_polytope(4, 12, 18))):
        n = P1.dim
        for m in range(2, n):
            for seed in (0, 5):
                t1 = verify_theorem1(P1, P2, m, 4, seed)
                c1 = verify_corollary1(P1, P2, None, m, 4, seed)
                assert c1.check_name == "corollary1"
                assert report_to_text(replace(c1, check_name="theorem1")) == report_to_text(t1)
        for m in (1, n):
            with pytest.raises(BadDims) as t1:
                verify_theorem1(P1, P2, m, 4, 0)
            with pytest.raises(BadDims) as c1:
                verify_corollary1(P1, P2, None, m, 4, 0)
            assert str(t1.value) == str(c1.value)


def test_theorem2(square):
    rep = verify_theorem2(square)
    assert rep.verdict == "pass"
    assert rep.passes == 4
    rep = verify_theorem2(random_polytope(3, 12, 6))
    assert rep.verdict == "pass"
    with pytest.raises(SingletonInput):
        verify_theorem2(extreme_points([[0.0, 0.0]]))


def test_theorem2_reports_missed_vertices_in_vertex_order(monkeypatch, square):
    diagonals = exposed.exposed_diameters(square)
    assert [(d.x.tolist(), d.z.tolist()) for d in diagonals] == [
        ([0.0, 0.0], [1.0, 1.0]),
        ([0.0, 1.0], [1.0, 0.0]),
    ]
    monkeypatch.setattr(verify, "exposed_diameters", lambda P: diagonals[:1])
    rep = verify_theorem2(square)
    assert (rep.instances_run, rep.passes, rep.verdict) == (4, 2, "fail")
    assert rep.witnesses == [{"missed_vertex": [0.0, 1.0]}, {"missed_vertex": [1.0, 0.0]}]


def test_no_parallel_diameters(square, triangle):
    assert verify_no_parallel_diameters(square).verdict == "pass"
    assert verify_no_parallel_diameters(triangle).verdict == "pass"
    seg = extreme_points([[0.0, 0.0], [1.0, 1.0]])
    rep = verify_no_parallel_diameters(seg)
    assert rep.verdict == "pass"  # single diameter, vacuous
    assert rep.instances_run == 0


def test_no_parallel_diameters_on_near_parallel_pairs():
    # ten points on the unit circle: two of the 45 diameters are about 3e-5
    # rad apart, which 1 - |cos| < 1e-9 used to call parallel
    pts = np.random.default_rng(np.random.SeedSequence([3, 2, 54])).standard_normal((10, 2))
    P = extreme_points(pts / np.linalg.norm(pts, axis=1)[:, None])
    rep = verify_no_parallel_diameters(P)
    assert (rep.instances_run, rep.passes, rep.verdict) == (45, 45, "pass")
    assert rep.witnesses == []


def test_diameter_transfer(cube, square, triangle):
    P2 = apply_homothety(cube, np.array([0.3, -0.7, 1.1]), 1.8)
    assert verify_diameter_transfer(P2, cube).verdict == "pass"
    # central reflection
    from homproj import negate

    assert verify_diameter_transfer(negate(cube), cube).verdict == "pass"
    assert verify_diameter_transfer(square, triangle).verdict == "not-applicable"


def _greedy_diameter_transfer(P1, P2):
    """Frozen copy of the greedy ``verify_diameter_transfer`` that matched
    endpoint coordinates within 1e-9 * scale: the reference."""
    h = detect_homothety(P1, P2)
    if h is None:
        return verify.Report(
            check_name="diameter_transfer",
            instances_run=0,
            passes=0,
            seed=0,
            verdict="not-applicable",
        )
    d1 = verify.exposed_diameters(P1)
    d2 = verify.exposed_diameters(P2)
    tol = 1e-9 * P2.scale

    def same_pair(ends, e):
        near = _distances(ends, np.array([e.x, e.z])) <= tol
        return (near[0, 0] and near[1, 1]) or (near[0, 1] and near[1, 0])

    matched = 0
    witnesses = []
    used = set()
    for d in d1:
        ends = (np.array([d.x, d.z]) - h.shift) / h.ratio
        hit = None
        for j, e in enumerate(d2):
            if j not in used and same_pair(ends, e):
                hit = j
                break
        if hit is None:
            witnesses.append({"unmatched_diameter": [d.x.tolist(), d.z.tolist()]})
        else:
            used.add(hit)
            matched += 1
    ok = matched == len(d1) and len(d1) == len(d2)
    return verify.Report(
        check_name="diameter_transfer",
        instances_run=max(len(d1), len(d2)),
        passes=matched,
        seed=0,
        verdict="pass" if ok else "fail",
        witnesses=witnesses,
    )


def _transfer_pairs():
    """Seeded pairs (z + lambda * P, P) in R^2-R^4 with |lambda| in [0.1, 10]."""
    rng = np.random.default_rng(808)
    pairs = []
    for s in range(42):
        n = 2 + s % 3
        P = random_polytope(n, int(rng.integers(4, 11)), 8000 + s)
        lam = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))) * (-1.0) ** s
        pairs.append((apply_homothety(P, rng.uniform(-5.0, 5.0, n), lam), P))
    return pairs


def test_diameter_transfer_matches_greedy_reference(monkeypatch):
    pairs = _transfer_pairs()
    for P1, P2 in pairs:
        got = report_to_text(verify_diameter_transfer(P1, P2))
        assert got == report_to_text(_greedy_diameter_transfer(P1, P2))
        assert '"verdict": "pass"' in got
    # P2 loses its last diameter: P1's diameter onto it is reported unmatched
    full = exposed.exposed_diameters
    for P1, P2 in pairs[:12]:
        monkeypatch.setattr(
            verify, "exposed_diameters", lambda P: full(P)[:-1] if P is P2 else full(P)
        )
        got = report_to_text(verify_diameter_transfer(P1, P2))
        assert got == report_to_text(_greedy_diameter_transfer(P1, P2))
        assert '"verdict": "fail"' in got and "unmatched_diameter" in got


def test_example1():
    rep = verify_example1(100, 1)
    assert rep.verdict == "pass"
    assert rep.passes == 100


def test_reports_are_deterministic(cube):
    P2 = apply_homothety(cube, np.array([1.0, 0.0, -1.0]), -0.5)
    a = report_to_text(verify_theorem1(cube, P2, 2, 25, 9))
    b = report_to_text(verify_theorem1(cube, P2, 2, 25, 9))
    assert a == b
    assert report_to_text(verify_example1(30, 4)) == report_to_text(verify_example1(30, 4))


def _report_branches(monkeypatch, cube, octahedron, square, triangle):
    """(verdict, report) of every report kind and verdict branch, patches undone after each."""
    moved = apply_homothety(cube, np.array([1.0, 2.0, 3.0]), 2.0)
    detect, diameters = homothety.detect_homothety, exposed.exposed_diameters

    def second_frame_fails(P1, P2):
        calls.append(None)
        return None if len(calls) == 3 else detect(P1, P2)

    def no_direct(P1, P2):
        return None if P1.dim == 3 else detect(P1, P2)

    def drop_last_of(Q):
        return lambda P: diameters(P)[:-1] if P is Q else diameters(P)

    P4 = random_polytope(4, 10, 1)
    P5 = apply_homothety(P4, np.array([0.5, -1.0, 2.0, 0.0]), 3.0)
    segment = extreme_points([[0.0, 0.0], [1.0, 1.0]])
    calls = []
    runs = [
        ("pass", None, lambda: verify_theorem1(cube, moved, 2, 10, 0)),
        ("fail", ("detect_homothety", second_frame_fails), lambda: verify_theorem1(cube, moved, 2, 6, 0)),
        ("pass", None, lambda: verify_theorem1(cube, octahedron, 2, 20, 3)),
        ("fail", ("detect_homothety", no_direct), lambda: verify_theorem1(cube, moved, 2, 6, 7)),
        ("pass", None, lambda: verify_corollary1(P4, P5, random_frame(4, 1, 3), 3, 12, 0)),
        ("fail", ("exposed_diameters", lambda P: diameters(P)[:1]), lambda: verify_theorem2(square)),
        ("pass", None, lambda: verify_no_parallel_diameters(segment)),
        ("not-applicable", None, lambda: verify_diameter_transfer(square, triangle)),
        ("pass", None, lambda: verify_diameter_transfer(moved, cube)),
        ("fail", ("exposed_diameters", drop_last_of(cube)), lambda: verify_diameter_transfer(moved, cube)),
        ("fail", ("exposed_diameters", drop_last_of(moved)), lambda: verify_diameter_transfer(moved, cube)),
        ("pass", None, lambda: verify_example1(40, 2)),
    ]
    for verdict, patch, run in runs:
        with monkeypatch.context() as m:
            if patch is not None:
                m.setattr(verify, *patch)
            yield verdict, run()


def test_report_text_is_the_dataclass_dump_on_every_branch(
    monkeypatch, cube, octahedron, square, triangle
):
    reports = []
    for verdict, report in _report_branches(monkeypatch, cube, octahedron, square, triangle):
        assert report.verdict == verdict
        # frozen writer: a deep copy by ``asdict``, then ``_dumps``
        assert report_to_text(report) == _dumps(asdict(report))
        reports.append(report)
    universal_fail, witness, tension = reports[1], reports[2], reports[3]
    assert (universal_fail.existential, universal_fail.passes) == (False, 5)
    assert witness.existential and "projection_1" in witness.witnesses[0]
    assert tension.existential and tension.witnesses == [{"converse_tension": True}]
    assert reports[6].instances_run == 0  # one diameter: no pair to compare
    # P1 keeps one diameter fewer: nothing unmatched, yet P2 has one more
    fewer = reports[10]
    assert fewer.witnesses == [] and fewer.passes == fewer.instances_run - 1
