"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import zlib

import numpy as np
import pytest

import homproj as hp
from homproj.files import report_to_text


def _report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def _fixtures():
    square = hp.extreme_points([[0, 0], [1, 0], [0, 1], [1, 1]])
    triangle = hp.extreme_points([[0, 0], [1, 0], [0, 1]])
    cube = hp.extreme_points(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    octa = hp.extreme_points(np.vstack([np.eye(3), -np.eye(3)]))
    return {"square": square, "triangle": triangle, "cube": cube, "octahedron": octa}


@pytest.fixture(scope="module")
def fixtures():
    return _fixtures()


@pytest.fixture(scope="module")
def corpus():
    """300 random polytopes: 100 per dimension 2, 3, 4, up to 12 vertices."""
    out = []
    for n in (2, 3, 4):
        for i in range(100):
            out.append(hp.random_polytope(n, 12, 1000 * n + i))
    return out


def test_criterion_1_theorem2_on_random_corpus(corpus):
    failures = 0
    for P in corpus:
        exposed = hp.antipodally_exposed_points(P)
        if len(exposed) != P.num_vertices:
            failures += 1
    _report(f"criterion 1: theorem-2 suite, {len(corpus) - failures}/300 polytopes", failures == 0)


def test_criterion_2_no_parallel_diameters(corpus, fixtures):
    failures = 0
    for P in list(corpus) + list(fixtures.values()):
        dirs = []
        for d in hp.exposed_diameters(P):
            u = d.x - d.z
            dirs.append(u / np.linalg.norm(u))
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                if abs(float(dirs[i] @ dirs[j])) >= 1.0 - 1e-9:
                    failures += 1
    _report("criterion 2: no parallel exposed diameters", failures == 0)


def test_criterion_3_exposed_point_contract(fixtures):
    eps = 1e-3
    failures = 0
    for name, P in fixtures.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(100):
            f = rng.standard_normal(P.dim)
            f /= np.linalg.norm(f)
            try:
                v, g = hp.exposed_point_near(P, f, eps)
            except hp.PerturbationFailed:
                failures += 1
                continue
            res = hp.support(P, g)
            if len(res.face) != 1 or np.linalg.norm(f - g) > eps:
                failures += 1
            elif not np.array_equal(P.vertices[res.face[0]], v):
                failures += 1
    _report("criterion 3: exposed-point-near contract (400 directions)", failures == 0)


def test_criterion_4_difference_body_consistency(fixtures):
    failures = 0
    for name, P in fixtures.items():
        if P.num_vertices < 2:
            continue
        kstar = hp.minkowski_sum(P, hp.negate(P))
        tol = 1e-9 * max(1.0, hp.diameter(kstar))
        rng = np.random.default_rng(zlib.crc32((name + "4").encode()))
        for _ in range(100):
            f = rng.standard_normal(P.dim)
            f /= np.linalg.norm(f)
            try:
                d = hp.exposed_diameter_near(P, f, 1e-3)
            except hp.PerturbationFailed:
                failures += 1
                continue
            res = hp.support(kstar, d.witness)
            if len(res.face) != 1:
                failures += 1
                continue
            vstar = kstar.vertices[res.face[0]]
            if np.linalg.norm((d.x - d.z) - vstar) > tol:
                failures += 1
    _report("criterion 4: difference-body consistency (400 directions)", failures == 0)


def test_criterion_5_theorem1_forward():
    failures = 0
    rng = np.random.default_rng(55)
    for n in (3, 4):
        for pair in range(20):
            P = hp.random_polytope(n, 10, 7000 + 100 * n + pair)
            z = rng.standard_normal(n)
            lam = float(rng.uniform(0.1, 10.0)) * (1 if pair % 2 else -1)
            P1 = hp.apply_homothety(P, z, lam)
            for m in range(2, n):
                rep = hp.verify_theorem1(P1, P, m, 200, 10 * pair + m)
                if rep.verdict != "pass":
                    failures += 1
    _report("criterion 5: theorem-1 forward, 40 pairs x 200 frames", failures == 0)


def test_criterion_6_theorem1_converse_probe(fixtures):
    cube = fixtures["cube"]
    octa = fixtures["octahedron"]
    rnd = hp.random_polytope(3, 10, 616)
    ok = True
    for other in (octa, rnd):
        rep = hp.verify_theorem1(cube, other, 2, 50, 3)
        ok = ok and rep.existential and rep.verdict == "pass"
    _report("criterion 6: converse witness within 50 samples", ok)


def test_criterion_7_example1():
    rep = hp.verify_example1(100, 2)
    ok = rep.verdict == "pass" and rep.passes == 100
    control = hp.paraboloid_homothetic(
        hp.ParaboloidSpec(np.eye(2)), hp.ParaboloidSpec(2.0 * np.eye(2))
    )
    ok = ok and control is not None and abs(control - 0.5) <= 1e-12
    absent = hp.paraboloid_homothetic(
        hp.ParaboloidSpec(np.eye(2)), hp.ParaboloidSpec(np.diag([2.0, 1.0]))
    )
    ok = ok and absent is None
    _report("criterion 7: paraboloid sharpness example", ok)


def _support_grid_oracle(P1, P2, n_dirs=3600):
    """Brute-force homothety detector from support functions on a dense grid.

    The width function h(u) + h(-u) is homothety covariant and its maximum
    over directions equals the diameter, which pins |lambda|; the shift is a
    least-squares fit of h_P1(u) - lambda * h_P2(u) against z . u.
    """
    thetas = np.linspace(0.0, 2 * np.pi, n_dirs, endpoint=False)
    U = np.column_stack([np.cos(thetas), np.sin(thetas)])
    h1 = (P1.vertices @ U.T).max(axis=0)
    h2 = (P2.vertices @ U.T).max(axis=0)
    half = n_dirs // 2
    w1 = h1 + np.roll(h1, half)
    w2 = h2 + np.roll(h2, half)
    lam_abs = w1.max() / w2.max()
    scale = max(1.0, hp.diameter(P1))
    for lam in (lam_abs, -lam_abs):
        target = lam * h2 if lam > 0 else -lam * np.roll(h2, half)
        rhs = h1 - target
        z, *_ = np.linalg.lstsq(U, rhs, rcond=None)
        if np.max(np.abs(rhs - U @ z)) <= 1e-6 * scale:
            return z, lam
    return None


def test_criterion_8_detector_oracle_equivalence():
    rng = np.random.default_rng(88)
    disagreements = 0
    for trial in range(50):
        P2 = hp.random_polytope(2, 8, 8800 + trial)
        if trial % 2 == 0:
            z = rng.standard_normal(2)
            lam = float(rng.uniform(0.1, 10.0)) * (1 if trial % 4 else -1)
            P1 = hp.apply_homothety(P2, z, lam)
        else:
            P1 = hp.random_polytope(2, 8, 9900 + trial)
        detected = hp.detect_homothety(P1, P2)
        oracle = _support_grid_oracle(P1, P2)
        if (detected is None) != (oracle is None):
            disagreements += 1
        elif detected is not None:
            z_o, lam_o = oracle
            img_d = hp.apply_homothety(P2, detected.shift, detected.ratio)
            img_o = hp.apply_homothety(P2, z_o, lam_o)
            if not hp.set_equal(img_d, img_o, 1e-6):
                disagreements += 1
    _report("criterion 8: detector vs support-grid oracle, 50 pairs", disagreements == 0)


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_criterion_9_determinism(fixtures, kernel):
    cube = fixtures["cube"]
    moved = hp.apply_homothety(cube, np.array([0.1, -0.2, 0.3]), -1.5)
    runs = [
        report_to_text(hp.verify_theorem1(cube, moved, 2, 30, 12)) for _ in range(2)
    ]
    ok = runs[0] == runs[1]
    runs = [report_to_text(hp.verify_example1(50, 6)) for _ in range(2)]
    ok = ok and runs[0] == runs[1]
    runs = [report_to_text(hp.verify_theorem2(hp.random_polytope(3, 10, 5))) for _ in range(2)]
    ok = ok and runs[0] == runs[1]
    _report("criterion 9: byte-identical seeded reports", ok)

