"""The four seeded workloads. Each instance is one public homproj call whose
output is serialized to text, the bytes the benchmark hashes and checks.

Inputs are a pure function of (workload seed, instance index), and each
workload cycles through fixed strata (dimension, subspace dimension, sign
of lambda) so that instance cost depends on the seed as little as possible.
README.md says why each workload exists and which layers it stresses.
"""

import json
from typing import Callable, NamedTuple

import numpy as np

import homproj as hp
from homproj import files

THEOREM1_POINTS = 10
THEOREM1_FRAMES = 8
THEOREM1_STRATA = ((3, 2), (4, 2), (4, 3))  # (n, m)
PLANE_POINTS = 12  # Gaussian samples whose hull is a polygon in R^2
CORPUS_POINTS = 10  # on the unit sphere in R^3 and R^4
CORPUS_DIMS = (2, 3, 4)
DIFFERENCE_POINTS = 7  # on the unit sphere in R^3
DIFFERENCE_DIMS = (2, 3, 3, 3)
DIFFERENCE_EPS = 1e-3
EXAMPLE1_SAMPLES = 100


class Workload(NamedTuple):
    name: str
    count: int  # instances in one pass
    gate: int  # instances of the fixed-seed output gate
    make: Callable  # (seed, count) -> list of instances
    run: Callable  # instance -> output text
    check: Callable  # (instance, output text) -> bool


def _rng(seed, stream, index):
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def _subseed(rng):
    return int(rng.integers(2**31))


def _documents(text):
    """The JSON documents of concatenated reports, in order."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return docs


def _polytope(rng, dim, sphere_points):
    """Seeded polytope of the corpus and difference-body workloads.

    In R^2 it is the hull of PLANE_POINTS Gaussian samples, as in acceptance
    criteria 1 and 2. In higher dimensions it is ``sphere_points`` random
    points on the unit sphere, all of them vertices, so that an instance's
    cost does not swing with a random vertex count.
    """
    if dim == 2:
        return hp.random_polytope(2, PLANE_POINTS, _subseed(rng))
    points = rng.standard_normal((sphere_points, dim))
    return hp.extreme_points(points / np.linalg.norm(points, axis=1)[:, None])


def make_theorem1(seed, count):
    out = []
    for i in range(count):
        n, m = THEOREM1_STRATA[i % len(THEOREM1_STRATA)]
        sign = 1.0 if (i // len(THEOREM1_STRATA)) % 2 == 0 else -1.0
        rng = _rng(seed, 1, i)
        P = hp.random_polytope(n, THEOREM1_POINTS, _subseed(rng))
        z = rng.standard_normal(n)
        lam = sign * float(rng.uniform(0.1, 10.0))
        out.append((hp.apply_homothety(P, z, lam), P, m, _subseed(rng)))
    return out


def run_theorem1(inst):
    P1, P2, m, frame_seed = inst
    return files.report_to_text(hp.verify_theorem1(P1, P2, m, THEOREM1_FRAMES, frame_seed))


def check_theorem1(inst, text):
    (doc,) = _documents(text)
    return doc["verdict"] == "pass" and not doc["existential"] and doc["passes"] == THEOREM1_FRAMES


def make_corpus(seed, count):
    return [
        _polytope(_rng(seed, 2, i), CORPUS_DIMS[i % len(CORPUS_DIMS)], CORPUS_POINTS)
        for i in range(count)
    ]


def run_corpus(P):
    return files.report_to_text(hp.verify_theorem2(P)) + files.report_to_text(
        hp.verify_no_parallel_diameters(P)
    )


def check_corpus(P, text):
    docs = _documents(text)
    return [d["check_name"] for d in docs] == ["theorem2", "no_parallel_diameters"] and all(
        d["verdict"] == "pass" for d in docs
    )


def make_difference(seed, count):
    out = []
    for i in range(count):
        dim = DIFFERENCE_DIMS[i % len(DIFFERENCE_DIMS)]
        rng = _rng(seed, 3, i)
        P = _polytope(rng, dim, DIFFERENCE_POINTS)
        f = rng.standard_normal(dim)
        out.append((P, f / np.linalg.norm(f), _subseed(rng)))
    return out


def run_difference(inst):
    P, f, seed = inst
    d = hp.exposed_diameter_near(P, f, DIFFERENCE_EPS, seed=seed)
    doc = {"x": d.x.tolist(), "z": d.z.tolist(), "witness": d.witness.tolist()}
    return json.dumps(doc) + "\n"


def check_difference(inst, text):
    """support(P + (-P), witness) must be the single point x - z (criterion 4).

    The support is taken over all pairwise differences of vertices, which
    generate P + (-P), so the check shares no hull code with the call.
    """
    P, f, _ = inst
    doc = json.loads(text)
    x, z, g = (np.array(doc[k]) for k in ("x", "z", "witness"))
    V = P.vertices
    if not ((V == x).all(axis=1).any() and (V == z).all(axis=1).any()):
        return False
    if np.linalg.norm(f - g) > DIFFERENCE_EPS:
        return False
    sums = (V[:, None, :] - V[None, :, :]).reshape(-1, P.dim)
    vals = sums @ g
    tol = 1e-9 * max(1.0, 2.0 * hp.diameter(P))
    face = sums[vals >= vals.max() - tol * np.linalg.norm(g)]
    return bool(np.all(np.linalg.norm(face - (x - z), axis=1) <= tol))


def make_example1(seed, count):
    return [_subseed(_rng(seed, 4, i)) for i in range(count)]


def run_example1(seed):
    return files.report_to_text(hp.verify_example1(EXAMPLE1_SAMPLES, seed))


def check_example1(seed, text):
    (doc,) = _documents(text)
    return doc["verdict"] == "pass" and doc["passes"] == EXAMPLE1_SAMPLES


WORKLOADS = {
    w.name: w
    for w in (
        Workload("theorem1_sweep", 240, 6, make_theorem1, run_theorem1, check_theorem1),
        Workload("exposed_corpus", 150, 3, make_corpus, run_corpus, check_corpus),
        Workload("difference_body", 100, 2, make_difference, run_difference, check_difference),
        Workload("example1_shadows", 400, 4, make_example1, run_example1, check_example1),
    )
}
