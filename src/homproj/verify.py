"""Executable checks for the theorem-level statements, over fixtures and
random instances. Universal statements are sampled (the quantifier over
planes is uncountable); reports say which kind of evidence they carry.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDims, SingletonInput
from .exposed import exposed_diameters
from .geometry import _extend, _seed_state, _words
from .homothety import detect_homothety, homothety_record
from .paraboloid import ParaboloidSpec, _homotheties, _parabolas, paraboloid_homothetic
from .polytope import _distances, _shadow, extreme_points_many

PARALLEL_TOL = 1e-9

# example 1's fixed pair, x^2 + y^2 <= z and 2x^2 + y^2 <= z, and their body homothety (None)
_EXAMPLE1 = ParaboloidSpec(np.eye(2)), ParaboloidSpec(np.diag([2.0, 1.0]))
_EXAMPLE1_RATIO = paraboloid_homothetic(*_EXAMPLE1)


@dataclass
class Report:
    """Outcome of one verification check.

    One rule gives every verdict: a universal check passes iff every instance
    passed (``passes == instances_run``), an existential one (``existential``
    True) iff a witness was found (``passes >= 1``); example 1 also fails when
    its bodies are homothetic. Only a non-homothetic transfer pair is
    "not-applicable". ``witnesses`` carries JSON-ready records for offline
    reproduction.
    """

    check_name: str
    instances_run: int
    passes: int
    seed: int
    verdict: str
    existential: bool = False
    witnesses: list = field(default_factory=list)


def _report(name, instances, passes, witnesses, seed=0, existential=False, holds=True):
    """The one verdict rule of ``Report``; ``holds`` is a further condition (example 1's)."""
    ok = (passes >= 1 if existential else passes == instances) and holds
    return Report(name, instances, passes, seed, "pass" if ok else "fail", existential, witnesses)


def _projection_record(basis, Q1, Q2, result):
    return {
        "frame": basis.tolist(),
        "projection_1": Q1.vertices.tolist(),
        "projection_2": Q2.vertices.tolist(),
        "homothety": homothety_record(result),
    }


def _projection_sweep(name, P1, P2, B, seed):
    """Shared body of the theorem-1 style checks, over the (S, m, n) basis stack B.

    All shadows of P1 and P2, two per frame, are taken as two stacked matmuls
    and hulled in one ``extreme_points_many`` call; each hull equals that of
    its own ``project_polytope`` call. When P1 and P2 are homothetic the check is
    universal: every sampled projection pair must be homothetic. When they
    are not, the check is existential: a non-homothetic projection is the
    sought witness; finding none is flagged as converse tension, since
    sampling cannot prove the universal hypothesis of the converse direction.

    A frame counts iff ``detect_homothety`` finds a map. That implies the
    recheck ``set_equal(Q1, apply_homothety(Q2, shift, ratio))``: it matched
    the same floats z + ratio * Q2.vertices (rows permuted by the canonical
    sort) within tol * max(Q1.scale, image.scale) >= tol * Q1.scale, and
    ``_distances`` takes one exponent over the whole stack, so its distances
    are the same, columns permuted. The two differ only on an exact distance
    tie between two image vertices, and on singletons far from the origin,
    where z + Q2 rounds off Q1 although a point always maps onto a point.
    """
    direct = detect_homothety(P1, P2)
    hulls = extreme_points_many([Q for pair in zip(_shadow(P1, B), _shadow(P2, B)) for Q in pair])
    homothetic_count = 0
    first_bad = None
    for basis, Q1, Q2 in zip(B, hulls[::2], hulls[1::2]):
        result = detect_homothety(Q1, Q2)
        if result is not None:
            homothetic_count += 1
        elif first_bad is None:
            first_bad = _projection_record(basis, Q1, Q2, result)

    existential = direct is None
    witnesses = [] if first_bad is None else [first_bad]
    if not existential:
        witnesses.append({"direct_homothety": homothety_record(direct)})
    elif first_bad is None:
        witnesses.append({"converse_tension": True})
    passes = len(B) - homothetic_count if existential else homothetic_count
    return _report(name, len(B), passes, witnesses, seed, existential)


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
    return _extend(head, m, _seed_state(entropy, 1)[:, 0])


def _sweep(name, P1, P2, sub, m, samples, seed):
    """Projection sweep over m-frames containing sub, with r = dim sub (0 if None).

    Theorem 1 is corollary 1 at r = 0, where r <= m - 2 <= n - 3 reads
    2 <= m <= n - 1.
    """
    n = P1.dim
    if P2.dim != n or (sub is not None and sub.ambient_dim != n):
        raise BadDims("ambient dimensions differ")
    r = 0 if sub is None else sub.sub_dim
    if not r <= m - 2 <= n - 3:
        raise BadDims(f"need r <= m - 2 <= n - 3, got r={r}, m={m}, n={n}")
    return _projection_sweep(name, P1, P2, _frames(n, m, sub, samples, seed), seed)


def verify_theorem1(P1, P2, m, samples, seed):
    """Projection sweep over random m-frames."""
    return _sweep("theorem1", P1, P2, None, m, samples, seed)


def verify_corollary1(P1, P2, sub, m, samples, seed):
    """Projection sweep restricted to m-frames containing the subspace.

    ``sub`` may be None for the trivial zero subspace (r = 0), in which case
    the frames are unconstrained and the report is theorem 1's but for its name.
    """
    return _sweep("corollary1", P1, P2, sub, m, samples, seed)


def verify_theorem2(P):
    """Every vertex must be antipodally exposed (polytope specialization)."""
    if P.num_vertices < 2:
        raise SingletonInput("theorem 2 excludes singletons")
    hit = {k for d in exposed_diameters(P) for k in (d.i, d.j)}
    witnesses = [
        {"missed_vertex": v.tolist()}
        for k, v in enumerate(P.vertices)
        if k not in hit
    ]
    return _report("theorem2", P.num_vertices, P.num_vertices - len(witnesses), witnesses)


def verify_no_parallel_diameters(P):
    """No two distinct exposed diameters may be parallel.

    Two unit directions d_i, d_j count as parallel when
    min(|d_i - d_j|, |d_i + d_j|) = 2 sin(theta / 2) <= PARALLEL_TOL, theta
    the angle between the lines; unlike 1 - |cos theta| it does not cancel
    at small angles. A singleton raises SingletonInput from ``exposed_diameters``.
    """
    diams = exposed_diameters(P)
    X, Z = P.vertices[[d.i for d in diams]], P.vertices[[d.j for d in diams]]
    U = (X - Z) / _distances(X[:, None], Z[:, None])[:, 0]  # |x - z| of each pair alone
    I, J = np.triu_indices(len(diams), 1)
    gaps = np.minimum(_distances(U)[I, J], _distances(U, -U)[I, J])
    witnesses = [
        {
            "diameter_1": [diams[i].x.tolist(), diams[i].z.tolist()],
            "diameter_2": [diams[j].x.tolist(), diams[j].z.tolist()],
        }
        for i, j, gap in zip(I.tolist(), J.tolist(), gaps.tolist())
        if not gap > PARALLEL_TOL
    ]
    return _report("no_parallel_diameters", len(gaps), len(gaps) - len(witnesses), witnesses)


def verify_diameter_transfer(P1, P2):
    """Exposed diameters must map onto each other under a detected homothety.

    With P1 = z + lambda * P2, the inverse map v -> (v - z) / lambda must
    carry the exposed diameters of P1 exactly onto those of P2 (as unordered
    endpoint pairs): the vertex bijection of ``detect_homothety`` must send
    each P1 diameter {i, j} to a P2 diameter. Non-homothetic inputs yield a
    not-applicable verdict.
    """
    h = detect_homothety(P1, P2)
    if h is None:
        return Report(
            check_name="diameter_transfer",
            instances_run=0,
            passes=0,
            seed=0,
            verdict="not-applicable",
        )
    d1 = exposed_diameters(P1)
    pairs2 = {frozenset((e.i, e.j)) for e in exposed_diameters(P2)}
    witnesses = [
        {"unmatched_diameter": [d.x.tolist(), d.z.tolist()]}
        for d in d1
        if frozenset((h.match[d.i], h.match[d.j])) not in pairs2
    ]
    # h.match is a bijection: with no witness, d1's distinct pairs map injectively into pairs2
    passes = len(d1) - len(witnesses)
    return _report("diameter_transfer", max(len(d1), len(pairs2)), passes, witnesses)


def verify_example1(samples, seed):
    """Sharpness example: non-homothetic paraboloids, homothetic shadows.

    Runs the fixed pair A1 = I, A2 = diag(2, 1) over random non-horizontal
    2-frames; every shadow pair must be positively homothetic while the
    solid bodies themselves are not.
    """
    B = _frames(3, 2, None, samples, seed)
    _, ratio = _homotheties(*(_parabolas(spec, B) for spec in _EXAMPLE1))
    witnesses = [{"frame": B[s].tolist()} for s in np.flatnonzero(~(ratio > 0.0))]
    passes = samples - len(witnesses)
    witnesses.append({"body_homothety_ratio": _EXAMPLE1_RATIO})
    return _report("example1", samples, passes, witnesses, seed, holds=_EXAMPLE1_RATIO is None)
