"""Command-line entry point.

Exit codes: 0 = command completed (negative answers like "not homothetic"
are data, not errors), 1 = a verify-* check failed, 2 = usage/input error.
Results go to stdout (or -o), warnings to stderr.
"""

import argparse
import sys

import numpy as np

from . import files, verify
from .errors import KernelError
from .exposed import antipodally_exposed_points, exposed_diameters
from .geometry import random_frame
from .homothety import detect_homothety, homothety_record
from .polytope import REL_TOL, minkowski_sum, project_polytope, random_polytope, support


def _read_polytope(path):
    P, dropped = files.read_polytope(path)
    if dropped:
        print(f"warning: dropped {dropped} non-extreme point(s) from {path}",
              file=sys.stderr)
    return P


def _read_pair(args):
    return _read_polytope(args.first), _read_polytope(args.second)


def _parse_direction(text):
    try:
        u = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise KernelError(f"bad direction {text!r}; expected comma-separated numbers")
    return u


def _seed(text):
    """argparse type of every --seed: numpy takes non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


def _support(args):
    P = _read_polytope(args.polytope)
    res = support(P, _parse_direction(args.dir))
    return {
        "value": res.value,
        "face_indices": list(res.face),
        "face_vertices": [P.vertices[i].tolist() for i in res.face],
        "margin": res.margin,
    }


def _project(args):
    P = _read_polytope(args.polytope)
    if (args.frame is None) == (args.random_frame is None):
        raise KernelError("give exactly one of --frame or --random-frame")
    if args.frame:
        frame = files.read_frame(args.frame)
    else:
        frame = random_frame(P.dim, args.random_frame, args.seed)
    return project_polytope(P, frame)


def _diameters(args):
    return {"diameters": [
        {
            "x": d.x.tolist(),
            "z": d.z.tolist(),
            "witness": d.witness.tolist(),
            "margin_max": d.margin_max,
            "margin_min": d.margin_min,
        }
        for d in exposed_diameters(_read_polytope(args.polytope))
    ]}


def _homothety(args):
    record = homothety_record(detect_homothety(*_read_pair(args), args.tol))
    return {"homothetic": record is not None, **(record or {})}


def _corollary1(args):
    P1, P2 = _read_pair(args)
    sub = files.read_frame(args.subspace) if args.subspace else None
    return verify.verify_corollary1(P1, P2, sub, args.m, args.samples, args.seed)


def _random(args):
    if args.frame_dim is not None:
        return random_frame(args.dim, args.frame_dim, args.seed)
    return random_polytope(args.dim, args.points, args.seed)


# Argument groups shared by several commands: (flags, add_argument keywords).
POLYTOPE = [(("polytope",), {})]
PAIR = [(("first",), {}), (("second",), {})]
M = [(("--m",), {"type": int, "required": True})]
SAMPLES = [(("--samples",), {"type": int, "default": 100})]
SEED = [(("--seed",), {"type": _seed, "default": 0})]

# (name, help, arguments, handler). A handler takes the parsed arguments and
# returns what the command prints: a Polytope, a Frame, a Report or a
# JSON-ready dict, which files.to_text turns into the document.
COMMANDS = [
    ("hull", "canonicalize a point set to its extreme points",
     [(("points",), {})], lambda a: _read_polytope(a.points)),
    ("support", "support function value and face in a direction",
     POLYTOPE + [(("--dir",), {"required": True, "help": "comma-separated direction"})],
     _support),
    ("project", "orthogonal projection onto a subspace frame",
     POLYTOPE + [
         (("--frame",), {"help": "frame file"}),
         (("--random-frame",), {"type": int, "metavar": "M",
                                "help": "draw a random M-frame instead of reading one"}),
     ] + SEED,
     _project),
    ("minkowski", "Minkowski sum of two polytopes",
     PAIR, lambda a: minkowski_sum(*_read_pair(a))),
    ("diameters", "all exposed diameters", POLYTOPE, _diameters),
    ("antipodal", "antipodally exposed points",
     POLYTOPE, lambda a: {"points": [
         v.tolist() for v in antipodally_exposed_points(_read_polytope(a.polytope))
     ]}),
    ("homothety", "detect a homothety between two polytopes",
     PAIR + [(("--tol",), {"type": float, "default": REL_TOL})], _homothety),
    ("verify-theorem1", "projection sweep over random m-frames",
     PAIR + M + SAMPLES + SEED,
     lambda a: verify.verify_theorem1(*_read_pair(a), a.m, a.samples, a.seed)),
    ("verify-corollary1", "sweep over m-frames containing a subspace",
     PAIR + [(("--subspace",), {"help": "frame file for S (omit for the zero subspace)"})]
     + M + SAMPLES + SEED,
     _corollary1),
    ("verify-theorem2", "all vertices antipodally exposed",
     POLYTOPE, lambda a: verify.verify_theorem2(_read_polytope(a.polytope))),
    ("verify-lemma-parallel", "no two exposed diameters parallel",
     POLYTOPE, lambda a: verify.verify_no_parallel_diameters(_read_polytope(a.polytope))),
    ("verify-transfer", "exposed diameters map under the homothety",
     PAIR, lambda a: verify.verify_diameter_transfer(*_read_pair(a))),
    ("verify-example1", "paraboloid sharpness example",
     SAMPLES + SEED, lambda a: verify.verify_example1(a.samples, a.seed)),
    ("random", "emit a random polytope (or frame with --frame-dim)",
     [
         (("--dim",), {"type": int, "required": True}),
         (("--points",), {"type": int, "default": 8}),
         (("--frame-dim",), {"type": int,
                             "help": "emit a random frame of this sub-dimension instead"}),
     ] + SEED,
     _random),
]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homproj",
        description="Convex-geometry kernel: exposed diameters, projections, "
        "homothety detection, and theorem-level verification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, handler in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", dest="out", default=None, help="output path")
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def run(argv):
    args = build_parser().parse_args(argv)
    result = args.handler(args)
    text = files.to_text(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if isinstance(result, verify.Report) and result.verdict == "fail" else 0


def main(argv=None):
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except (KernelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
