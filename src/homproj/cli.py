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
from .homothety import detect_homothety
from .polytope import minkowski_sum, project_polytope, random_polytope, support


def _write(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_polytope(path):
    P, dropped = files.read_polytope(path)
    if dropped:
        print(f"warning: dropped {dropped} non-extreme point(s) from {path}",
              file=sys.stderr)
    return P


def _parse_direction(text):
    try:
        u = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise KernelError(f"bad direction {text!r}; expected comma-separated numbers")
    if not np.all(np.isfinite(u)):
        raise KernelError(f"bad direction {text!r}; entries must be finite")
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


def _diameter_doc(d):
    return {
        "x": d.x.tolist(),
        "z": d.z.tolist(),
        "witness": d.witness.tolist(),
        "margin_max": d.margin_max,
        "margin_min": d.margin_min,
    }


def _homothety_doc(result):
    if result is None:
        return {"homothetic": False}
    return {
        "homothetic": True,
        "z": result.shift.tolist(),
        "lambda": result.ratio,
        "residual": result.residual,
    }


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homproj",
        description="Convex-geometry kernel: exposed diameters, projections, "
        "homothety detection, and theorem-level verification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("-o", dest="out", default=None, help="output path")
        return p

    p = cmd("hull", help="canonicalize a point set to its extreme points")
    p.add_argument("points")

    p = cmd("support", help="support function value and face in a direction")
    p.add_argument("polytope")
    p.add_argument("--dir", required=True, help="comma-separated direction")

    p = cmd("project", help="orthogonal projection onto a subspace frame")
    p.add_argument("polytope")
    p.add_argument("--frame", help="frame file")
    p.add_argument("--random-frame", type=int, metavar="M",
                   help="draw a random M-frame instead of reading one")
    p.add_argument("--seed", type=_seed, default=0)

    p = cmd("minkowski", help="Minkowski sum of two polytopes")
    p.add_argument("first")
    p.add_argument("second")

    p = cmd("diameters", help="all exposed diameters")
    p.add_argument("polytope")

    p = cmd("antipodal", help="antipodally exposed points")
    p.add_argument("polytope")

    p = cmd("homothety", help="detect a homothety between two polytopes")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--tol", type=float, default=1e-9)

    p = cmd("verify-theorem1", help="projection sweep over random m-frames")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)

    p = cmd("verify-corollary1", help="sweep over m-frames containing a subspace")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--subspace", default=None,
                   help="frame file for S (omit for the zero subspace)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)

    p = cmd("verify-theorem2", help="all vertices antipodally exposed")
    p.add_argument("polytope")

    p = cmd("verify-lemma-parallel", help="no two exposed diameters parallel")
    p.add_argument("polytope")

    p = cmd("verify-transfer", help="exposed diameters map under the homothety")
    p.add_argument("first")
    p.add_argument("second")

    p = cmd("verify-example1", help="paraboloid sharpness example")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)

    p = cmd("random", help="emit a random polytope (or frame with --frame-dim)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--frame-dim", type=int, default=None,
                   help="emit a random frame of this sub-dimension instead")
    p.add_argument("--seed", type=_seed, default=0)

    return parser


def run(argv):
    args = build_parser().parse_args(argv)
    cmd = args.command

    if cmd == "hull":
        _write(files.polytope_to_text(_read_polytope(args.points)), args.out)
    elif cmd == "support":
        P = _read_polytope(args.polytope)
        res = support(P, _parse_direction(args.dir))
        doc = {
            "value": res.value,
            "face_indices": list(res.face),
            "face_vertices": [P.vertices[i].tolist() for i in res.face],
            "margin": res.margin if res.margin != float("inf") else "inf",
        }
        _write(files._dumps(doc), args.out)
    elif cmd == "project":
        P = _read_polytope(args.polytope)
        if (args.frame is None) == (args.random_frame is None):
            raise KernelError("give exactly one of --frame or --random-frame")
        if args.frame:
            frame = files.read_frame(args.frame)
        else:
            frame = random_frame(P.dim, args.random_frame, args.seed)
        _write(files.polytope_to_text(project_polytope(P, frame)), args.out)
    elif cmd == "minkowski":
        S = minkowski_sum(_read_polytope(args.first), _read_polytope(args.second))
        _write(files.polytope_to_text(S), args.out)
    elif cmd == "diameters":
        P = _read_polytope(args.polytope)
        doc = {"diameters": [_diameter_doc(d) for d in exposed_diameters(P)]}
        _write(files._dumps(doc), args.out)
    elif cmd == "antipodal":
        P = _read_polytope(args.polytope)
        doc = {"points": [v.tolist() for v in antipodally_exposed_points(P)]}
        _write(files._dumps(doc), args.out)
    elif cmd == "homothety":
        result = detect_homothety(
            _read_polytope(args.first), _read_polytope(args.second), args.tol
        )
        _write(files._dumps(_homothety_doc(result)), args.out)
    elif cmd == "verify-theorem1":
        report = verify.verify_theorem1(
            _read_polytope(args.first), _read_polytope(args.second),
            args.m, args.samples, args.seed,
        )
        _write(files.report_to_text(report), args.out)
        return 1 if report.verdict == "fail" else 0
    elif cmd == "verify-corollary1":
        report = verify.verify_corollary1(
            _read_polytope(args.first), _read_polytope(args.second),
            files.read_frame(args.subspace) if args.subspace else None,
            args.m, args.samples, args.seed,
        )
        _write(files.report_to_text(report), args.out)
        return 1 if report.verdict == "fail" else 0
    elif cmd == "verify-theorem2":
        report = verify.verify_theorem2(_read_polytope(args.polytope))
        _write(files.report_to_text(report), args.out)
        return 1 if report.verdict == "fail" else 0
    elif cmd == "verify-lemma-parallel":
        report = verify.verify_no_parallel_diameters(_read_polytope(args.polytope))
        _write(files.report_to_text(report), args.out)
        return 1 if report.verdict == "fail" else 0
    elif cmd == "verify-transfer":
        report = verify.verify_diameter_transfer(
            _read_polytope(args.first), _read_polytope(args.second)
        )
        _write(files.report_to_text(report), args.out)
        return 1 if report.verdict == "fail" else 0
    elif cmd == "verify-example1":
        report = verify.verify_example1(args.samples, args.seed)
        _write(files.report_to_text(report), args.out)
        return 1 if report.verdict == "fail" else 0
    elif cmd == "random":
        if args.frame_dim is not None:
            frame = random_frame(args.dim, args.frame_dim, args.seed)
            _write(files.frame_to_text(frame), args.out)
        else:
            P = random_polytope(args.dim, args.points, args.seed)
            _write(files.polytope_to_text(P), args.out)
    return 0


def main(argv=None):
    try:
        code = run(sys.argv[1:] if argv is None else argv)
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
