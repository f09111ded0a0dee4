"""JSON file formats: polytopes, frames, paraboloids, and reports.

Readers canonicalize (the polytope reader runs extreme-point extraction);
writers emit canonical order with shortest round-trip decimal floats, so
write(read(doc)) is the identity on canonical documents. Every document the
package writes goes through ``_dumps``; non-finite floats become strings.
"""

import json
import math
from dataclasses import asdict

import numpy as np

from .errors import BadNumber, FormatError, MissingField
from .geometry import Frame
from .paraboloid import ParaboloidSpec
from .polytope import Polytope, extreme_points
from .verify import Report


def _require(doc, key):
    if key not in doc:
        raise MissingField(f"missing field {key!r}")
    return doc[key]


def _matrix(doc, key):
    rows = _require(doc, key)
    try:
        M = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadNumber(f"field {key!r} is not a numeric matrix") from exc
    if M.ndim != 2:
        raise FormatError(f"field {key!r} must be an array of equal-length arrays")
    # numpy reads true as 1.0 and "2" as 2.0; JSON numbers only
    if any(type(v) not in (int, float) for row in rows for v in row):
        raise BadNumber(f"field {key!r} holds a value that is not a number")
    if not np.all(np.isfinite(M)):
        raise BadNumber(f"field {key!r} contains a non-finite number")
    return M


def _loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("top-level value must be an object")
    return doc


def _dumps(doc):
    return json.dumps(_finite_only(doc), indent=2) + "\n"


def _finite_only(obj):
    """Replace non-finite floats (inf margins) with strings JSON can carry."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _finite_only(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_only(v) for v in obj]
    return obj


def to_text(obj):
    """Document text of a Polytope, a Frame, a Report or a JSON-ready dict."""
    if isinstance(obj, Polytope):
        return polytope_to_text(obj)
    if isinstance(obj, Frame):
        return frame_to_text(obj)
    if isinstance(obj, Report):
        return report_to_text(obj)
    return _dumps(obj)


def polytope_from_text(text):
    """Parse and canonicalize; returns (polytope, points_dropped)."""
    doc = _loads(text)
    dim = _require(doc, "dim")
    V = _matrix(doc, "vertices")
    if V.shape[1] != dim:
        raise FormatError(f"vertices have length {V.shape[1]}, dim says {dim}")
    P = extreme_points(V)
    return P, V.shape[0] - P.num_vertices


def polytope_to_text(P):
    return _dumps({"dim": P.dim, "vertices": P.vertices.tolist()})


def frame_from_text(text):
    doc = _loads(text)
    n = _require(doc, "ambient_dim")
    m = _require(doc, "sub_dim")
    B = _matrix(doc, "basis")
    if B.shape != (m, n):
        raise FormatError(f"basis shape {B.shape} does not match ({m}, {n})")
    return Frame(B)


def frame_to_text(F):
    return _dumps(
        {
            "ambient_dim": F.ambient_dim,
            "sub_dim": F.sub_dim,
            "basis": F.basis.tolist(),
        }
    )


def paraboloid_from_text(text):
    doc = _loads(text)
    A = _matrix(doc, "A")
    try:
        return ParaboloidSpec(A)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def paraboloid_to_text(spec):
    return _dumps({"A": spec.coeff.tolist()})


def report_to_text(report):
    return _dumps(asdict(report))


def read_polytope(path):
    with open(path, encoding="utf-8") as fh:
        return polytope_from_text(fh.read())


def read_frame(path):
    with open(path, encoding="utf-8") as fh:
        return frame_from_text(fh.read())
