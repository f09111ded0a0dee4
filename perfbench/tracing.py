"""Outside-in tracing of homproj: spans around calls into public functions.

Nothing inside the package changes. ``Tracer`` wraps each target function
and rebinds the wrapper under every name that points at the original in the
``homproj`` modules, because the package binds names with ``from .x import
f`` and a module-level lookup must find the wrapper.

A span is (name index, start, end, parent span index, instance index); spans
stay in memory and ``write`` saves them when the run ends.
"""

import json
import sys
import time

# (module, attribute, layer name). The kernel is whichever backend
# ``homproj.lp`` selected at import.
TARGETS = (
    ("homproj.lp._kernel", "simplex_maximize", "kernel.simplex_maximize"),
    ("homproj.lp", "margin_direction", "lp.margin_direction"),
    ("homproj.polytope", "extreme_points", "polytope.extreme_points"),
    ("homproj.polytope", "project_polytope", "polytope.project_polytope"),
    ("homproj.polytope", "minkowski_sum", "polytope.minkowski_sum"),
    ("homproj.polytope", "support", "polytope.support"),
    ("homproj.exposed", "exposed_diameters", "exposed.exposed_diameters"),
    ("homproj.exposed", "antipodally_exposed_points", "exposed.antipodally_exposed_points"),
    ("homproj.exposed", "exposed_diameter_near", "exposed.exposed_diameter_near"),
    ("homproj.exposed", "exposed_point_near", "exposed.exposed_point_near"),
    ("homproj.homothety", "detect_homothety", "homothety.detect_homothety"),
    ("homproj.homothety", "set_equal", "homothety.set_equal"),
    ("homproj.homothety", "apply_homothety", "homothety.apply_homothety"),
    ("homproj.geometry", "random_frame", "geometry.random_frame"),
    ("homproj.paraboloid", "project_paraboloid", "paraboloid.project_paraboloid"),
    ("homproj.paraboloid", "parabola_homothety", "paraboloid.parabola_homothety"),
    ("homproj.verify", "verify_theorem1", "verify.verify_theorem1"),
    ("homproj.verify", "verify_theorem2", "verify.verify_theorem2"),
    ("homproj.verify", "verify_no_parallel_diameters", "verify.verify_no_parallel_diameters"),
    ("homproj.verify", "verify_example1", "verify.verify_example1"),
    ("homproj.files", "report_to_text", "files.report_to_text"),
)

# Counters beyond the call count, derived from arguments and results.
COUNTERS = (
    "kernel.simplex_maximize.cells",
    "kernel.simplex_maximize.rows_max",
    "polytope.extreme_points.points_in",
    "polytope.extreme_points.points_out",
    "exposed.exposed_diameters.pair_lps",
    "exposed.exposed_diameters.found",
)


def _count_kernel(counts, args, result):
    m, n = args[0].shape  # A x <= b with A m x n; the tableau is (m+1) x (n+m+1)
    counts["kernel.simplex_maximize.cells"] += (m + 1) * (n + m + 1)
    if m + 1 > counts["kernel.simplex_maximize.rows_max"]:
        counts["kernel.simplex_maximize.rows_max"] = m + 1


def _count_extreme(counts, args, result):
    counts["polytope.extreme_points.points_in"] += len(args[0])
    counts["polytope.extreme_points.points_out"] += result.num_vertices


def _count_diameters(counts, args, result):
    k = args[0].num_vertices
    counts["exposed.exposed_diameters.pair_lps"] += k * (k - 1) // 2
    counts["exposed.exposed_diameters.found"] += len(result)


HOOKS = {
    "kernel.simplex_maximize": _count_kernel,
    "polytope.extreme_points": _count_extreme,
    "exposed.exposed_diameters": _count_diameters,
}


def _resolve(path):
    """Module object for a dotted path whose last parts may be attributes."""
    head, *rest = path.split(".")
    obj = sys.modules[head]
    for part in rest:
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Span recorder for the TARGETS of the imported homproj package.

    ``attach`` rebinds the wrappers and ``detach`` restores the originals, so
    code run while detached pays nothing for the tracer.
    """

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self.spans = []
        self.stack = []
        self.instance = -1
        self.calls = dict.fromkeys(self.names, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        modules = [m for k, m in sys.modules.items() if k == "homproj" or k.startswith("homproj.")]
        self._bindings = []
        for index, (path, attr, name) in enumerate(TARGETS):
            original = getattr(_resolve(path), attr)
            wrapper = self._wrap(original, index, HOOKS.get(name))
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, key, original, wrapper))

    def _wrap(self, fn, index, hook):
        tracer = self
        spans = self.spans
        stack = self.stack
        name = self.names[index]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, tracer.instance)
            tracer.calls[name] += 1
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def attach(self):
        for module, key, _, wrapper in self._bindings:
            setattr(module, key, wrapper)

    def detach(self):
        for module, key, original, _ in self._bindings:
            setattr(module, key, original)

    def self_times(self):
        """Self time per layer: span duration minus its children's durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(self.names, 0.0)
        for slot, (index, start, end, _, _) in enumerate(self.spans):
            out[self.names[index]] += end - start - child[slot]
        return out

    def top_level_time(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path):
        doc = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "instance"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
