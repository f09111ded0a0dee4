"""Seeded end-to-end benchmark of homproj, with an optional traced run.

    python3 perfbench/run.py --workload theorem1_sweep --seed 1 --seconds 20 --trace 0

Runs one workload of ``workloads.py`` through the package in ``src/`` of the
checkout: one process, one thread, one caller, each instance one public
call. Every output is checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of ``tracing.py``. Times are in ref, the unit that
``calib.py`` defines; README.md explains why.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 3
CAL_PASSES = 3  # calibration passes on each side of a set-up step
GATE_SEED = 903
TRACE_PAIR_EVERY = 4  # in a traced run, every 4th instance also runs untraced
# Median seconds of one ref on the host where the benchmark was defined
# (2-core Intel Xeon, Python 3.11, numpy 2.4); converts set-up ref to s.
REF_SECONDS = 0.004

IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import homproj"

sys.path.insert(0, str(HERE))
import calib  # noqa: E402  (frozen; imports numpy only)


def _ref():
    return statistics.median(calib.ref_pass() for _ in range(CAL_PASSES))


def _in_ref(step):
    """Time step() between calibration passes; returns (seconds, refs, value)."""
    before = _ref()
    start = time.perf_counter()
    value = step()
    seconds = time.perf_counter() - start
    return seconds, seconds / ((before + _ref()) / 2), value


def _start_interpreter():
    """A fresh interpreter that imports homproj, as every CLI call starts."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True, timeout=60)


def _environment(hp):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": hp.BACKEND,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run_one(wl, inst, failures):
    """Time one call; returns (seconds, output text or None on an exception)."""
    start = time.perf_counter()
    try:
        text = wl.run(inst)
    except Exception:  # a failed instance is counted, and the run goes on
        text = None
        if not failures:
            traceback.print_exc()
    return time.perf_counter() - start, text


def _timed_phase(wl, inputs, seconds, tracer):
    """Closed loop over the instances, pass after pass, for ``seconds``.

    At least one whole pass runs. A calibration pass runs before every
    instance and once at the end, and each instance is measured against the
    mean of the two passes around it. The first output of each instance is
    checked, later ones must repeat it byte for byte. In a traced run every
    instance runs traced and every TRACE_PAIR_EVERY-th also untraced, in
    alternating order, for the tracing overhead.
    """
    n = len(inputs)
    cal, samples, first, failures = [], [], [None] * n, []
    snapshot = None
    begin = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - begin < seconds:
        k = i % n
        modes = [tracer is not None]
        if tracer is not None and i % TRACE_PAIR_EVERY == 0:
            modes = [False, True] if (i // TRACE_PAIR_EVERY) % 2 else [True, False]
        cal.append(calib.ref_pass())
        for traced in modes:
            if traced:
                tracer.instance = i
                tracer.attach()
            dt, text = _run_one(wl, inputs[k], failures)
            if traced:
                tracer.detach()
            if first[k] is None:
                ok = text is not None and wl.check(inputs[k], text)
                if ok:
                    first[k] = text
            else:
                ok = text == first[k]
            if not ok:
                failures.append(i)
            samples.append((i, traced, dt))
        i += 1
        if i == n and tracer is not None:
            snapshot = dict(tracer.calls, **tracer.counts)
    cal.append(calib.ref_pass())
    rows = [(j, traced, dt, dt / ((cal[j] + cal[j + 1]) / 2)) for j, traced, dt in samples]
    return rows, len(failures), i // n, snapshot, cal


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(rows, n, passes, setup_ref):
    refs = [r for _, _, _, r in rows]
    per_pass = [sum(r for j, _, _, r in rows if j // n == p) for p in range(passes)]
    return {
        "setup_s": (setup_ref * REF_SECONDS, "s"),
        "run_ref": (statistics.median(per_pass), "ref"),
        "instance_ref.p50": (statistics.median(refs), "ref"),
        "instance_ref.p90": (_quantile(refs, 90), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(rows, tracer, snapshot):
    traced_wall = sum(dt for _, traced, dt, _ in rows if traced)
    paired = {}
    for j, traced, _, r in rows:
        paired.setdefault(j, {})[traced] = r
    pairs = [p for p in paired.values() if len(p) == 2]
    selfs = tracer.self_times()
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = (snapshot[name], "count")
        out[f"{name}.self_frac"] = (selfs[name] / traced_wall, "frac")

    def ratio(num, den):
        return snapshot[num] / snapshot[den] if snapshot[den] else 0.0

    out["kernel.simplex_maximize.cells"] = (snapshot["kernel.simplex_maximize.cells"], "count")
    out["kernel.simplex_maximize.rows_max"] = (snapshot["kernel.simplex_maximize.rows_max"], "count")
    out["polytope.extreme_points.kept_frac"] = (
        ratio("polytope.extreme_points.points_out", "polytope.extreme_points.points_in"),
        "frac",
    )
    out["exposed.exposed_diameters.found_frac"] = (
        ratio("exposed.exposed_diameters.found", "exposed.exposed_diameters.pair_lps"),
        "frac",
    )
    out["trace.overhead_frac"] = (
        sum(p[True] for p in pairs) / sum(p[False] for p in pairs) - 1.0,
        "frac",
    )
    out["trace.coverage_frac"] = (tracer.top_level_time() / traced_wall, "frac")
    return out


def _measure(args, hp, wl):
    """Set up, gate and time one workload; returns the run record."""
    from tracing import Tracer

    imports = [_in_ref(_start_interpreter) for _ in range(SETUP_REPEATS)]
    makes = [_in_ref(lambda: wl.make(args.seed, wl.count)) for _ in range(SETUP_REPEATS)]
    inputs = makes[0][2]

    # output gate: fixed-seed instances against the stored digests
    expected = json.loads(DIGESTS.read_text())[wl.name]
    gate = [_run_one(wl, inst, [])[1] for inst in wl.make(GATE_SEED, wl.gate)]
    gate = [_digest(text) if text is not None else None for text in gate]
    gate_failed = sum(a != b for a, b in zip(gate, expected)) + abs(len(gate) - len(expected))

    tracer = Tracer() if args.trace else None
    gc.collect()
    rows, failed, passes, snapshot, cal = _timed_phase(wl, inputs, args.seconds, tracer)

    def med(steps, field):
        return statistics.median(step[field] for step in steps)

    setup_ref = med(imports, 1) + med(makes, 1)
    if args.trace:
        metrics = _per_layer(rows, tracer, snapshot)
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.json")
    else:
        metrics = _end_to_end(rows, wl.count, passes, setup_ref)
    return {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": _environment(hp),
        "instances_per_pass": wl.count,
        "complete_passes": passes,
        "instance_runs": len(rows),
        "gate_instances": len(gate),
        "gate_failed": gate_failed,
        "attempted": len(rows) + len(gate),
        "failed": failed + gate_failed,
        "setup_raw_s": med(imports, 0) + med(makes, 0),
        "ref_pass_s": statistics.median(cal),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": rows,
        "calibration_s": cal,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "homproj" / "__init__.py").is_file():
        print(f"error: no homproj package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import homproj as hp

    if Path(hp.__file__).resolve().parent != (SRC / "homproj").resolve():
        print(f"error: imported homproj from {hp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    calib.check()
    OUT.mkdir(exist_ok=True)

    record = _measure(args, hp, WORKLOADS[args.workload])
    (OUT / f"{record['workload']}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    env = record["env"]
    print(f"# {record['workload']} seed={args.seed} trace={args.trace} backend={env['backend']}")
    print(f"# env {json.dumps(env)}")
    print(
        f"# samples: {record['instance_runs']} instance runs, {record['complete_passes']} complete "
        f"passes of {record['instances_per_pass']}, {record['gate_instances']} gate instances "
        f"(digest mismatches: {record['gate_failed']})"
    )
    print(f"# failed_frac {record['failed'] / record['attempted']:.6g} ({record['failed']}/{record['attempted']})")
    print(f"# raw: setup {record['setup_raw_s']:.4f} s, median ref {record['ref_pass_s'] * 1e3:.4f} ms")
    for name, m in record["metrics"].items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    result = {key: record[key] for key in ("attempted", "failed", "metrics")}
    print(json.dumps({"correct": record["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
