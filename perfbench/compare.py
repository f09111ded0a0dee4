"""Compare two sets of run records of one workload against the bounds.

    python3 perfbench/compare.py --base OLD/*.json --new NEW/*.json

Records are the files run.py writes to perfbench/out/. The comparison is
refused when the sets mix workloads, traced and untraced runs, or LP
backends: a ref measured on the compiled kernel says nothing about one
measured on the Python fallback.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    for key in ("workload", "trace"):
        values = {r[key] for r in base + new}
        if len(values) != 1:
            print(f"incomparable: records differ in {key}: {sorted(values)}", file=sys.stderr)
            return 2
    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"incomparable: records come from backends {sorted(backends)}", file=sys.stderr)
        return 2

    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    worse = 0
    print(f"{base[0]['workload']} backend={backends.pop()} base n={len(base)} new n={len(new)}")
    for name in base[0]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (n - b) / b if b else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and change > bound:
            flag = "  WORSE than bound"
            worse += 1
        limit = f"bound {bound:.2f}" if bound is not None else "no bound"
        print(f"  {name:44s} {b:12.6g} -> {n:12.6g}  {change:+8.2%}  {limit}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
