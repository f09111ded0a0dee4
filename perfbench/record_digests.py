"""Rewrite digests.json from the current package's gate outputs.

    python3 perfbench/record_digests.py

The output gate of run.py compares the serialized outputs of each
workload's fixed-seed gate instances with these digests. Rerun this only
when a change is meant to alter the outputs, and say so in the change.
"""

import json
import sys

from run import DIGESTS, GATE_SEED, SRC, _digest

sys.path.insert(0, str(SRC))
from workloads import WORKLOADS  # noqa: E402


def main():
    doc = {
        wl.name: [_digest(wl.run(inst)) for inst in wl.make(GATE_SEED, wl.gate)]
        for wl in WORKLOADS.values()
    }
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
