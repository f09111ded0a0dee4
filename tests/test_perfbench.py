"""The benchmark's own gates, replayed in-process so that Tier-1 sees them fail.

``perfbench/run.py`` checks each workload's fixed-seed gate outputs against
``perfbench/digests.json``, and a ``--trace 1`` run builds a ``tracing.Tracer``
that looks up every name in its ``TARGETS``. Both read the package by name
from outside it: an output byte that drifts, or a traced name that a change
deletes or renames, breaks the benchmark. These tests read the perfbench files
and write none of them.
"""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Import a module of ``perfbench/`` by name, as ``run.py`` does, with sys.path restored after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_gate_outputs_match_the_stored_digests(kernel, perfbench):
    run, workloads = perfbench("run"), perfbench("workloads")
    expected = json.loads(run.DIGESTS.read_text())
    assert set(expected) == set(workloads.WORKLOADS)
    for name, wl in workloads.WORKLOADS.items():
        got = [run._digest(wl.run(inst)) for inst in wl.make(run.GATE_SEED, wl.gate)]
        assert got == expected[name], name


@pytest.mark.parametrize("kernel", ["active", "c"], indirect=True)
def test_the_tracer_finds_every_target(kernel, perfbench):
    perfbench("workloads")  # run.py imports the workloads, and with them homproj.files, first
    tracing = perfbench("tracing")
    tracer = tracing.Tracer()  # looks up every target; a missing name raises AttributeError
    assert tracer.names == [name for _, _, name in tracing.TARGETS]
    originals = [original for _, _, original, _ in tracer._bindings]
    unbound = {
        name
        for path, attr, name in tracing.TARGETS
        if not any(o is getattr(tracing._resolve(path), attr) for o in originals)
    }
    # a method of the C Kernel is a fresh bound object at each lookup, so no module holds it
    assert unbound <= {"kernel.simplex_maximize"}
