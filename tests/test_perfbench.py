"""The benchmark's contract with the package: ``perfbench/workloads.py``
runs its ops through the public API, every op passes its own checks, and
the gate self-test ops fail them.  The file is loaded read-only."""

import importlib.util
import sys
from pathlib import Path

import enriques
import enriques.cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_workloads(monkeypatch):
    # no bytecode is written beside the file; the module is registered in
    # sys.modules before it runs, because its dataclasses look it up there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_workload_ops_pass_and_gate_selftest_ops_fail(monkeypatch):
    before = sorted(PERFBENCH.rglob("*"))
    workloads = load_workloads(monkeypatch)

    def problems(op):
        return workloads.check_op(enriques, op, workloads.run_op(enriques, op))

    for name in workloads.WORKLOADS:
        for op in workloads.make_ops(enriques, name, 11, ROOT)[:3]:
            assert problems(op) == [], (name, op)
    selftest = workloads.gate_selftest_ops(enriques)
    assert len(selftest) == 2
    for op in selftest:
        assert problems(op) != [], op
    assert sorted(PERFBENCH.rglob("*")) == before
