"""The names the benchmark under ``perfbench/`` reads from pdopt.

Its tracer swaps timing wrappers in for module functions and instance
methods by name, and its static BCD counts walk ``BcdPlan.segments``; a
renamed or removed name would only show in a traced benchmark run.  These
tests build every workload's instance with the benchmark's own code.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_wraps_and_restores_every_target(name):
    w = WORKLOADS[name]
    inputs = w.make_inputs(0)
    inst, cfgs = bench.setup(w, inputs, bench.reference(w, inputs, 0))
    problem = inst.problem
    owners = [owner for owner, _, _ in tracing.MODULE_TARGETS] + [
        problem, problem.A, problem.f, problem.g]

    def snapshot():
        return [{k: id(v) for k, v in vars(owner).items()} for owner in owners]

    before = snapshot()
    tracer = tracing.Tracer()
    try:
        tracing.wrap_modules(tracer)
        tracing.wrap_problem(tracer, problem)
    finally:
        tracer.restore()
    assert snapshot() == before
    static = bench.bcd_static(inst, cfgs["iprepdhg"])
    assert static["solver.bcd.spmv_per_epoch"] > 0
