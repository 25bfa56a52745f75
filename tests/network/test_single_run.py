"""A simulator core runs once.

Every caller builds a fresh core per point, and both cores, the kernel
and ``PhasePlan`` start a run at cycle 0 with packet ids 0.. — so every
way of running one of them a second time is refused, with one message.
"""

import re

import pytest

from repro.engine import ExperimentSpec, build_experiment
from repro.network import SimParams, native_available
from repro.network.corebase import SINGLE_RUN
from repro.network.native import NativeBatch
from repro.network.simulator import Simulator
from repro.workload import PhasePlan, workload_for_traffic

PARAMS = SimParams(warmup_cycles=50, measure_cycles=150, drain_cycles=100)
RATE = 0.3

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)


def mesh():
    spec = ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform", params=PARAMS,
        workload="ring_allreduce",
    )
    return spec, build_experiment(spec)


def simulator(core, probes):
    """A ``Simulator`` that ran once; returns its second run."""
    _, lane = mesh()
    sim = Simulator(
        *lane, PARAMS, core=core, probes=["latency_hist"] if probes else None
    )
    assert sim.run(RATE).packets_delivered > 0
    return lambda: sim.run(RATE)


def batch():
    """A ``NativeBatch`` that ran once; returns its second run."""
    _, lane = mesh()
    lanes = NativeBatch(*lane, PARAMS, [1, 2])
    lanes.run([RATE, RATE])
    return lambda: lanes.run([RATE, RATE])


def plan(core):
    """A ``PhasePlan`` that drove one run; returns a fresh simulator's
    run under the same plan."""
    spec, lane = mesh()
    workload = workload_for_traffic(spec.workload, {}, lane[2])
    used = PhasePlan(workload, lane[2], params=PARAMS, rate=RATE, seed=1)
    Simulator(*lane, PARAMS, core=core).run(RATE, plan=used)
    used.check_drained()
    return lambda: Simulator(*lane, PARAMS, core=core).run(RATE, plan=used)


SECOND_RUNS = [
    pytest.param(
        lambda core=core, probes=probes: simulator(core, probes),
        id=f"simulator-{core}-{'probed' if probes else 'unprobed'}",
        marks=marks,
    )
    for core, marks in (("reference", ()), ("native", needs_native))
    for probes in (False, True)
] + [
    pytest.param(batch, id="native-batch", marks=needs_native),
    pytest.param(lambda: plan("reference"), id="plan-reference"),
    pytest.param(lambda: plan("native"), id="plan-native", marks=needs_native),
]


@pytest.mark.parametrize("ran_once", SECOND_RUNS)
def test_second_run_is_refused(ran_once):
    second_run = ran_once()
    with pytest.raises(RuntimeError, match=f"^{re.escape(SINGLE_RUN)}$"):
        second_run()
