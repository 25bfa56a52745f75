"""Cross-core closed-loop identity: reference == native.

A plan's packets are resolved before the loop by the shared front end,
so what differs between the cores is only who releases the phases: the
kernel's dependency counters (native) or ``PhasePlan.begin /
packet_done / flush`` under the reference loop — the specification.
Every run here is compared on every ``SimResult`` field, every
channel's rows and summary, the per-phase records and the per-packet
record columns, over the *workload registry* and four fabrics that each
take a different route-resolution path.
"""

import json

import pytest

from repro.api.library import switchless_arch
from repro.engine import ExperimentSpec, build_experiment
from repro.engine.spec import point_seed
from repro.network import SimParams, native_available
from repro.network import native as native_mod
from repro.network.refcore import ReferenceCore
from repro.network.simulator import Simulator, run_batch
from repro.workload import PhasePlan, list_workloads, workload_for_traffic

RATE = 0.5
#: the application channels plus probes that read per-packet columns.
PROBES = (
    "cct", "bubble", "overlap", "link_util", "latency_hist", "timeseries",
)
DEGRADED = {
    "model": "random", "link_rate": 0.05, "die_rate": 0.15, "seed": 7,
}

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)
CORES = ["reference"] + (["native"] if native_available() else [])


def mesh_spec(**kw):
    return ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=SimParams(seed=11), rates=[RATE], **kw,
    )


def switchless_spec(mode="minimal", **kw):
    return ExperimentSpec.create(
        traffic="uniform", traffic_opts={"scope": ("group", 0)},
        params=SimParams(seed=11), rates=[RATE],
        **switchless_arch(
            mode, preset="radix16_equiv", num_wgroups=2, cgroups_per_wafer=1
        ),
        **kw,
    )


#: fabric -> spec factory; the comment is how a plan's routes resolve.
FABRICS = {
    # the routing's shared RouteTable, in bulk, on every core
    "mesh-xy": mesh_spec,
    # the closed-form plane on the native core, the table on the others
    "switchless-minimal": switchless_spec,
    # FaultAwareRouting (table-routed, no plane) and masked events
    "switchless-degraded": lambda **kw: switchless_spec(
        faults=DEGRADED, **kw
    ),
    # randomised: pre-drawn pair by pair, in template order
    "switchless-valiant": lambda **kw: switchless_spec("valiant", **kw),
}


def build(spec, rate=RATE):
    """``(graph, routing, traffic, plan factory)`` of a spec's point."""
    graph, routing, traffic = build_experiment(spec)
    workload = workload_for_traffic(
        spec.workload, dict(spec.workload_opts), traffic
    )

    def plan(rate=rate):
        return PhasePlan(
            workload, traffic, params=spec.params, rate=rate,
            seed=point_seed(spec, rate),
        )

    return graph, routing, traffic, plan


def snapshot(result, plan, record):
    """Everything two runs of one point must agree on."""
    return {
        # every serialised field, and every channel's rows + summary
        # (NaNs print alike, so the text compares where floats do not)
        "result": json.dumps(result.to_dict(), sort_keys=True),
        "phases": plan.phase_records(),
        "packets": [
            (
                record.p_src[pid], record.p_dst[pid], record.p_t0[pid],
                record.p_meas[pid], record.p_done[pid],
                tuple(record.route(pid)),
            )
            for pid in range(record.num_packets)
        ],
    }


def closed_loop_run(spec, core, rate=RATE):
    graph, routing, traffic, make_plan = build(spec, rate)
    plan = make_plan()
    sim = Simulator(
        graph, routing, traffic,
        spec.params.scaled(seed=point_seed(spec, rate)),
        core=core, probes=PROBES,
    )
    result = sim.run(rate, plan=plan)
    assert plan.finished
    return sim, snapshot(result, plan, sim.last_record)


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("workload", list_workloads())
def test_cores_identical(workload, fabric):
    spec = FABRICS[fabric](workload=workload)
    _, ref = closed_loop_run(spec, "reference")
    assert ref["packets"], "the plan injected nothing"
    for core in CORES[1:]:
        _, got = closed_loop_run(spec, core)
        for part in ref:
            assert got[part] == ref[part], (core, part)


@needs_native
def test_native_plan_never_enters_the_reference_loop(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("ReferenceCore.run reached from the native core")

    monkeypatch.setattr(ReferenceCore, "run", boom)
    spec = mesh_spec(workload="all_to_all")
    graph, routing, traffic, plan = build(spec)
    sim = Simulator(graph, routing, traffic, spec.params, core="native")
    result = sim.run(RATE, plan=plan())
    assert result.packets_delivered == result.packets_measured > 0
    # and keeps running: a plan is one run of the core, not its only one
    assert sim.run(0.2).packets_measured > 0


@needs_native
@pytest.mark.parametrize("threads", [1, 2])
def test_batched_plans_equal_one_lane_runs(threads):
    spec = switchless_spec(workload="hierarchical_allreduce")
    rates = [0.25, 0.5, 1.0]
    graph, routing, traffic, plan = build(spec)
    lanes = [(point_seed(spec, r), r) for r in rates]

    def run(lanes, plans):
        results = run_batch(
            graph, routing, traffic, spec.params, lanes,
            core="native", threads=threads, probes=PROBES, plans=plans,
        )
        return [
            (json.dumps(res.to_dict(), sort_keys=True), p.phase_records())
            for res, p in zip(results, plans)
        ]

    packed = run(lanes, [plan(r) for r in rates])
    solo = [run([lane], [plan(lane[1])])[0] for lane in lanes]
    assert packed == solo
    # pacing shows: the lanes are different runs, not one run thrice
    assert len({res for res, _ in packed}) == len(rates)


# ----------------------------------------------------------------------
# failure paths keep their messages
# ----------------------------------------------------------------------
def test_stuck_plan_names_its_phases_per_lane(monkeypatch):
    """A plan that cannot drain inside its horizon raises, naming the
    phases the loop never stamped ``done`` — the stuck lane's, in a
    batch."""
    spec = mesh_spec(workload="ring_allreduce")
    graph, routing, traffic, plan = build(spec)
    plans = [plan(0.25), plan(0.5)]
    # the second lane's window ends inside its second phase
    monkeypatch.setattr(plans[1], "horizon", lambda: 150, raising=False)
    with pytest.raises(RuntimeError) as err:
        run_batch(
            graph, routing, traffic, spec.params, [(1, 0.25), (2, 0.5)],
            plans=plans,
        )
    assert plans[0].finished and not plans[1].finished
    message = str(err.value)
    assert message.startswith(
        "closed-loop run of workload 'ring_allreduce' did not drain "
        "within 150 cycles; stuck phase(s): "
    )
    done = [r["name"] for r in plans[1].phase_records() if r["done"] >= 0]
    stuck = message.split("stuck phase(s): ")[1].split(", ")
    assert done == ["rs0"] and "rs0" not in stuck and "ag2" in stuck
    assert done + stuck == [p.name for p in plans[1].workload.phases]


@needs_native
@pytest.mark.parametrize("code", [1, 2])
def test_kernel_error_in_a_plan_lane_surfaces_per_lane_codes(
    monkeypatch, code
):
    """Wheel overflow (1) and input-list overflow (2) in a plan lane
    come back through the batch's ``per-lane codes`` message."""
    spec = mesh_spec(workload="ring_allreduce")
    graph, routing, traffic, plan = build(spec)
    build_state = native_mod.NativeCore._build_state

    def cramped(self, ctx):
        st = build_state(self, ctx)
        if self.params.seed == 2:  # the second lane only
            if code == 1:
                st.slot_cap = 1
            else:
                st.max_in = 0
        return st

    monkeypatch.setattr(native_mod.NativeCore, "_build_state", cramped)
    with pytest.raises(RuntimeError, match="per-lane codes") as err:
        run_batch(
            graph, routing, traffic, spec.params, [(1, RATE), (2, RATE)],
            core="native", plans=[plan(), plan()],
        )
    assert f"per-lane codes [0, {code}]" in str(err.value)
