"""Cross-core closed-loop identity: Array == Reference, bit for bit.

The PhasePlan precomputes every event template and destination, so the
cores' RNG streams see route draws only, in the same order — closed-loop
runs must match across cores exactly like open-loop runs do.  The native
core hands a plan to a fresh array core, so it matches trivially
(asserted anyway).
"""

import math

import pytest

from repro.engine import ExperimentSpec, build_experiment
from repro.engine.spec import build_metrics, point_seed
from repro.network import SimParams
from repro.network.simulator import Simulator
from repro.workload import PhasePlan, workload_for_traffic

RATE = 0.5


def closed_loop_result(spec, core):
    graph, routing, traffic = build_experiment(spec)
    workload = workload_for_traffic(
        spec.workload, dict(spec.workload_opts), traffic
    )
    seed = point_seed(spec, RATE)
    plan = PhasePlan(
        workload, traffic, params=spec.params, rate=RATE, seed=seed
    )
    params = spec.params.scaled(
        seed=seed, warmup_cycles=0, measure_cycles=plan.horizon(),
        drain_cycles=0,
    )
    sim = Simulator(
        graph, routing, traffic, params, core=core,
        probes=build_metrics(spec),
    )
    result = sim.run(RATE, plan=plan)
    assert plan.finished
    return result


def assert_identical(a, b):
    for f in (
        "offered_rate", "effective_offered", "accepted_rate",
        "avg_latency", "packets_measured", "packets_delivered",
        "flits_ejected", "measure_cycles",
    ):
        va, vb = getattr(a, f), getattr(b, f)
        if isinstance(va, float) and math.isnan(va):
            assert math.isnan(vb), f
        else:
            assert va == vb, f
    assert set(a.channels) == set(b.channels)
    for name in a.channels:
        assert a.channels[name].rows == b.channels[name].rows, name
        sa, sb = a.channels[name].summary, b.channels[name].summary
        assert set(sa) == set(sb), name
        for key in sa:
            if isinstance(sa[key], float) and math.isnan(sa[key]):
                assert math.isnan(sb[key]), (name, key)
            else:
                assert sa[key] == sb[key], (name, key)


def mesh_spec(**kw):
    return ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=SimParams(seed=11), rates=[RATE],
        metrics=("cct", "bubble", "overlap"), **kw,
    )


WORKLOADS_UNDER_TEST = [
    ("ring_allreduce", {"volume": 32}),
    ("hierarchical_allreduce", {"volume": 32}),
    ("all_to_all", {"volume": 32, "compute": 40}),
    ("pipeline", {"volume": 16, "microbatches": 2}),
]


@pytest.mark.parametrize(
    "name,opts", WORKLOADS_UNDER_TEST, ids=[w[0] for w in WORKLOADS_UNDER_TEST]
)
def test_array_reference_identical(name, opts):
    spec = mesh_spec(workload=name, workload_opts=opts)
    a = closed_loop_result(spec, "array")
    r = closed_loop_result(spec, "reference")
    assert_identical(a, r)


def test_native_declines_to_array_loop():
    pytest.importorskip("ctypes")
    spec = mesh_spec(
        workload="ring_allreduce", workload_opts={"volume": 32}
    )
    a = closed_loop_result(spec, "array")
    try:
        n = closed_loop_result(spec, "native")
    except (RuntimeError, OSError) as exc:  # kernel unavailable here
        pytest.skip(f"native core unavailable: {exc}")
    assert_identical(a, n)


def test_native_runs_a_plan_only_as_its_one_run():
    """The plan runs on a fresh array core behind the native one, so a
    native core cannot mix it with runs of its own."""
    from repro.network import native_available

    if not native_available():
        pytest.skip("no C compiler for the native core")
    spec = mesh_spec(
        workload="ring_allreduce", workload_opts={"volume": 32}
    )
    graph, routing, traffic = build_experiment(spec)
    workload = workload_for_traffic(
        spec.workload, dict(spec.workload_opts), traffic
    )

    def plan():
        return PhasePlan(
            workload, traffic, params=spec.params, rate=RATE, seed=1
        )

    sim = Simulator(graph, routing, traffic, spec.params, core="native")
    sim.run(0.2)
    with pytest.raises(RuntimeError, match="only as its one run"):
        sim.run(RATE, plan=plan())
    sim = Simulator(graph, routing, traffic, spec.params, core="native")
    sim.run(RATE, plan=plan())
    with pytest.raises(RuntimeError, match="only as its one run"):
        sim.run(0.2)


def switchless_spec(**kw):
    from repro.api.library import switchless_arch

    return ExperimentSpec.create(
        traffic="uniform", traffic_opts={"scope": ("group", 0)},
        params=SimParams(seed=11), rates=[RATE],
        workload="ring_allreduce", workload_opts={"volume": 64},
        metrics=("cct",),
        **switchless_arch(
            preset="radix16_equiv", num_wgroups=2, cgroups_per_wafer=1
        ),
        **kw,
    )


def test_degraded_fabric_identity_and_masking():
    degraded = switchless_spec(
        faults={"model": "random", "link_rate": 0.05, "die_rate": 0.15,
                "seed": 7},
    )
    a = closed_loop_result(degraded, "array")
    r = closed_loop_result(degraded, "reference")
    assert_identical(a, r)
    cct = a.channels["cct"]
    assert cct.summary["masked_packets"] > 0
    h = closed_loop_result(switchless_spec(), "array")
    # dead dies mask traffic; rerouting around failed links costs time
    assert h.channels["cct"].summary["masked_packets"] == 0.0
    assert cct.summary["makespan"] != h.channels["cct"].summary["makespan"]
