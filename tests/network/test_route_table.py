"""One route store per routing: the table lives on the routing object.

A deterministic routing without a closed-form plane owns one
:class:`~repro.routing.RouteTable`; every core of that routing —
batch lanes, consecutive batches, the reference core — reads it, so each
pair is resolved through ``route()`` once while the routing lives, and
the table dies with it.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.engine.spec import ExperimentSpec, build_experiment
from repro.network import SimParams, Simulator, native_available, run_batch

PARAMS = SimParams(
    warmup_cycles=100, measure_cycles=250, drain_cycles=250, seed=5
)
LANES = [(31, 0.2), (32, 0.4), (33, 0.6)]
#: ``run_batch`` packs lanes only on the native core; without a compiler
#: the same assertions hold for per-lane reference simulators
BATCH_CORE = "native" if native_available() else "reference"


def mesh_spec(**over):
    kw = dict(
        topology="mesh",
        topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh",
        traffic="uniform",
        params=PARAMS,
        rates=[0.3],
        label="mesh",
    )
    kw.update(over)
    return ExperimentSpec.create(**kw)


SPECS = [
    pytest.param(mesh_spec(), id="xy-mesh"),
    pytest.param(
        mesh_spec(faults={"model": "random", "link_rate": 0.05, "seed": 3}),
        id="fault-aware",
    ),
]


def counted(routing) -> Counter:
    """Count ``routing.route()`` calls per pair from here on."""
    calls: Counter = Counter()
    route = routing.route

    def counting_route(src, dst, rng):
        calls[(src, dst)] += 1
        return route(src, dst, rng)

    routing.route = counting_route
    return calls


def two_batches_and_a_reference_run(spec, routing=None):
    graph, built, traffic = build_experiment(spec)
    routing = routing or built
    results = [
        run_batch(
            graph, routing, traffic, spec.params, LANES, core=BATCH_CORE
        )
        for _ in range(2)
    ]
    results.append(
        Simulator(
            graph, routing, traffic, spec.params, core="reference"
        ).run(0.5)
    )
    return routing, results


@pytest.mark.parametrize("spec", SPECS)
def test_each_pair_is_resolved_once_per_routing(spec):
    _, routing, _ = build_experiment(spec)
    calls = counted(routing)
    two_batches_and_a_reference_run(spec, routing)
    table = routing.route_table()
    assert len(table) == len(calls) > 50
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("spec", SPECS)
def test_full_table_changes_no_result(spec):
    _, want = two_batches_and_a_reference_run(spec)
    _, capped, _ = build_experiment(spec)
    capped.route_memo_max = 8
    _, got = two_batches_and_a_reference_run(spec, capped)
    assert got == want
    assert 0 < len(capped.route_table()) <= 8


def test_table_dies_with_its_routing():
    routing, _ = two_batches_and_a_reference_run(mesh_spec())
    table = weakref.ref(routing.route_table())
    assert len(table())
    del routing
    gc.collect()
    assert table() is None
