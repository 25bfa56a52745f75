"""The native core's two route sources: closed-form plane and table.

A routing that offers ``route_plane()`` is resolved in bulk from labels
and leaves no per-pair state behind; one that returns ``None`` goes
through the routing's shared :class:`~repro.routing.RouteTable`.
Results are bit-identical either way (and to the reference core,
which always runs the scalar ``route()``).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core import SwitchlessConfig, build_switchless
from repro.network import (
    NativeBatch,
    SimParams,
    Simulator,
    corebase,
    native_available,
)
from repro.routing import DragonflyRouting, SwitchlessRouting
from repro.topology.dragonfly import DragonflyConfig, build_dragonfly
from repro.traffic import UniformTraffic

pytestmark = pytest.mark.skipif(
    not native_available(), reason="needs the compiled kernel"
)

PARAMS = SimParams(warmup_cycles=50, measure_cycles=150, drain_cycles=200)
SEEDS = [3, 4, 5]
RATES = [0.1, 0.3, 0.5]


class TableRoutedSwitchless(SwitchlessRouting):
    """The same routes, but withheld from the plane."""

    def route_plane(self):
        return None


class TableRoutedDragonfly(DragonflyRouting):
    def route_plane(self):
        return None


@pytest.fixture(scope="module")
def switchless():
    return build_switchless(SwitchlessConfig.radix8_equiv())


@pytest.fixture(scope="module")
def dragonfly():
    return build_dragonfly(DragonflyConfig.radix8())


def run_batch(system, routing, **kw):
    batch = NativeBatch(
        system.graph, routing, UniformTraffic(system.graph), PARAMS, SEEDS,
        **kw,
    )
    return batch, batch.run(RATES, threads=1)


@pytest.mark.parametrize("mode", ["minimal", "valiant"])
@pytest.mark.parametrize("policy", ["baseline", "reduced"])
def test_switchless_plane_equals_table(switchless, mode, policy):
    opts = dict(policy=policy, misroute_scope="lower")
    plane, got = run_batch(
        switchless, SwitchlessRouting(switchless, mode, **opts)
    )
    table, want = run_batch(
        switchless, TableRoutedSwitchless(switchless, mode, **opts)
    )
    assert got == want
    assert (
        plane.lanes[0].routing.fallback_count
        == table.lanes[0].routing.fallback_count
    )
    for core in plane.lanes:
        assert core._plane is not None and core._table is None
    # a plane run does not build the routing's table
    assert not hasattr(plane.lanes[0].routing, "_route_table")
    assert all(core._plane is None for core in table.lanes)
    shared = table.lanes[0].routing.route_table()
    if mode == "minimal":
        assert len(shared)
        assert all(core._routes is shared for core in table.lanes)
    else:
        # randomised routes are per packet: a per-core arena each
        assert shared is None
        arenas = {id(core._routes) for core in table.lanes}
        assert len(arenas) == len(table.lanes)


@pytest.mark.parametrize("mode", ["minimal", "valiant"])
def test_dragonfly_plane_equals_table(dragonfly, mode):
    _, got = run_batch(dragonfly, DragonflyRouting(dragonfly, mode, vc_spread=2))
    _, want = run_batch(
        dragonfly, TableRoutedDragonfly(dragonfly, mode, vc_spread=2)
    )
    assert got == want


@pytest.mark.parametrize("mode", ["minimal", "valiant"])
def test_plane_core_equals_reference_core(switchless, mode):
    """Same RNG draws in the same order as the scalar ``route()``."""
    graph = switchless.graph
    traffic = UniformTraffic(graph)
    results = {}
    for core in ("native", "reference"):
        routing = SwitchlessRouting(
            switchless, mode, policy="reduced", misroute_scope="lower"
        )
        sim = Simulator(graph, routing, traffic, PARAMS, core=core)
        schedule = sim.make_schedule(0.4)
        results[core] = (sim.run(0.4, schedule=schedule), routing.fallback_count)
    assert results["native"] == results["reference"]


@pytest.mark.parametrize(
    "cls", [SwitchlessRouting, TableRoutedSwitchless], ids=["plane", "table"]
)
def test_route_donor_is_accepted_and_inert(switchless, cls):
    routing = cls(switchless, "minimal")
    first, want = run_batch(switchless, routing)
    assert first.route_donor is None
    second, got = run_batch(
        switchless, routing, route_donor=first.lanes[0]
    )
    assert got == want and second.route_donor is None


def test_probed_record_reads_the_plane_arena(switchless):
    routing = SwitchlessRouting(switchless, "minimal")
    batch, _ = run_batch(switchless, routing, probes=True)
    record = batch.lanes[1].run_record(RATES[1])
    V = routing.num_vcs
    assert record.num_packets > 100
    for pid in range(0, record.num_packets, 37):
        path = routing._route_via(record.p_src[pid], record.p_dst[pid], None)
        assert list(record.route(pid)) == [l * V + vc for l, vc in path]


def test_overlong_route_still_raises(switchless, monkeypatch):
    monkeypatch.setattr(corebase, "_MAX_HOPS", 3)
    for cls in (SwitchlessRouting, TableRoutedSwitchless):
        with pytest.raises(ValueError, match="exceeds the core's hop field"):
            run_batch(switchless, cls(switchless, "minimal"))


def test_no_per_pair_state_survives_a_batch(switchless):
    """What a plane run leaves allocated does not grow with the pairs
    it resolved (the table path keeps ~200 bytes per pair)."""
    graph = switchless.graph
    traffic = UniformTraffic(graph)

    def retained(routing, rate):
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        batch = NativeBatch(graph, routing, traffic, PARAMS, SEEDS[:1])
        batch.run([rate], threads=1)
        packets = sum(len(core._packets) for core in batch.lanes)
        del batch
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        return kept, packets

    plane_routing = SwitchlessRouting(switchless, "minimal")
    retained(plane_routing, 0.05)  # builds the plane's tables
    few, n_few = retained(plane_routing, 0.05)
    many, n_many = retained(plane_routing, 0.5)
    assert n_many > 8 * n_few
    assert many < few + 16_384

    # the table lives on (and with) the routing object
    table_routing = TableRoutedSwitchless(switchless, "minimal")
    table, n_table = retained(table_routing, 0.5)
    assert table > 50 * n_table > many
