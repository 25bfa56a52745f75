"""Degraded-topology construction: views, partitions, properties."""

import pytest

from repro.core import SwitchlessConfig, build_switchless
from repro.faults import (
    DegradedTopology,
    FaultSpec,
    degrade,
    sample_faults,
)


@pytest.fixture(scope="module")
def system():
    return build_switchless(SwitchlessConfig.radix8_equiv())


def _degraded(system, **opts):
    return degrade(system, FaultSpec.from_opts(opts))


class TestView:
    def test_ids_stay_stable(self, system):
        deg = _degraded(system, model="random", link_rate=0.05, seed=1)
        assert deg.graph is system.graph  # a view, not a copy

    def test_failed_links_excluded_from_adjacency(self, system):
        deg = _degraded(system, model="random", link_rate=0.05, seed=1)
        for nid in range(system.graph.num_nodes):
            if not deg.alive(nid):
                continue
            for peer, lid in deg.neighbors(nid):
                assert deg.link_ok(lid)
                assert deg.alive(peer)

    def test_path_ok(self, system):
        deg = _degraded(system, model="random", link_rate=0.05, seed=1)
        dead = next(iter(deg.failed_links))
        live = next(
            l.id for l in system.graph.links if deg.link_ok(l.id)
        )
        assert deg.path_ok([(live, 0)])
        assert not deg.path_ok([(live, 0), (dead, 1)])

    def test_component_labels_agree_with_the_view(self, system):
        deg = _degraded(
            system, model="random", link_rate=0.25, die_rate=0.15, seed=7
        )
        assert deg.num_components > 1 and deg.failed_nodes
        lab = deg.component_labels.tolist()
        nodes = range(system.graph.num_nodes)
        assert len(lab) == len(nodes)
        for a in nodes:
            assert (lab[a] >= 0) == deg.alive(a)
            assert lab[a] == (
                -1 if deg.component_of(a) is None else deg.component_of(a)
            )
            for b in nodes:
                assert (
                    lab[a] >= 0 and lab[a] == lab[b]
                ) == deg.reachable(a, b)

    def test_memoised_instance_reused(self, system):
        spec = FaultSpec(model="random", link_rate=0.05, seed=2)
        assert degrade(system, spec) is degrade(system, spec)


class TestPartitions:
    def test_healthy_graph_is_one_component(self, system):
        deg = _degraded(system)
        assert deg.num_components == 1
        props = deg.properties()
        assert props["connected"] is True
        assert props["terminal_reach_fraction"] == 1.0
        assert props["failed_channels"] == 0
        assert props["path_diversity_loss"] == 0.0

    def test_isolating_a_node_is_detected(self, system):
        # cut every channel of one node -> it becomes its own partition
        graph = system.graph
        victim = system.cgroups[0][0].nodes[0]
        channels = tuple(
            (victim, peer) for peer in graph.neighbors_out(victim)
        )
        deg = _degraded(system, model="fixed", failed_channels=channels)
        assert not deg.reachable(victim, system.cgroups[0][0].nodes[1])
        assert deg.num_components == 2
        props = deg.properties()
        assert props["connected"] is False
        assert props["num_terminal_components"] == 2
        assert props["isolated_terminals"] == 1
        assert props["terminal_reach_fraction"] < 1.0

    def test_dead_die_shrinks_alive_terminals(self, system):
        deg = _degraded(system, model="fixed", failed_chips=(0,))
        assert len(deg.alive_terminals()) < len(system.graph.terminals())
        for nid in deg.failed_nodes:
            assert not deg.alive(nid)


class TestProperties:
    def test_report_keys_and_monotonic_damage(self, system):
        lo = _degraded(
            system, model="random", link_rate=0.02, seed=3
        ).properties()
        hi = _degraded(
            system, model="random", link_rate=0.2, seed=3
        ).properties()
        for props in (lo, hi):
            for key in (
                "failed_channels", "failed_channel_fraction",
                "diameter", "average_shortest_path",
                "path_diversity", "path_diversity_loss",
                "num_components", "connected",
            ):
                assert key in props
        assert hi["failed_channels"] > lo["failed_channels"]
        assert 0 < lo["failed_channel_fraction"] < hi[
            "failed_channel_fraction"
        ]

    def test_cutting_parallel_paths_reduces_diversity(self, system):
        # sever most of one C-group's mesh: diversity for pairs through
        # it must drop relative to the healthy wafer
        deg = _degraded(system, model="random", link_rate=0.25, seed=7)
        props = deg.properties()
        assert props["path_diversity"] <= props["path_diversity_healthy"]

    def test_degraded_diameter_not_below_healthy(self, system):
        healthy = _degraded(system).properties()
        degraded = _degraded(
            system, model="random", link_rate=0.1, seed=5
        ).properties()
        if degraded["connected"]:
            assert degraded["diameter"] >= healthy["diameter"]


def test_direct_construction_from_fault_set(system=None):
    system = build_switchless(SwitchlessConfig.radix8_equiv())
    fs = sample_faults(
        system, FaultSpec(model="random", link_rate=0.05, seed=1)
    )
    deg = DegradedTopology(system.graph, fs)
    assert deg.failed_links == fs.failed_links
