"""Cross-core metric equivalence: probe channels agree bit-for-bit.

All three cores read the same packet table off the shared front end
(no schedule is pinned here), so the post-run probe decode must
produce *identical* channels, rows and summaries — on the smoke
scenario's configurations, on a degraded (faulted) switchless system,
whose repair routes exercise the probe layer's route decoding on an
irregular graph, and under Valiant routing, whose routes are drawn per
packet.  The BFS distance rows behind the misroute floor live per
``(graph, failed_links)`` and are computed once for as long as the
graph does.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.api import load_study
from repro.engine.spec import (
    ExperimentSpec,
    build_experiment,
    build_system,
)
from repro.metrics.record import GraphTables, graph_tables
from repro.network import SimParams, Simulator, native_available

REPO = Path(__file__).resolve().parents[2]

CORES = ["array", "reference"] + (
    ["native"] if native_available() else []
)

PROBES = [
    "link_util", "vc_util", "latency_hist", "timeseries", "misroute",
    "ejection_fairness",
]


def channels_per_core(spec, rate):
    graph, routing, traffic = build_experiment(spec)
    out = {}
    for core in CORES:
        sim = Simulator(
            graph, routing, traffic, spec.params, core=core, probes=PROBES
        )
        res = sim.run(rate)
        out[core] = {
            name: ch.to_dict() for name, ch in res.channels.items()
        }
    return out


def assert_identical(per_core):
    ref_core = CORES[0]
    ref = per_core[ref_core]
    assert sorted(ref) == sorted(PROBES)
    for name in ref:
        assert ref[name]["rows"], f"{name} decoded no rows on {ref_core}"
    for core in CORES[1:]:
        for name in ref:
            # rows first (the bulk of a channel), then everything else
            assert per_core[core][name]["rows"] == ref[name]["rows"], (
                f"{core} core's {name} rows diverged from {ref_core}"
            )
            assert per_core[core][name] == ref[name], (
                f"{core} core's {name} channel diverged from {ref_core}"
            )


def smoke_specs():
    study = load_study(REPO / "scenarios" / "smoke.json")
    return [
        pytest.param(spec, id=spec.label or spec.topology)
        for scenario in study.scenarios
        for spec in scenario.specs
    ]


class TestHealthy:
    @pytest.mark.parametrize("spec", smoke_specs())
    def test_smoke_scenario_channels_identical(self, spec):
        for rate in spec.rates:
            assert_identical(channels_per_core(spec, rate))


def small_spec(mode="minimal", faults=None):
    return ExperimentSpec.create(
        topology="switchless",
        topology_opts={
            "mesh_dim": 3, "chiplet_dim": 1, "num_local": 2,
            "num_global": 1,
        },
        routing="switchless",
        routing_opts={"mode": mode},
        traffic="uniform",
        faults=faults,
        params=SimParams(
            warmup_cycles=120, measure_cycles=300, drain_cycles=200,
            seed=9,
        ),
        rates=[0.25],
        label=f"SW-less-{mode}{'-degraded' if faults else ''}",
    )


class TestValiant:
    def test_valiant_channels_identical(self):
        spec = small_spec("valiant")
        per_core = channels_per_core(spec, spec.rates[0])
        assert_identical(per_core)
        assert per_core[CORES[0]]["misroute"]["summary"]["misrouted"] > 0


class TestDegraded:
    def degraded_spec(self):
        return small_spec(
            faults={"model": "random", "link_rate": 0.08, "seed": 3}
        )

    def test_degraded_channels_identical(self):
        spec = self.degraded_spec()
        per_core = channels_per_core(spec, spec.rates[0])
        assert_identical(per_core)

    def test_degraded_misroute_uses_observed_floor(self):
        """Repaired routes may exceed the healthy graph's BFS distance;
        the probe must not report negative excess."""
        spec = self.degraded_spec()
        per_core = channels_per_core(spec, spec.rates[0])
        hist = per_core[CORES[0]]["misroute"]
        assert all(row[0] >= 0 for row in hist["rows"])


class TestDistanceRowLifetime:
    def test_rows_computed_once_per_graph_and_fault_set(self, monkeypatch):
        """Two points over one graph object share its distance rows (no
        source is ever BFS'd twice); the same graph under a fault set
        gets tables — and rows — of its own."""
        swept = []  # (failed_links, sources) of every BFS sweep
        bfs = GraphTables._bfs

        def counting_bfs(tables, sources):
            swept.append((tables.failed_links, sources.tolist()))
            return bfs(tables, sources)

        monkeypatch.setattr(GraphTables, "_bfs", counting_bfs)
        healthy = small_spec()
        degraded = TestDegraded().degraded_spec()
        system = build_system(healthy)

        def point(spec, rate):
            graph, routing, traffic = build_experiment(spec, system=system)
            assert graph is system.graph
            sim = Simulator(
                graph, routing, traffic, spec.params, core=CORES[0],
                probes=["misroute"],
            )
            sim.run(rate)
            return sim.last_record.tables

        tables = point(healthy, 0.25)
        sources = [s for _, batch in swept for s in batch]
        assert sources and all(failed == frozenset() for failed, _ in swept)
        assert point(healthy, 0.3) is tables is graph_tables(system.graph)
        sources = [s for _, batch in swept for s in batch]
        assert len(sources) == len(set(sources)), "a source was BFS'd twice"
        # every source of the second point was already there or is new
        # once: a third point over the same rows sweeps nothing
        before = len(swept)
        tables.min_hops(np.array(sources), np.array(sources))
        assert len(swept) == before

        faulted = point(degraded, 0.25)
        assert faulted is not tables and faulted.failed_links
        own = [batch for failed, batch in swept if failed]
        assert own and set(own[0]) & set(sources), (
            "the degraded graph must sweep its own rows"
        )
        assert graph_tables(system.graph) is tables
