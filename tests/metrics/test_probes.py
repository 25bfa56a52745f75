"""Built-in probes against a small deterministic workload."""

import math

import pytest

from repro.engine.spec import ExperimentSpec, build_experiment
from repro.metrics import (
    Probe,
    RunRecord,
    build_probe,
    build_probes,
    list_probes,
    normalize_metrics,
    probe_descriptions,
)
from repro.network import SimParams, Simulator

PARAMS = SimParams(
    warmup_cycles=100, measure_cycles=300, drain_cycles=200, seed=5
)

ALL_PROBES = [
    "ejection_fairness", "latency_hist", "link_util", "misroute",
    "timeseries", "vc_util",
]


def run_probed(mode="minimal", probes=ALL_PROBES, rate=0.3):
    spec = ExperimentSpec.create(
        topology="switchless",
        topology_opts={"preset": "small_equiv"},
        routing="switchless",
        routing_opts={"mode": mode},
        traffic="uniform",
        params=PARAMS,
    )
    graph, routing, traffic = build_experiment(spec)
    sim = Simulator(graph, routing, traffic, PARAMS, probes=probes)
    return sim.run(rate), sim


class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL_PROBES) <= set(list_probes())

    def test_descriptions_nonempty(self):
        for name, desc in probe_descriptions().items():
            assert desc, f"{name} has no description"

    def test_unknown_kind_fails(self):
        with pytest.raises(ValueError, match="unknown probe kind"):
            build_probe("heisenberg")

    def test_normalize_accepts_names_and_options(self):
        axis = normalize_metrics(["link_util", ("latency_hist", {"bins": 8})])
        assert axis == (
            ("link_util", ()),
            ("latency_hist", (("bins", 8),)),
        )
        # idempotent on the frozen form
        assert normalize_metrics(axis) == axis

    def test_normalize_rejects_bad_options(self):
        with pytest.raises(TypeError, match="not spec-serialisable"):
            normalize_metrics([("latency_hist", {"bins": [1, 2]})])

    def test_normalize_rejects_duplicate_kinds(self):
        """Channels are keyed by name: a duplicate kind would silently
        overwrite the first one's channel."""
        with pytest.raises(ValueError, match="appears twice"):
            normalize_metrics([("link_util", {"top": 5}), "link_util"])

    @pytest.mark.parametrize("kind", ["link_util", "vc_util"])
    @pytest.mark.parametrize("top", [-1, 2.5, True, "3"])
    def test_top_must_be_a_non_negative_integer(self, kind, top):
        """``top=-1`` used to slice ``sorted(rows)[:-1]`` and silently
        drop the least-loaded row; it now fails where ``bins < 1`` and
        ``window < 1`` do, at spec-creation time."""
        with pytest.raises(ValueError, match="top must be an integer >= 0"):
            ExperimentSpec.create(
                topology="switchless",
                topology_opts={"preset": "small_equiv"},
                routing="switchless",
                traffic="uniform",
                params=PARAMS,
                metrics=[(kind, {"top": top})],
            )

    def test_probe_list_realises_options(self):
        probes = build_probes([("latency_hist", {"bins": 4})])
        assert probes[0].bins == 4

    def test_probe_list_passes_instances_through(self):
        """The one probe-list builder serves ``Simulator(probes=...)``
        too: instances stay themselves, in place, among built ones."""
        mine = build_probe("misroute")
        probes = build_probes(["link_util", mine, ("vc_util", {"top": 3})])
        assert [p.name for p in probes] == ["link_util", "misroute", "vc_util"]
        assert probes[1] is mine and probes[2].top == 3
        assert build_probes(probes) == probes
        assert build_probes(None) == [] and build_probes("misroute")
        with pytest.raises(ValueError, match="appears twice"):
            build_probes(["link_util", mine, "link_util"])


class TestChannelsOnResult:
    def test_channels_present_and_named(self):
        res, _ = run_probed()
        assert sorted(res.channels) == sorted(ALL_PROBES)
        for name, ch in res.channels.items():
            assert ch.name == name

    def test_simresult_aggregates_unchanged_by_probes(self):
        res_on, _ = run_probed()
        spec_off, _ = None, None
        res_off, _ = run_probed(probes=None)
        d_on, d_off = res_on.to_dict(), res_off.to_dict()
        d_on.pop("channels")
        assert d_on == d_off

    def test_link_util_accounts_measured_delivered_flits(self):
        res, sim = run_probed()
        record = sim.last_record
        ch = res.channels["link_util"]
        pkt_len = PARAMS.packet_length
        expect = sum(
            record.p_hops[pid] * pkt_len
            for pid in record.measured_delivered_pids()
        )
        assert ch.summary["total_flit_hops"] == expect
        assert sum(ch.column("flits")) == expect

    def test_top_n_truncates_rows_but_not_summary(self):
        """top-N thins the exported table only; summary statistics
        (mean load, links_used) still describe every used link."""
        res_full, _ = run_probed(probes=["link_util"])
        res_top, _ = run_probed(probes=[("link_util", {"top": 5})])
        full = res_full.channels["link_util"]
        top = res_top.channels["link_util"]
        assert top.num_rows == 5 < full.num_rows
        assert top.summary == full.summary
        hottest = max(full.rows, key=lambda r: r[3])
        assert hottest in top.rows

    def test_vc_util_totals_match_link_util(self):
        res, _ = run_probed()
        assert sum(res.channels["vc_util"].column("flits")) == sum(
            res.channels["link_util"].column("flits")
        )

    def test_latency_hist_matches_simresult_percentiles(self):
        res, _ = run_probed()
        s = res.channels["latency_hist"].summary
        assert s["avg"] == pytest.approx(res.avg_latency)
        assert s["p50"] == pytest.approx(res.p50_latency)
        assert s["p99"] == pytest.approx(res.p99_latency)
        assert sum(res.channels["latency_hist"].column("count")) == s["packets"]

    def test_timeseries_covers_measurement_window(self):
        res, sim = run_probed()
        ch = res.channels["timeseries"]
        record = sim.last_record
        assert ch.rows[0][0] == record.measure_start
        assert ch.rows[-1][1] == record.measure_end
        injected = sum(ch.column("injected"))
        assert injected == res.packets_measured
        completed = sum(ch.column("completed"))
        assert completed + ch.summary["completed_in_drain"] == (
            res.packets_delivered
        )

    def test_flat_minimal_routing_never_misroutes(self):
        """XY routes in a mesh are graph-minimal: excess must be 0."""
        spec = ExperimentSpec.create(
            topology="mesh",
            topology_opts={"dim": 4, "chiplet_dim": 2},
            routing="xy_mesh",
            traffic="uniform",
            params=PARAMS,
        )
        graph, routing, traffic = build_experiment(spec)
        res = Simulator(
            graph, routing, traffic, PARAMS, probes=["misroute"]
        ).run(0.4)
        s = res.channels["misroute"].summary
        assert s["misroute_ratio"] == 0.0
        assert s["avg_excess"] == 0.0

    def test_valiant_misroutes_more_than_minimal(self):
        """The Fig. 13 signal: Valiant detours lift hop counts and the
        misroute ratio far above the minimal policy's structural
        offset on the same switch-less system."""
        res_min, _ = run_probed("minimal")
        res_val, _ = run_probed("valiant")
        s_min = res_min.channels["misroute"].summary
        s_val = res_val.channels["misroute"].summary
        assert s_val["misroute_ratio"] > s_min["misroute_ratio"]
        assert s_val["avg_excess"] > s_min["avg_excess"]
        assert s_val["avg_hops"] > s_min["avg_hops"]

    def test_ejection_fairness_uniform_is_fair(self):
        res, _ = run_probed()
        s = res.channels["ejection_fairness"].summary
        assert 0.8 < s["jain_index"] <= 1.0
        assert s["chips"] > 1


class TestMisrouteFloor:
    def record(self, failed=frozenset()):
        """One packet 0->2 routed via node 1 (2 hops) on a graph that
        also has a direct 0->2 shortcut (link 0)."""
        return RunRecord(
            core="synthetic", rate=0.1, num_nodes=3, num_links=3,
            num_vcs=1, packet_length=4,
            measure_start=0, measure_end=100, measure_cycles=100,
            active_chips=3,
            p_src=[0], p_dst=[2], p_t0=[10], p_meas=[1], p_done=[20],
            p_hops=[2], p_off=[0], route_lv=[1, 2],
            node_chip={0: 0, 1: 1, 2: 2},
            link_ends=[(0, 2), (0, 1), (1, 2)],
            failed_links=frozenset(failed),
        )

    def test_healthy_floor_counts_the_shortcut(self):
        s = build_probe("misroute").collect(self.record()).summary
        assert s["misroute_ratio"] == 1.0
        assert s["avg_excess"] == 1.0

    def test_degraded_floor_excludes_failed_links(self):
        """When the shortcut is a failed link, the repaired 2-hop route
        IS minimal over the surviving graph — not a misroute."""
        s = build_probe("misroute").collect(self.record({0})).summary
        assert s["misroute_ratio"] == 0.0
        assert s["avg_excess"] == 0.0


class TestEventSurface:
    def test_generic_probe_replay_matches_bulk_decode(self):
        """A probe written against the event surface counts the same
        traversals as the vectorised built-in."""

        class CountingProbe(Probe):
            name = "link_util"  # same channel name for comparison

            def begin(self, record):
                self.counts = {}
                self.pkt_len = record.packet_length

            def on_hop(self, pkt, hop):
                self.counts[hop.link] = (
                    self.counts.get(hop.link, 0) + self.pkt_len
                )

            def finish(self, record):
                from repro.metrics import MetricChannel

                return MetricChannel(
                    name="link_util",
                    columns=("link", "flits"),
                    rows=tuple(sorted(self.counts.items())),
                )

        spec = ExperimentSpec.create(
            topology="mesh",
            topology_opts={"dim": 4, "chiplet_dim": 2},
            routing="xy_mesh",
            traffic="uniform",
            params=PARAMS,
        )
        graph, routing, traffic = build_experiment(spec)
        sched = Simulator(graph, routing, traffic, PARAMS).make_schedule(0.4)
        sim_ev = Simulator(
            graph, routing, traffic, PARAMS, probes=[CountingProbe()]
        )
        res_ev = sim_ev.run(0.4, schedule=sched)
        sim_blk = Simulator(
            graph, routing, traffic, PARAMS, probes=["link_util"]
        )
        res_blk = sim_blk.run(0.4, schedule=sched)
        ev = dict(zip(res_ev.channels["link_util"].column("link"),
                      res_ev.channels["link_util"].column("flits")))
        blk = dict(zip(res_blk.channels["link_util"].column("link"),
                       res_blk.channels["link_util"].column("flits")))
        assert ev == blk


class TestProbeGuards:
    def test_probes_must_be_enabled_before_first_run(self):
        spec = ExperimentSpec.create(
            topology="mesh",
            topology_opts={"dim": 4, "chiplet_dim": 2},
            routing="xy_mesh",
            traffic="uniform",
            params=PARAMS,
        )
        graph, routing, traffic = build_experiment(spec)
        sim = Simulator(graph, routing, traffic, PARAMS, core="reference")
        sim.run(0.2)
        with pytest.raises(RuntimeError, match="before the first run"):
            sim._core.enable_probes()

    def test_run_record_requires_probe_mode(self):
        spec = ExperimentSpec.create(
            topology="mesh",
            topology_opts={"dim": 4, "chiplet_dim": 2},
            routing="xy_mesh",
            traffic="uniform",
            params=PARAMS,
        )
        graph, routing, traffic = build_experiment(spec)
        sim = Simulator(graph, routing, traffic, PARAMS, core="reference")
        sim.run(0.2)
        with pytest.raises(RuntimeError, match="not enabled"):
            sim._core.run_record(0.2)

    def test_probed_simulator_is_single_run(self):
        """A second probed run() would decode one record against two
        measurement windows; it must raise, not mis-report."""
        _, sim = run_probed()
        with pytest.raises(RuntimeError, match="single-run"):
            sim.run(0.3)

    def test_unprobed_simulator_still_supports_repeated_runs(self):
        spec = ExperimentSpec.create(
            topology="mesh",
            topology_opts={"dim": 4, "chiplet_dim": 2},
            routing="xy_mesh",
            traffic="uniform",
            params=PARAMS,
        )
        graph, routing, traffic = build_experiment(spec)
        sim = Simulator(graph, routing, traffic, PARAMS)
        sim.run(0.3)
        sim.run(0.3)  # accumulating reruns stay supported probe-off

    def test_empty_traffic_probes_report_nan_not_crash(self):
        res, _ = run_probed(rate=0.0)
        s = res.channels["latency_hist"].summary
        assert s["packets"] == 0
        assert math.isnan(s["avg"])
        assert res.channels["link_util"].num_rows == 0
