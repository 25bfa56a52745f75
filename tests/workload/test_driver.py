"""PhasePlan semantics and the closed-loop driver."""

import math
import re

import pytest

from repro.engine import ExperimentSpec, build_experiment
from repro.engine.executor import simulate_point
from repro.network import SimParams
from repro.network.corebase import SINGLE_RUN
from repro.workload import (
    PhasePlan,
    build_workload,
    participating_chips,
    run_closed_loop,
)

PARAMS = SimParams(seed=11)


def mesh_experiment(**kw):
    spec = ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform", params=PARAMS,
        rates=[0.5], **kw,
    )
    return spec, build_experiment(spec)


class TestParticipatingChips:
    def test_chips_and_nodes_cover_scope(self):
        _, (graph, routing, traffic) = mesh_experiment()
        index, positions, nodes = participating_chips(traffic)
        assert len(positions) == 4
        assert sorted(n for ns in nodes.values() for n in ns) == sorted(
            traffic.active_nodes()
        )


class TestPhasePlan:
    def build_plan(self, workload_name="ring_allreduce", opts=None,
                   rate=0.5):
        _, (graph, routing, traffic) = mesh_experiment()
        _, positions, _ = participating_chips(traffic)
        w = build_workload(workload_name, opts, num_chips=len(positions))
        return PhasePlan(w, traffic, params=PARAMS, rate=rate, seed=3)

    def test_rejects_zero_rate(self):
        _, (graph, routing, traffic) = mesh_experiment()
        w = build_workload("ring_allreduce", None, num_chips=4)
        with pytest.raises(ValueError, match="rate"):
            PhasePlan(w, traffic, params=PARAMS, rate=0.0, seed=3)

    def test_begin_materialises_only_roots(self):
        plan = self.build_plan()
        n_ev = plan.begin()
        # ring: one root phase; later phases are gated
        assert n_ev == plan.ph_ev0[1]
        assert n_ev < plan.total_events
        assert not plan.finished

    def test_begin_is_single_run(self):
        plan = self.build_plan()
        plan.begin()
        with pytest.raises(RuntimeError, match=re.escape(SINGLE_RUN)):
            plan.begin()

    def test_packet_done_drains_phase_and_releases_dependent(self):
        plan = self.build_plan()
        n_ev = plan.begin()
        for pid in range(n_ev):
            plan.packet_done(pid, 100 + pid)
        assert plan.dirty  # phase 0 done -> phase 1 pending
        n2 = plan.flush(n_ev)
        assert n2 == plan.ph_ev0[2]
        # dependent released at t_done + 1, after its compute (0 here)
        t_done = 100 + n_ev - 1
        assert plan.ph_release[1] == t_done + 1
        assert min(plan.ev_cycles[n_ev:]) >= t_done + 1

    def test_event_arrays_stay_cycle_sorted_past_pointer(self):
        plan = self.build_plan()
        n_ev = plan.begin()
        for pid in range(n_ev):
            plan.packet_done(pid, 50)
        plan.flush(n_ev)
        tail = plan.ev_cycles[n_ev:]
        assert tail == sorted(tail)

    def test_compute_only_phases_cascade_through_flush(self):
        plan = self.build_plan("all_to_all", {"compute": 64})
        plan.begin()
        n_ev = len(plan.ev_cycles)
        for pid in range(n_ev):
            plan.packet_done(pid, 10)
        assert plan.dirty
        n2 = plan.flush(n_ev)
        # the compute-only expert phase resolved inline and released
        # the combine phase: its events start after the compute gap
        assert n2 > n_ev
        assert min(plan.ev_cycles[n_ev:]) >= 10 + 1 + 64

    def test_elapsed_is_makespan(self):
        # drive every event to completion round by round
        plan = self.build_plan()
        plan.begin()
        consumed = 0
        t = 30
        while not plan.finished:
            n = len(plan.ev_cycles)
            for pid in range(consumed, n):
                plan.packet_done(pid, t)
            consumed = n
            if plan.dirty:
                plan.flush(consumed)
            t += 100
        assert plan.elapsed() == (t - 100) + 1
        assert consumed == plan.total_events

    def test_phase_records_report_all_phases(self):
        plan = self.build_plan()
        recs = plan.phase_records()
        assert len(recs) == plan.num_phases
        assert all(r["done"] == -1 for r in recs)  # nothing ran yet
        assert {"name", "release", "comm_start", "done", "compute",
                "packets", "flits", "masked"} <= set(recs[0])

    def test_horizon_bounds_the_run(self):
        plan = self.build_plan()
        assert plan.horizon() > plan.total_events * plan._L


class TestRunClosedLoop:
    def test_end_to_end_finishes_and_measures_makespan(self):
        spec, (graph, routing, traffic) = mesh_experiment(
            workload="ring_allreduce", workload_opts={"volume": 32},
        )
        result = run_closed_loop(spec, graph, routing, traffic, 0.5)
        assert result.packets_measured > 0
        assert result.delivered_fraction == pytest.approx(1.0)
        assert not result.saturated

    def test_simulate_point_routes_closed_loop(self):
        spec, _ = mesh_experiment(
            workload="ring_allreduce", workload_opts={"volume": 32},
            metrics=("cct", "bubble", "overlap"),
        )
        result = simulate_point(spec, 0.5)
        cct = result.channels["cct"]
        assert cct.summary["phases"] == 6.0
        assert cct.summary["makespan"] > 0
        # chained ring phases tile the makespan: ccts sum to it
        assert sum(r[4] for r in cct.rows) == cct.summary["makespan"]
        bubble = result.channels["bubble"]
        assert bubble.summary["bubble_fraction"] == pytest.approx(0.0)

    def test_open_loop_points_carry_empty_phase_channels(self):
        spec, _ = mesh_experiment(metrics=("cct",))
        result = simulate_point(spec, 0.3)
        cct = result.channels["cct"]
        assert cct.summary["phases"] == 0.0
        assert cct.rows == ()

    def test_pacing_shows_only_past_one_packet_per_node_per_phase(self):
        """The pacing rate sets the interval between a node's packets
        inside one phase, and overlap needs a phase that computes —
        why the bundled ``workload`` study (one packet per node per
        ring step, no compute) reports one makespan at every rate and
        a NaN ``overlap_fraction``."""
        def channels(rate, **opts):
            spec, _ = mesh_experiment(
                workload="ring_allreduce", workload_opts=opts,
                metrics=("cct", "overlap"),
            )
            return simulate_point(spec, rate).channels

        def makespan(rate, volume):
            return channels(rate, volume=volume)["cct"].summary["makespan"]

        # 4 chips, 4-flit packets: volume 64 is 4 packets per node per
        # phase, volume 16 is one
        assert makespan(0.25, 64) > makespan(1.0, 64)
        assert makespan(0.25, 16) == makespan(1.0, 16)
        ring = channels(0.5, volume=64)["overlap"].summary
        assert ring["compute_cycles"] == 0
        assert math.isnan(ring["overlap_fraction"])
        spec, _ = mesh_experiment(
            workload="all_to_all",
            workload_opts={"volume": 32, "compute": 40},
            metrics=("overlap",),
        )
        computing = simulate_point(spec, 0.5).channels["overlap"].summary
        assert math.isfinite(computing["overlap_fraction"])

    def test_overlap_reported_for_pipeline(self):
        spec, _ = mesh_experiment(
            workload="pipeline",
            workload_opts={"volume": 32, "compute": 64},
            metrics=("overlap",),
        )
        result = simulate_point(spec, 0.5)
        ov = result.channels["overlap"].summary
        assert ov["compute_cycles"] > 0
        # microbatch b computes while b-1 communicates
        assert ov["overlap_cycles"] > 0
        assert 0.0 < ov["overlap_fraction"] <= 1.0
