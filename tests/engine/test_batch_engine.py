"""Packed chunks: parity with the per-lane reference simulator.

A chunk of rates run as one packed kernel batch must be a pure
performance feature: identical sweeps, identical per-point seeds,
interchangeable cache entries, and the same saturation-cutoff
semantics as simulating every rate on its own ``Simulator``.
"""

import os
from collections import OrderedDict

import pytest

from repro.api.library import SCALES, build_study, list_library
from repro.engine import executor as ex
from repro.engine.cache import ResultCache
from repro.engine.executor import run_experiments, simulate_point
from repro.engine.spec import (
    ExperimentSpec,
    build_experiment,
    build_metrics,
    point_key,
    point_seed,
)
from repro.network import (
    CurveResult,
    PointResult,
    SimParams,
    Simulator,
    cutoff_walk,
    native_available,
)
from repro.obs import REGISTRY

PARAMS = SimParams(
    warmup_cycles=150, measure_cycles=300, drain_cycles=300, seed=7
)

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)


def mesh_spec(rates, label="mesh", **over):
    kw = dict(
        topology="mesh",
        topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh",
        traffic="uniform",
        params=PARAMS,
        rates=list(rates),
        label=label,
    )
    kw.update(over)
    return ExperimentSpec.create(**kw)


def per_lane_reference(spec, stop_after_saturation=1):
    """The curve of a serial in-order walk, every rate on its own
    per-lane ``Simulator``."""
    graph, routing, traffic = build_experiment(spec)
    results = {
        ri: Simulator(
            graph,
            routing,
            traffic,
            spec.params.scaled(seed=point_seed(spec, r)),
            probes=build_metrics(spec),
        ).run(r)
        for ri, r in enumerate(spec.rates)
    }
    complete, n = cutoff_walk(
        len(spec.rates), results, stop_after_saturation
    )
    assert complete
    return CurveResult(
        label=spec.label,
        points=tuple(
            PointResult(spec.rates[ri], results[ri]) for ri in range(n)
        ),
        spec_key=spec.config_key(),
    )


def sweeps_equal(a, b):
    assert isinstance(a, CurveResult) and isinstance(b, CurveResult)
    assert (a.label, a.spec_key, a.rates) == (b.label, b.spec_key, b.rates)
    for ra, rb in zip(a.results, b.results):
        assert ra.to_dict() == rb.to_dict()
        assert set(ra.channels) == set(rb.channels)
        for name in ra.channels:
            assert (
                ra.channels[name].to_dict() == rb.channels[name].to_dict()
            )


def batch_lanes_observed():
    """(count, sum) of the ``engine_batch_lanes`` histogram so far."""
    hist = REGISTRY.get("engine_batch_lanes")
    return hist.count(), hist.sum()


@pytest.fixture()
def pool_cpus(monkeypatch):
    """A real worker pool even on a small box: without this the
    ``workers x threads <= cpu_count`` clamp runs everything inline."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("REPRO_SIM_THREADS", "1")


@needs_native
class TestPackedChunkParity:
    @pytest.fixture(autouse=True)
    def native_session(self, monkeypatch):
        """Packed chunks need the kernel as the session's core, also
        on the CI leg that runs the suite with REPRO_SIM_CORE=reference."""
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)

    def test_packed_equals_per_lane(self, tmp_path):
        specs = [
            mesh_spec([0.1, 0.2, 0.3], label="a"),
            mesh_spec([0.1, 0.25], label="b", traffic="bit_reverse"),
        ]
        cache = ResultCache(tmp_path / "packed")
        sweeps = run_experiments(specs, cache=cache, workers=1)
        for spec, sweep in zip(specs, sweeps):
            sweeps_equal(sweep, per_lane_reference(spec))

    def test_per_point_seeds_unchanged(self):
        """Every packed point is simulate_point's exact result — the
        lane seed is the same point_seed-derived value."""
        spec = mesh_spec([0.15, 0.3])
        sw = run_experiments([spec], workers=1)[0]
        for rate, res in zip(sw.rates, sw.results):
            assert res.to_dict() == simulate_point(spec, rate).to_dict()

    def test_cache_entries_interchangeable(self, tmp_path, monkeypatch):
        """A cache written by packed chunks replays into a width-1
        session untouched, and vice versa."""
        spec = mesh_spec([0.1, 0.2])
        [packed] = run_experiments(
            [spec], cache=ResultCache(tmp_path / "packed"), workers=1
        )
        with monkeypatch.context() as m:
            m.setenv("REPRO_SIM_CORE", "reference")
            replay = ResultCache(tmp_path / "packed")
            [replayed] = run_experiments([spec], cache=replay, workers=1)
            assert replay.hits == 2
            [narrow] = run_experiments(
                [spec], cache=ResultCache(tmp_path / "narrow"), workers=1
            )
        replay = ResultCache(tmp_path / "narrow")
        [replayed_wide] = run_experiments([spec], cache=replay, workers=1)
        assert replay.hits == 2
        sweeps_equal(packed, replayed)
        sweeps_equal(packed, narrow)
        sweeps_equal(packed, replayed_wide)

    def test_probed_packed_sweep(self):
        spec = mesh_spec(
            [0.1, 0.2], metrics=["link_util", "latency_hist"]
        )
        sw = run_experiments([spec], workers=1)[0]
        assert sw.results[0].channels
        sweeps_equal(sw, per_lane_reference(spec))

    def test_saturation_cutoff_short_circuits(self, tmp_path):
        """Rates past the cutoff are never simulated: a chunk's lanes
        stop at it, so the cache holds exactly the sweep's points."""
        rates = [0.05, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]
        spec = mesh_spec(rates, label="cutoff")
        cache = ResultCache(tmp_path / "cutoff")
        sw = run_experiments([spec], cache=cache, workers=1)[0]
        simulated = sum(
            1 for r in rates if cache.get(point_key(spec, r)) is not None
        )
        assert simulated == len(sw.rates) < len(rates)
        # the assembled sweep matches the per-lane walk exactly
        sweeps_equal(sw, per_lane_reference(spec))

    def test_pool_matches_inline(self, tmp_path, pool_cpus):
        """Packed chunks over a pool (workers > 1, several specs) and
        inline produce the same points and cache writes."""
        specs = [
            mesh_spec([0.1, 0.2], label="p1"),
            mesh_spec([0.1, 0.2], label="p2", traffic="bit_shuffle"),
        ]
        c_pool = ResultCache(tmp_path / "pool")
        c_inline = ResultCache(tmp_path / "inline")
        pooled = run_experiments(specs, cache=c_pool, workers=2)
        inline = run_experiments(specs, cache=c_inline, workers=1)
        for p, i in zip(pooled, inline):
            sweeps_equal(p, i)
        for spec in specs:
            for rate in spec.rates:
                key = point_key(spec, rate)
                assert (
                    c_pool.get(key).to_dict() == c_inline.get(key).to_dict()
                )

    def test_mixed_study_packs_both_specs(self):
        """A closed-loop spec rides packed chunks like an open-loop
        one (the kernel releases its phases), and both match running
        the specs on their own."""
        closed = mesh_spec(
            [0.5, 1.0], label="ring", workload="ring_allreduce",
            workload_opts={"volume": 16},
        )
        open_loop = mesh_spec([0.1, 0.2, 0.3], label="open")
        [alone_closed] = run_experiments([closed], workers=1)
        [alone_open] = run_experiments([open_loop], workers=1)

        count0, lanes0 = batch_lanes_observed()
        mixed = run_experiments([closed, open_loop], workers=1)
        count1, lanes1 = batch_lanes_observed()
        # one two-lane closed-loop chunk + one three-lane open-loop one
        assert (count1 - count0, lanes1 - lanes0) == (2, 5.0)
        sweeps_equal(mixed[0], alone_closed)
        sweeps_equal(mixed[1], alone_open)

    def test_one_span_shape_for_both_loops(self):
        """Closed-loop chunks emit the open-loop chunks' three kernel
        spans, with the lane count; the workload rides as an attribute,
        and only the closed-loop chunk adds a ``workload.plan`` span."""
        from repro.obs import trace

        specs = {
            "": mesh_spec([0.1, 0.2], metrics=["latency_hist"]),
            "ring_allreduce": mesh_spec(
                [0.5, 1.0], workload="ring_allreduce",
                workload_opts={"volume": 16}, metrics=["cct"],
            ),
        }
        for workload, spec in specs.items():
            spans = []
            trace.add_sink(spans.append)
            try:
                (sweep,) = run_experiments([spec], workers=1)
            finally:
                trace.remove_sink(spans.append)
            kernel = {
                s["name"]: s["attrs"] for s in spans
                if s["name"] in ("kernel.prepare", "kernel.run",
                                 "probe.decode")
            }
            assert sorted(kernel) == [
                "kernel.prepare", "kernel.run", "probe.decode"
            ], workload
            assert {a["lanes"] for a in kernel.values()} == {2}
            assert (kernel["kernel.run"]["workload"] or "") == workload
            # the closed-loop chunk's plan build is its own span
            plans = [s["attrs"] for s in spans if s["name"] == "workload.plan"]
            assert [a["lanes"] for a in plans] == ([2] if workload else [])
            # decode cost per hop: the chunk's measured delivered
            # packets and the route hops gathered for them
            decode = kernel["probe.decode"]
            delivered = sum(r.packets_delivered for r in sweep.results)
            assert decode["packets"] == delivered > 0
            assert decode["hops"] == round(
                sum(r.avg_hops * r.packets_delivered for r in sweep.results)
            ) > 0


class TestWorkerThreadBudget:
    def test_resolve_workers_counts_kernel_threads(self, monkeypatch):
        monkeypatch.delenv(ex.WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # default: all CPUs when the kernel is single-threaded
        assert ex._resolve_workers(None, 100) == 8
        # workers x threads <= cpu_count
        assert ex._resolve_workers(None, 100, kernel_threads=4) == 2
        assert ex._resolve_workers(None, 100, kernel_threads=8) == 1
        assert ex._resolve_workers(None, 100, kernel_threads=16) == 1
        # explicit workers still respect the thread budget
        assert ex._resolve_workers(6, 100, kernel_threads=4) == 2
        # and the amount of work
        assert ex._resolve_workers(None, 1, kernel_threads=1) == 1


class TestChunkWidth:
    """Width is computed from what the code can see, never set."""

    OPEN = mesh_spec([0.1])
    CLOSED = mesh_spec(
        [0.5], workload="ring_allreduce", workload_opts={"volume": 16}
    )

    @needs_native
    @pytest.mark.parametrize(
        "core, spec, threads, width",
        [
            (None, OPEN, 1, 8),
            (None, OPEN, 12, 12),
            ("native", OPEN, 1, 8),
            ("reference", OPEN, 1, 1),
            ("reference", OPEN, 4, 1),
            (None, CLOSED, 1, 8),
            ("native", CLOSED, 12, 12),
            ("reference", CLOSED, 1, 1),
        ],
    )
    def test_width_table(self, monkeypatch, core, spec, threads, width):
        if core is None:
            monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        else:
            monkeypatch.setenv("REPRO_SIM_CORE", core)
        assert ex._chunk_width(spec, threads) == width

    def test_no_compiler_means_width_one(self, monkeypatch):
        from repro.network import simulator

        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        monkeypatch.setattr(simulator, "native_available", lambda: False)
        assert ex._chunk_width(self.OPEN, 8) == 1

    def test_width_one_sweep_equals_per_lane(self, monkeypatch):
        """A non-native session walks the same sweep one rate at a
        time, through the same scheduler."""
        monkeypatch.setenv("REPRO_SIM_CORE", "reference")
        spec = mesh_spec([0.1, 0.2])
        [sweep] = run_experiments([spec], workers=1)
        sweeps_equal(sweep, per_lane_reference(spec))


class TestReturnedCurves:
    """``run_experiments`` hands back the finished ``CurveResult``s:
    nothing above the engine converts or re-labels them."""

    RATES = [0.05, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]

    @pytest.mark.parametrize("stop", [1, 2, 3])
    def test_cutoff_matches_a_serial_in_order_walk(self, stop):
        specs = [
            mesh_spec(self.RATES, label="cut"),
            mesh_spec([0.1, 0.2], label=""),
        ]
        curves = run_experiments(
            specs, workers=1, stop_after_saturation=stop
        )
        assert [c.spec_key for c in curves] == [
            s.config_key() for s in specs
        ]
        # an unlabeled spec is labeled by its description
        assert curves[1].label == specs[1].describe()
        sweeps_equal(curves[0], per_lane_reference(specs[0], stop))
        assert len(curves[0].points) < len(self.RATES)
        assert sum(p.saturated for p in curves[0].points) == stop
        assert curves[0].points[-1].saturated

    def test_results_property_mirrors_points(self):
        [curve] = run_experiments([mesh_spec([0.1, 0.2])], workers=1)
        assert curve.results == [p.result for p in curve.points]
        assert curve.rates == [p.rate for p in curve.points]


class TestBuildReuse:
    """Chunks run a study's specs round robin, so the worker-local
    system and routing tables must hold a whole study's keys, or every
    chunk rebuilds its routing (and that routing's route plane)."""

    @needs_native
    def test_second_run_builds_no_routing(self, monkeypatch):
        # the reuse is core-independent; the kernel keeps the run short
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        monkeypatch.setattr(ex, "_systems", OrderedDict())
        monkeypatch.setattr(ex, "_routings", OrderedDict())
        built = []
        real = ex.build_routing

        def counting(spec, system):
            built.append(spec.label)
            return real(spec, system)

        monkeypatch.setattr(ex, "build_routing", counting)
        # five routing keys over three systems
        study = build_study("fig13_misrouting", "quick")
        study.run(workers=1)
        assert len(built) == 5
        built.clear()
        study.run(workers=1)
        assert built == []

    @pytest.mark.parametrize("scale", SCALES)
    def test_every_bundled_study_fits(self, scale):
        for name in list_library():
            specs = [
                spec
                for scenario in build_study(name, scale).scenarios
                for spec in scenario.specs
            ]
            for key in (ex._system_key, ex._routing_key):
                distinct = {key(spec) for spec in specs}
                assert len(distinct) <= ex._SYSTEM_LRU_SIZE, (name, key)
