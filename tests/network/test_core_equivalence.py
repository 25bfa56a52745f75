"""Cross-core equivalence: the native and reference cores agree.

Schedule, destination and route of every packet are drawn by one
shared front end (:mod:`repro.network.corebase`) before any core's
loop starts, so all ``SimResult`` fields must be *identical* across
cores — with a pinned
:class:`~repro.network.schedule.InjectionSchedule` and without one.
These tests cover the smoke scenario's configurations, a wafer-scale
switchless one and a faulted system.
"""

from pathlib import Path

import pytest

from repro.api import load_study
from repro.engine.spec import ExperimentSpec, build_experiment
from repro.network import SimParams, Simulator, native_available

REPO = Path(__file__).resolve().parents[2]

CORES = ["reference"] + (
    ["native"] if native_available() else []
)


def smoke_specs():
    study = load_study(REPO / "scenarios" / "smoke.json")
    return [
        pytest.param(spec, id=spec.label or spec.topology)
        for scenario in study.scenarios
        for spec in scenario.specs
    ]


def switchless_spec():
    return ExperimentSpec.create(
        topology="switchless",
        topology_opts={
            "preset": "radix16_equiv",
            "num_wgroups": 2,
            "cgroups_per_wafer": 1,
        },
        routing="switchless",
        routing_opts={"mode": "minimal"},
        traffic="uniform",
        traffic_opts={"scope": ("group", 0)},
        params=SimParams(
            warmup_cycles=150,
            measure_cycles=400,
            drain_cycles=250,
            seed=13,
        ),
        rates=[0.4],
        label="SW-less",
    )


def faulted_spec():
    return ExperimentSpec.create(
        topology="switchless",
        topology_opts={
            "mesh_dim": 3, "chiplet_dim": 1, "num_local": 2,
            "num_global": 1,
        },
        routing="switchless",
        routing_opts={"mode": "minimal"},
        traffic="uniform",
        faults={"model": "random", "link_rate": 0.08, "seed": 3},
        params=SimParams(
            warmup_cycles=120, measure_cycles=300, drain_cycles=200,
            seed=9,
        ),
        rates=[0.25],
        label="SW-less-degraded",
    )


def widths_spec(injection, ejection):
    """A 4x4 mesh past saturation whose terminals inject and eject at
    different widths: a core that exchanges the two diverges."""
    return ExperimentSpec.create(
        topology="mesh",
        topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh",
        traffic="uniform",
        params=SimParams(
            injection_width=injection,
            ejection_width=ejection,
            warmup_cycles=100,
            measure_cycles=250,
            drain_cycles=150,
            seed=11,
        ),
        rates=[2.5],
        label=f"widths-{injection}/{ejection}",
    )


def run_cores(spec, rate, *, pinned):
    graph, routing, traffic = build_experiment(spec)
    schedule = None
    if pinned:
        schedule = Simulator(
            graph, routing, traffic, spec.params
        ).make_schedule(rate)
    sims = {
        core: Simulator(graph, routing, traffic, spec.params, core=core)
        for core in CORES
    }
    results = {
        core: sim.run(rate, schedule=schedule)
        for core, sim in sims.items()
    }
    return sims, results


class TestPinnedSchedule:
    @pytest.mark.parametrize("spec", smoke_specs())
    def test_smoke_scenario_results_identical(self, spec):
        for rate in spec.rates:
            sims, results = run_cores(spec, rate, pinned=True)
            ref = results["reference"].to_dict()
            for core, res in results.items():
                assert res.to_dict() == ref, (
                    f"{core} core diverged at rate {rate}"
                )
            base = sims["reference"]
            for core, sim in sims.items():
                assert (
                    sim.total_flits_injected == base.total_flits_injected
                ), core
                assert (
                    sim.total_flits_ejected == base.total_flits_ejected
                ), core

    def test_switchless_results_identical(self):
        spec = switchless_spec()
        _, results = run_cores(spec, spec.rates[0], pinned=True)
        ref = results["reference"].to_dict()
        for core, res in results.items():
            assert res.to_dict() == ref, f"{core} core diverged"

    def test_events_past_measurement_window_ignored_everywhere(self):
        """No core injects schedule events at or past warmup+measure
        (the reference core's injection gate) even when a hand-built
        schedule's horizon extends into the drain window."""
        from repro.network import InjectionSchedule

        study = load_study(REPO / "scenarios" / "smoke.json")
        spec = study.scenarios[0].specs[1]
        graph, routing, traffic = build_experiment(spec)
        params = spec.params
        base = Simulator(graph, routing, traffic, params).make_schedule(
            0.5
        )
        window = params.warmup_cycles + params.measure_cycles
        late = InjectionSchedule(
            list(base.cycles) + [window + 5, window + 9],
            list(base.nodes) + list(base.nodes[:2]),
            horizon=window + params.drain_cycles,
        )
        sims, results = {}, {}
        for core in CORES:
            sims[core] = Simulator(
                graph, routing, traffic, params, core=core
            )
            results[core] = sims[core].run(0.5, schedule=late)
        ref = results["reference"].to_dict()
        for core, res in results.items():
            assert res.to_dict() == ref, f"{core} core diverged"
        injected = {c: s.total_flits_injected for c, s in sims.items()}
        assert len(set(injected.values())) == 1, injected


class TestUnpinned:
    @pytest.mark.parametrize(
        "spec",
        smoke_specs()
        + [
            pytest.param(switchless_spec(), id="switchless"),
            pytest.param(faulted_spec(), id="faulted"),
            pytest.param(widths_spec(2, 1), id="inject2-eject1"),
            pytest.param(widths_spec(1, 2), id="inject1-eject2"),
        ],
    )
    def test_unpinned_results_identical(self, spec):
        """Free-running cores sample the same schedule from the same
        numpy stream and resolve it through the same front end, so
        they agree without pinning."""
        for rate in spec.rates:
            sims, results = run_cores(spec, rate, pinned=False)
            ref = results["reference"].to_dict()
            base = sims["reference"]
            for core, res in results.items():
                assert res.to_dict() == ref, (
                    f"{core} core diverged at rate {rate}"
                )
                sim = sims[core]
                assert (
                    sim.total_flits_injected == base.total_flits_injected
                ), core
                assert (
                    sim.total_flits_ejected == base.total_flits_ejected
                ), core


def test_truncated_drain_strands_the_same_flits():
    """A zero-cycle drain leaves measured packets in flight; the cores
    agree on the result and on every flit they stranded."""
    study = load_study(REPO / "scenarios" / "smoke.json")
    spec = study.scenarios[0].specs[1]  # the mesh config
    params = spec.params.scaled(drain_cycles=0)
    graph, routing, traffic = build_experiment(spec)
    sims = [
        Simulator(graph, routing, traffic, params, core=c) for c in CORES
    ]
    results = [sim.run(0.9).to_dict() for sim in sims]
    assert results.count(results[0]) == len(sims)
    assert sims[0].flits_in_flight() > 0  # drain really truncated
    counts = [
        (sim.total_flits_injected, sim.total_flits_ejected,
         sim.flits_in_flight())
        for sim in sims
    ]
    assert counts.count(counts[0]) == len(sims)


def test_unknown_core_rejected():
    study = load_study(REPO / "scenarios" / "smoke.json")
    spec = study.scenarios[0].specs[0]
    graph, routing, traffic = build_experiment(spec)
    with pytest.raises(ValueError, match="unknown simulation core"):
        Simulator(graph, routing, traffic, spec.params, core="turbo")


@pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)
def test_native_never_reads_unset_state(monkeypatch):
    """The flit rings and wheel slots are allocated uninitialised: the
    kernel may read an entry only below its count.  Garbage in them
    must not show, at a load that wraps the rings and fills the slots."""
    import numpy as np

    from repro.network import native

    monkeypatch.setattr(
        native, "_unset",
        lambda n: np.full(max(1, int(n)), -0x5A5A5A5A5A5A5A5),
    )
    spec = switchless_spec()
    for rate in (0.4, 2.0):
        graph, routing, traffic = build_experiment(spec)
        results = [
            Simulator(graph, routing, traffic, spec.params, core=core)
            .run(rate).to_dict()
            for core in ("native", "reference")
        ]
        assert results[0] == results[1], rate


def test_reference_core_needs_no_kernel_struct(monkeypatch):
    """Without a kernel the draw rows and the route plane still build
    and a reference point runs; nothing fills a kernel struct."""
    from repro.network import native
    from repro.network.vecrandom import DestRows, ViaRows
    from repro.routing.plane import RoutePlane

    def no_struct(name, **fields):
        raise AssertionError(f"struct {name} filled without a kernel")

    monkeypatch.setattr(native, "load_native", lambda: None)
    monkeypatch.setattr(native, "kernel_struct", no_struct)
    spec = ExperimentSpec.create(
        topology="switchless",
        topology_opts={"preset": "radix8_equiv", "num_wgroups": 3},
        routing="switchless",
        routing_opts={"mode": "valiant"},
        traffic="uniform",
        params=SimParams(
            warmup_cycles=100, measure_cycles=250, drain_cycles=150, seed=5
        ),
        rates=[0.3],
    )
    graph, routing, traffic = build_experiment(spec)
    assert isinstance(routing.route_plane(), RoutePlane)
    assert isinstance(routing.via_rows, ViaRows)
    assert isinstance(traffic.dest_rows, DestRows)
    assert routing.route_plane().table_bytes() > 0
    result = Simulator(
        graph, routing, traffic, spec.params, core="reference"
    ).run(0.3)
    assert result.packets_measured > 0
