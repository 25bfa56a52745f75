"""Flit-conservation property tests across cores and configurations.

Two invariants, checked over a grid of (topology, routing, rate)
configurations that includes capacity > 1 links and ejection_width > 1:

* always: ``total_flits_injected == total_flits_ejected +
  flits_in_flight()`` — no flit is created or destroyed in transit;
* after a full run at sub-saturation load with a generous drain
  window (or a closed-loop plan that finished): the network is empty
  (``flits_in_flight() == 0``), every injected flit was ejected, every
  credit is back at ``vc_buffer_size`` (or on its way) and no VC has an
  owner.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.spec import ExperimentSpec, build_experiment
from repro.network import SimParams, Simulator, native_available
from repro.routing.mesh import XYMeshRouting
from repro.topology.mesh import MeshSpec, build_mesh
from repro.traffic import UniformTraffic

from .test_simulator import LineRouting, line_graph

CORES = ["array", "reference"] + (
    ["native"] if native_available() else []
)


def _params(seed, **kw):
    base = dict(
        warmup_cycles=100, measure_cycles=250, drain_cycles=600, seed=seed
    )
    base.update(kw)
    return SimParams(**base)


def _build(config, seed):
    """(graph, routing, traffic, params) for a named grid point."""
    if config == "line":
        g = line_graph(4, latency=2)
        return g, LineRouting(g), UniformTraffic(g), _params(seed)
    if config == "mesh":
        mesh = build_mesh(MeshSpec(dim=4, chiplet_dim=2))
        return (
            mesh.graph,
            XYMeshRouting(mesh),
            UniformTraffic(mesh.graph),
            _params(seed),
        )
    if config == "mesh_cap2":
        # capacity-2 links with matching injection/ejection widths
        mesh = build_mesh(MeshSpec(dim=4, chiplet_dim=2, capacity=2))
        return (
            mesh.graph,
            XYMeshRouting(mesh),
            UniformTraffic(mesh.graph),
            _params(seed, injection_width=2, ejection_width=2),
        )
    raise AssertionError(config)


def _vc_state(core):
    """``(credits, owners)`` per (link, VC): credits counting the ones
    still on the return wheel (a plan's run ends with its last tail
    flit, one credit delay before that credit is home), owners as -1
    when free."""
    if core.core_id == "native":
        credits = core._n_credits.tolist()
        cap = core._slot_cap
        returning = [
            lv
            for slot, n in enumerate(core._n_cw_n.tolist())
            for lv in core._n_cw_lv[slot * cap: slot * cap + n].tolist()
        ]
        owners = core._n_owner.tolist()
    else:
        credits = list(core._credits)
        returning = [lv for slot in core._credit_ret for lv in slot]
        free = None if core.core_id == "reference" else -1
        owners = [-1 if own == free else own for own in core._owner]
    for lv in returning:
        credits[lv] += 1
    return credits, owners


def _assert_conserved(sim, drained=True):
    """The invariants above, on any core after any run (open-loop or
    under a plan)."""
    in_flight = sim.flits_in_flight()
    assert (
        sim.total_flits_injected == sim.total_flits_ejected + in_flight
    )
    if drained:
        assert in_flight == 0
        assert sim.total_flits_injected == sim.total_flits_ejected
        credits, owners = _vc_state(sim._core)
        assert set(credits) <= {sim.params.vc_buffer_size}
        assert set(owners) <= {-1}


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("config", ["line", "mesh", "mesh_cap2"])
@given(rate=st.floats(0.05, 0.4), seed=st.integers(0, 50))
@settings(max_examples=5, deadline=None)
def test_conservation_grid(config, core, rate, seed):
    graph, routing, traffic, params = _build(config, seed)
    sim = Simulator(graph, routing, traffic, params, core=core)
    sim.run(rate)
    _assert_conserved(sim)


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("mode", ["minimal", "valiant"])
def test_conservation_switchless(core, mode):
    """Wafer-scale switchless topology, both routing modes."""
    spec = ExperimentSpec.create(
        topology="switchless",
        topology_opts={
            "preset": "radix16_equiv",
            "num_wgroups": 2,
            "cgroups_per_wafer": 1,
        },
        routing="switchless",
        routing_opts={"mode": mode},
        traffic="uniform",
        traffic_opts={"scope": ("group", 0)},
        params=SimParams(
            warmup_cycles=100,
            measure_cycles=250,
            drain_cycles=800,
            seed=21,
        ),
        rates=[0.3],
    )
    graph, routing, traffic = build_experiment(spec)
    sim = Simulator(graph, routing, traffic, spec.params, core=core)
    sim.run(0.3)
    _assert_conserved(sim)


@pytest.mark.parametrize("core", CORES)
def test_conservation_holds_mid_flight(core):
    """At saturating load the drain window is too short to empty the
    network — the running invariant must still hold exactly."""
    g = line_graph(4, latency=2)
    params = _params(3, drain_cycles=0)
    traffic = UniformTraffic(g)
    sim = Simulator(g, LineRouting(g), traffic, params, core=core)
    sim.run(0.9)
    _assert_conserved(sim, drained=False)
