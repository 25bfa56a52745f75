"""``PhasePlan``'s array build against the per-event loop it replaced.

The loop below is the plan build as it was written first, one Python
iteration per event (``ChipIndex.counterpart`` plus the scalar
``alive`` / ``reachable`` view per event), kept verbatim as the
reference.  Every plan array, the per-phase masked counts and the state
of the stdlib RNG after the build must match it: over the workload
registry on three fabrics, on a scope with uneven chip sizes (where the
counterpart falls back to a random draw), and over the drawn DAGs of
``test_plan_properties``.
"""

import functools
import math
import random
import types
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import build_experiment
from repro.engine.spec import point_seed
from repro.topology.mesh import MeshSpec, build_mesh
from repro.traffic.patterns import BitReverseTraffic, UniformTraffic
from repro.workload import (
    PhasePlan,
    build_workload,
    list_workloads,
    workload_for_traffic,
)
from repro.workload import driver

from .test_closed_loop_identity import FABRICS
from .test_plan_properties import DeadChips, fabric, workloads

RATES = (0.25, 0.5, 1.0)
#: every array (and count) a plan build produces.
FIELDS = (
    "ph_ev0", "tpl_off", "tpl_src", "tpl_dst", "tpl_phase", "ph_compute",
    "dep_ptr", "dep_idx", "ph_indeg", "ph_rem", "ph_release",
    "ph_comm_start", "ph_done", "_masked", "total_events",
)


# ----------------------------------------------------------------------
# the reference: the per-event loop
# ----------------------------------------------------------------------
def loop_participating_chips(traffic):
    base = getattr(traffic, "base", traffic)
    index = base.index
    positions: List[int] = []
    nodes: Dict[int, List[int]] = {}
    for nid in base.active_nodes():
        ci, _ = index.node_pos[nid]
        if ci not in nodes:
            nodes[ci] = []
            positions.append(ci)
        nodes[ci].append(nid)
    return index, positions, nodes


class LoopPlan:
    """The build half of ``PhasePlan.__init__``, one event at a time;
    ``rng`` is the generator it drew from."""

    def __init__(self, workload, traffic, params, rate, seed):
        self.workload = workload
        self.rate = float(rate)
        self._L = params.packet_length
        index, positions, chip_nodes = loop_participating_chips(traffic)
        degraded = getattr(traffic, "degraded", None)
        rng = self.rng = random.Random(seed ^ 0x10AD)

        # ---- per-phase event templates --------------------------------
        # (offset, src, dst) per event, sorted by (offset, scope order);
        # offsets are relative to the phase's first injection cycle.
        n = len(positions)
        L = self._L
        node_order: Dict[int, int] = {}
        for ci in positions:
            for nid in chip_nodes[ci]:
                node_order[nid] = len(node_order)
        flat: List[Tuple[int, int, int, int]] = []
        counts: List[int] = []
        self._masked: List[int] = []
        for ph in workload.phases:
            events: List[Tuple[int, int, int, int]] = []
            masked = 0
            if ph.communicates:
                k = max(1, int(math.ceil(ph.volume / L)))
                tag = ph.pattern[0]
                shift = int(ph.pattern[1]) % n if tag == "shift" else 0
                if tag == "shift" and shift == 0:
                    shift = 1  # a wrapped stride still has to move data
                for pi, ci in enumerate(positions):
                    m = len(chip_nodes[ci])
                    # per-node packet interval: a chip with m nodes
                    # injecting a packet every I cycles offers
                    # m*L/I flits/cycle/chip; >= L keeps each node's
                    # packets back-to-back at most
                    interval = max(L, int(math.ceil(m * L / self.rate)))
                    for src in chip_nodes[ci]:
                        for j in range(k):
                            if tag == "shift":
                                dpos = positions[(pi + shift) % n]
                            else:  # all_to_all
                                dpos = positions[
                                    (pi + 1 + j % (n - 1)) % n
                                ]
                            dst = index.counterpart(src, dpos, rng)
                            if degraded is not None and (
                                not degraded.alive(src)
                                or not degraded.alive(dst)
                                or not degraded.reachable(src, dst)
                            ):
                                masked += 1
                                continue
                            events.append(
                                (j * interval, node_order[src], src, dst)
                            )
                events.sort()
            flat.extend(events)
            counts.append(len(events))
            self._masked.append(masked)

        # ---- flat, phase-major (what every consumer reads) ------------
        P = workload.num_phases
        self.total_events = len(flat)
        self.ph_ev0 = np.zeros(P + 1, dtype=np.int64)
        np.cumsum(counts, out=self.ph_ev0[1:])
        columns = np.array(flat, dtype=np.int64).reshape(-1, 4)
        self.tpl_off = np.ascontiguousarray(columns[:, 0])
        self.tpl_src = np.ascontiguousarray(columns[:, 2])
        self.tpl_dst = np.ascontiguousarray(columns[:, 3])
        self.tpl_phase = np.repeat(np.arange(P, dtype=np.int64), counts)
        self.ph_compute = np.array(
            [ph.compute for ph in workload.phases], dtype=np.int64
        )
        idx = workload.phase_index()
        deps: List[List[int]] = [[] for _ in range(P)]
        for i, ph in enumerate(workload.phases):
            for dep in ph.after:
                deps[idx[dep]].append(i)
        self.dep_ptr = np.zeros(P + 1, dtype=np.int64)
        np.cumsum([len(d) for d in deps], out=self.dep_ptr[1:])
        self.dep_idx = np.array(
            [j for d in deps for j in d], dtype=np.int64
        )

        # ---- run state: counters down, cycle stamps up ----------------
        self.ph_indeg = np.array(
            [len(ph.after) for ph in workload.phases], dtype=np.int64
        )
        self.ph_rem = np.array(counts, dtype=np.int64)
        self.ph_release = np.full(P, -1, dtype=np.int64)
        self.ph_comm_start = np.full(P, -1, dtype=np.int64)
        self.ph_done = np.full(P, -1, dtype=np.int64)


# ----------------------------------------------------------------------
def check_plan(monkeypatch, workload, traffic, params, rate, seed):
    """Build ``workload``'s plan both ways and compare everything;
    returns the reference (its ``rng`` is the drawn generator)."""
    drawn = []

    class Recorded(random.Random):
        def __init__(self, x):
            super().__init__(x)
            drawn.append(self)

    with monkeypatch.context() as m:
        m.setattr(driver, "random", types.SimpleNamespace(Random=Recorded))
        plan = PhasePlan(workload, traffic, params=params, rate=rate,
                         seed=seed)
    ref = LoopPlan(workload, traffic, params, rate, seed)
    for name in FIELDS:
        want, got = getattr(ref, name), getattr(plan, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == np.int64 and got.flags.c_contiguous, name
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name
        else:
            assert got == want and type(got) is type(want), name
    assert all(type(x) is int for x in plan._masked)
    (rng,) = drawn
    assert rng.getstate() == ref.rng.getstate()
    return ref


@functools.lru_cache(maxsize=None)
def fabric_point(name):
    spec = FABRICS[name]()
    return spec, build_experiment(spec)[2]


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("fabric_name", list(FABRICS)[:3])
@pytest.mark.parametrize("workload", list_workloads())
def test_registry_plans_match_the_loop(
    monkeypatch, workload, fabric_name, rate
):
    spec, traffic = fabric_point(fabric_name)
    wl = workload_for_traffic(workload, {}, traffic)
    ref = check_plan(
        monkeypatch, wl, traffic, spec.params, rate, point_seed(spec, rate)
    )
    assert ref.total_events > 0
    if fabric_name == "switchless-degraded":
        assert sum(ref._masked) > 0


def uneven_traffic(pattern):
    """A 4x4 mesh scope holding 4, 1, 3 and 2 nodes of its four chips,
    chips interleaved and nodes out of order."""
    graph = build_mesh(MeshSpec(dim=4, chiplet_dim=2)).graph
    c = graph.chips()
    scope = [
        c[2][2], c[0][3], c[0][0], c[2][0], c[1][1], c[3][1], c[0][2],
        c[2][1], c[3][0], c[0][1],
    ]
    return pattern(graph, scope)


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("pattern", [UniformTraffic, BitReverseTraffic])
@pytest.mark.parametrize("workload", list_workloads())
def test_uneven_chips_draw_the_fallback_alike(
    monkeypatch, workload, pattern, rate
):
    traffic = uneven_traffic(pattern)
    params = fabric("mesh")[0].params
    wl = workload_for_traffic(workload, {}, traffic)
    ref = check_plan(monkeypatch, wl, traffic, params, rate, seed=5)
    # the counterpart fell back to a random node at least once
    assert ref.rng.getstate() != random.Random(5 ^ 0x10AD).getstate()
    # and with dead endpoints in the scope
    dead = DeadChips(traffic, [traffic.index.nodes[i] for i in (0, 4)])
    ref = check_plan(monkeypatch, wl, dead, params, rate, seed=5)
    assert sum(ref._masked) > 0


def test_a_single_chip_is_refused():
    graph = build_mesh(MeshSpec(dim=4, chiplet_dim=2)).graph
    wl = build_workload("ring_allreduce", None, num_chips=2)
    solo = UniformTraffic(graph, graph.chips()[0])
    with pytest.raises(ValueError, match=">= 2 participating chips"):
        PhasePlan(wl, solo, params=fabric("mesh")[0].params, rate=0.5,
                  seed=1)


@pytest.mark.parametrize("name", ["mesh", "switchless"])
@given(
    workload=workloads(),
    dead=st.sets(st.integers(0, 3), max_size=3),
    rate=st.sampled_from(RATES),
    seed=st.integers(0, 9),
)
@settings(max_examples=40, deadline=None)
def test_drawn_workloads_match_the_loop(name, workload, dead, rate, seed):
    spec, graph, routing, traffic = fabric(name)
    _, positions, chip_nodes = loop_participating_chips(traffic)
    masked = DeadChips(
        traffic,
        [n for c in dead if c < len(positions)
         for n in chip_nodes[positions[c]]],
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_plan(monkeypatch, workload, masked, spec.params, rate, seed)
