"""Property test: the kernel's plan mode against the specification.

Hypothesis draws small workload DAGs straight from the IR — shift,
all-to-all and compute-only phases, compute delays including 0, volumes
below and above one packet, arbitrary ``after`` sets over the earlier
phases (chains, diamonds, several roots, chains of compute-only phases)
— plus a set of dead chips (a shift phase between dead chips has every
event masked) and a routing wrapper that gives some pairs zero-hop
routes, on a 4x4 mesh and a 2-W-group switch-less system.  Every
example must come out identical on the native and the reference core
(the snapshot of ``test_closed_loop_identity``), drained, and leave the
network quiescent: the invariants of
``tests/network/test_conservation.py``.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import build_experiment
from repro.network import native_available
from repro.network.simulator import Simulator
from repro.workload import Phase, PhasePlan, Workload, participating_chips

from ..network.test_conservation import _assert_conserved
from .test_closed_loop_identity import PROBES, mesh_spec, snapshot
from .test_closed_loop_identity import switchless_spec

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)

PACKET = 4  # SimParams.packet_length default: volumes straddle it


@functools.lru_cache(maxsize=None)
def fabric(name):
    spec = {"mesh": mesh_spec, "switchless": switchless_spec}[name]()
    return (spec,) + build_experiment(spec)


class DeadChips:
    """What a plan reads of a ``FaultMaskedTraffic``: the base pattern
    and which endpoints are alive, as the degraded view's component
    labels (and as the scalar ``alive`` / ``reachable`` the reference
    loop of ``test_plan_build`` asks)."""

    def __init__(self, base, dead_nodes):
        self.base = base
        self.degraded = self
        self._dead = frozenset(dead_nodes)

    def alive(self, node):
        return node not in self._dead

    def reachable(self, src, dst):
        return True

    @property
    def component_labels(self):
        """One component, ``-1`` for a dead node."""
        return np.array(
            [-1 if n in self._dead else 0
             for n in range(self.base.graph.num_nodes)],
            dtype=np.int64,
        )


class Teleport:
    """``base``'s routes, except that every ``modulus``-th pair shares
    a router: a zero-hop route, delivered at injection.  Not marked
    deterministic, so the front end resolves pair by pair."""

    def __init__(self, base, modulus):
        self.base = base
        self.num_vcs = base.num_vcs
        self.modulus = modulus

    def route(self, src, dst, rng):
        if (src + dst) % self.modulus == 0:
            return []
        return self.base.route(src, dst, rng)


@st.composite
def workloads(draw):
    phases = []
    for i in range(draw(st.integers(1, 6))):
        pattern = draw(st.sampled_from(
            [("shift", 1), ("shift", 2), ("shift", 3), ("all_to_all",),
             ("none",)]
        ))
        after = draw(st.sets(st.integers(0, i - 1))) if i else ()
        phases.append(Phase(
            name=f"p{i}",
            pattern=pattern,
            volume=0 if pattern == ("none",) else draw(
                st.sampled_from([1, PACKET - 1, PACKET, 2 * PACKET + 1])
            ),
            after=tuple(f"p{j}" for j in sorted(after)),
            compute=draw(st.sampled_from([0, 0, 1, 7, 40])),
        ))
    return Workload(name="drawn", phases=tuple(phases))


@pytest.mark.parametrize("name", ["mesh", "switchless"])
@given(
    workload=workloads(),
    dead=st.sets(st.integers(0, 3), max_size=3),
    teleport=st.sampled_from([0, 0, 2, 3]),
    rate=st.sampled_from([0.25, 1.0]),
    seed=st.integers(0, 9),
)
@settings(max_examples=30, deadline=None)
def test_native_matches_the_specification(
    name, workload, dead, teleport, rate, seed
):
    spec, graph, routing, traffic = fabric(name)
    if teleport:
        routing = Teleport(routing, teleport)
    _, positions, chip_nodes = participating_chips(traffic)
    masked = DeadChips(
        traffic,
        [n for c in dead if c < len(positions)
         for n in chip_nodes[positions[c]]],
    )
    snaps = {}
    for core in ("reference", "native"):
        plan = PhasePlan(
            workload, masked, params=spec.params, rate=rate, seed=seed
        )
        sim = Simulator(
            graph, routing, traffic, spec.params.scaled(seed=seed),
            core=core, probes=PROBES,
        )
        result = sim.run(rate, plan=plan)
        plan.check_drained()
        _assert_conserved(sim)
        assert (
            sim.total_flits_injected
            == plan.total_events * spec.params.packet_length
        )
        snaps[core] = snapshot(result, plan, sim.last_record)
    for part, ref in snaps["reference"].items():
        assert snaps["native"][part] == ref, part
