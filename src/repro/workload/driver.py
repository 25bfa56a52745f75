"""Closed-loop phase scheduler driving the simulator cores.

Open-loop runs pre-sample every packet start into an
:class:`~repro.network.schedule.InjectionSchedule`.  Closed-loop runs
instead carry a :class:`PhasePlan`: the plan owns the event arrays the
cores walk, watches per-phase completion counts through a
``packet_done`` callback at the tail-flit ejection sites, and releases
a phase's injections only once every upstream phase has drained (plus
the phase's ``compute`` delay) — the dependency-driven behaviour of
real training traffic.

Mechanics, shared by :class:`~repro.network.simcore.ArrayCore` and
:class:`~repro.network.refcore.ReferenceCore` so their closed-loop runs
stay bit-identical:

* every phase's event *template* (per-node packet offsets and
  chip-counterpart destinations) is computed at plan construction, so
  no traffic RNG is consumed at runtime — the cores' stdlib RNG streams
  only see route draws, in the same order, through the shared
  :meth:`~repro.network.corebase.CoreBase.route_slice`;
* packet ids equal event-consumption order (the plan never drops an
  event at injection time), so ``ev_phase[pid]`` maps a delivered
  packet back to its phase;
* released events are merged into the tail of the event arrays (never
  before the consumption pointer) with a stable sort, keeping the
  arrays cycle-ordered;
* dependents are released at ``t_done + 1``, so a core that matches
  events with strict cycle equality (the reference core) never misses
  a release materialised at the end of cycle ``t_done``.

The C kernel has no per-cycle callback surface, so a native core hands
a plan to a fresh array core of the same configuration.

Faults: when the traffic is a
:class:`~repro.faults.traffic.FaultMaskedTraffic`, events whose source
is dead, or whose destination is dead or unreachable, are *masked* at
plan build (dropped and counted per phase), exactly like the open-loop
``dest(...) is None`` mask.  A phase keeps its ring structure over the
healthy chip list, so degraded completion times stay comparable.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from ..network.params import SimParams
from .ir import Workload

__all__ = [
    "PhasePlan",
    "run_closed_loop",
    "participating_chips",
    "workload_for_traffic",
]


def participating_chips(traffic):
    """Ordered chip positions (and their scope nodes) a workload runs
    over, from the *base* traffic pattern's scope.

    Returns ``(index, chip_positions, chip_scope_nodes)`` where
    ``chip_positions`` are :class:`~repro.traffic.base.ChipIndex`
    positions in first-appearance scope order and ``chip_scope_nodes``
    maps each position to its scope nodes.  The base pattern (not the
    fault-masked wrapper) defines the set, so the ring structure is the
    same for healthy and degraded runs — dead endpoints are masked per
    event instead.
    """
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


class PhasePlan:
    """Runtime state of one closed-loop run (see module docstring).

    The cores treat the plan as the owner of the injection event
    arrays: ``begin(t0)`` materialises the DAG's root phases and
    returns the initial event count, ``packet_done(pid, t)`` is called
    at every tail-flit ejection, ``flush(ip)`` (end of cycle, when
    ``dirty``) merges newly released phases into the arrays, and
    ``finished`` breaks the simulation loop.
    """

    def __init__(
        self,
        workload: Workload,
        traffic,
        params: SimParams,
        rate: float,
        seed: int,
    ) -> None:
        if rate <= 0:
            raise ValueError("closed-loop rate must be > 0")
        self.workload = workload
        self.rate = float(rate)
        self._L = params.packet_length
        index, positions, chip_nodes = participating_chips(traffic)
        if len(positions) < 2:
            raise ValueError(
                "closed-loop workloads need >= 2 participating chips "
                f"in scope, got {len(positions)}"
            )
        degraded = getattr(traffic, "degraded", None)
        rng = random.Random(seed ^ 0x10AD)

        # ---- per-phase event templates --------------------------------
        # (offset, src, dst) per event, sorted by (offset, scope order);
        # offsets are relative to the phase's first injection cycle.
        n = len(positions)
        L = self._L
        node_order: Dict[int, int] = {}
        for ci in positions:
            for nid in chip_nodes[ci]:
                node_order[nid] = len(node_order)
        self._templates: List[List[Tuple[int, int, int]]] = []
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
            self._templates.append([(o, s, d) for o, _, s, d in events])
            self._masked.append(masked)

        # ---- runtime state --------------------------------------------
        P = workload.num_phases
        idx = workload.phase_index()
        self._indeg = [len(ph.after) for ph in workload.phases]
        self._deps: List[List[int]] = [[] for _ in range(P)]
        for i, ph in enumerate(workload.phases):
            for dep in ph.after:
                self._deps[idx[dep]].append(i)
        self._release_c = [-1] * P
        self._comm_start_c = [-1] * P
        self._done_c = [-1] * P
        self._remaining = [len(t) for t in self._templates]
        self._phases_done = 0
        self._pending: List[Tuple[int, int]] = []
        self._t0 = 0
        self._begun = False
        #: set when completions queued releases a flush must materialise.
        self.dirty = False

        #: event arrays the cores walk (the plan appends, never drops).
        self.ev_cycles: List[int] = []
        self.ev_nodes: List[int] = []
        self.ev_dests: List[int] = []
        self.ev_phase: List[int] = []
        self.total_events = sum(len(t) for t in self._templates)

    # ------------------------------------------------------------------
    @property
    def num_phases(self) -> int:
        return self.workload.num_phases

    @property
    def finished(self) -> bool:
        return self._phases_done == self.workload.num_phases

    def begin(self, t0: int) -> int:
        """Materialise the DAG's root phases; returns the event count."""
        if self._begun:
            raise RuntimeError(
                "a PhasePlan is single-run: build a fresh plan per run()"
            )
        self._begun = True
        self._t0 = t0
        for i in self.workload.topo_order():
            if self._indeg[i] == 0:
                self._pending.append((i, t0))
        self.dirty = True
        return self.flush(0)

    def packet_done(self, pid: int, t: int) -> None:
        """Tail flit of packet ``pid`` ejected at cycle ``t``."""
        i = self.ev_phase[pid]
        rem = self._remaining
        rem[i] -= 1
        if rem[i] == 0:
            self._done_c[i] = t
            self._phases_done += 1
            self._cascade(i, t)

    def _cascade(self, i: int, t_done: int) -> None:
        for j in self._deps[i]:
            self._indeg[j] -= 1
            if self._indeg[j] == 0:
                self._pending.append((j, t_done + 1))
                self.dirty = True

    def flush(self, ip: int) -> int:
        """Materialise pending releases into the event arrays.

        ``ip`` is the core's consumption pointer: events at positions
        ``< ip`` are already injected and must not move; the tail is
        re-sorted (stably) by cycle after the merge.  Returns the new
        event count.
        """
        appended = False
        while self._pending:
            i, base = self._pending.pop(0)
            ph = self.workload.phases[i]
            start = base + ph.compute
            self._release_c[i] = base
            events = self._templates[i]
            if events:
                self._comm_start_c[i] = start + events[0][0]
                cyc = self.ev_cycles
                nod = self.ev_nodes
                dst = self.ev_dests
                phl = self.ev_phase
                for off, s, d in events:
                    cyc.append(start + off)
                    nod.append(s)
                    dst.append(d)
                    phl.append(i)
                appended = True
            else:
                # compute-only (or fully masked) phase: done after its
                # compute delay, cascading dependents immediately
                self._done_c[i] = start
                self._phases_done += 1
                self._cascade(i, start)
        if appended and ip < len(self.ev_cycles):
            tail = sorted(
                zip(
                    self.ev_cycles[ip:],
                    self.ev_nodes[ip:],
                    self.ev_dests[ip:],
                    self.ev_phase[ip:],
                ),
                key=lambda e: e[0],
            )
            self.ev_cycles[ip:] = [e[0] for e in tail]
            self.ev_nodes[ip:] = [e[1] for e in tail]
            self.ev_dests[ip:] = [e[2] for e in tail]
            self.ev_phase[ip:] = [e[3] for e in tail]
        self.dirty = False
        return len(self.ev_cycles)

    # ------------------------------------------------------------------
    def elapsed(self) -> int:
        """Makespan in cycles (through the last completed phase)."""
        last = max((d for d in self._done_c if d >= 0), default=self._t0)
        return max(1, last - self._t0 + 1)

    def horizon(self) -> int:
        """Generous cycle bound for the run window.

        Serialised worst case per phase — compute, the injection span,
        then every flit of the phase through one contended link — plus
        slack; the loop breaks at ``finished`` long before this in any
        healthy run, so the bound only caps a stalled (buggy) run.
        """
        bound = 4096
        L = self._L
        for ph, events in zip(self.workload.phases, self._templates):
            span = events[-1][0] if events else 0
            bound += ph.compute + span + len(events) * L * 8 + 2048
        return bound

    def phase_records(self) -> Tuple[Dict, ...]:
        """Per-phase completion records for :class:`RunRecord.phases`."""
        recs = []
        for i, ph in enumerate(self.workload.phases):
            recs.append(
                {
                    "name": ph.name,
                    "release": self._release_c[i],
                    "comm_start": self._comm_start_c[i],
                    "done": self._done_c[i],
                    "compute": ph.compute,
                    "packets": len(self._templates[i]),
                    "flits": len(self._templates[i]) * self._L,
                    "masked": self._masked[i],
                }
            )
        return tuple(recs)


# ----------------------------------------------------------------------
def workload_for_traffic(name: str, opts, traffic) -> Workload:
    """Build a registered workload (or trace) sized to the traffic's
    participating chips."""
    from .ir import build_workload

    _, positions, _ = participating_chips(traffic)
    return build_workload(name, opts, num_chips=len(positions))


def run_closed_loop(
    spec,
    graph,
    routing,
    traffic,
    rate: float,
    *,
    core: Optional[str] = None,
):
    """Closed-loop twin of the executor's open-loop point simulation.

    Builds the spec's workload over the traffic's participating chips,
    plans the phases, and runs one simulator at ``rate`` (the pacing
    bandwidth, flits/cycle/chip) under the plan.  The run window is
    ``[0, horizon)`` with no warmup/drain; the core breaks out as soon
    as the last phase drains, and the result's ``measure_cycles`` is
    the measured makespan — so ``accepted_rate`` reports the achieved
    collective bandwidth.
    """
    from ..engine.spec import build_metrics, point_seed
    from ..network.simulator import Simulator

    workload = workload_for_traffic(
        spec.workload, dict(spec.workload_opts), traffic
    )
    seed = point_seed(spec, rate)
    plan = PhasePlan(
        workload, traffic, params=spec.params, rate=rate, seed=seed
    )
    params = spec.params.scaled(
        seed=seed,
        warmup_cycles=0,
        measure_cycles=plan.horizon(),
        drain_cycles=0,
    )
    sim = Simulator(
        graph,
        routing,
        traffic,
        params,
        core=core,
        probes=build_metrics(spec),
    )
    result = sim.run(rate, plan=plan)
    if not plan.finished:
        stuck = [
            r["name"] for r in plan.phase_records() if r["done"] < 0
        ]
        raise RuntimeError(
            f"closed-loop run of workload {workload.name!r} did not "
            f"drain within {plan.horizon()} cycles; stuck phase(s): "
            f"{', '.join(stuck)}"
        )
    return result
