"""Closed-loop phase scheduler driving the simulator cores.

Open-loop runs pre-sample every packet start into an
:class:`~repro.network.schedule.InjectionSchedule`.  Closed-loop runs
instead carry a :class:`PhasePlan`: a phase's injections are released
only once every upstream phase has drained (plus the phase's
``compute`` delay) — the dependency-driven behaviour of real training
traffic.

Everything about a plan except *when* a phase is released is known
before the run, and the plan holds it as flat int64 arrays: every
phase's event *template* (per-event packet offset, source and
pre-drawn chip-counterpart destination, phase-major), the per-phase
event range and compute delay, the in-degree and the dependents in CSR
form.  The templates are built as array passes over label tables
cached per traffic pattern — the participating sources grouped by chip
(:attr:`~repro.traffic.base.TrafficPattern.chip_sources`), the
``(chip position, offset) -> node`` counterpart table
(:attr:`~repro.traffic.base.ChipIndex.counterpart_table`) and, under
faults, the degraded view's component labels — with no Python loop per
event.  The shared front end
(:meth:`~repro.network.corebase.CoreBase._begin`) turns the template
events into packet-table rows — routes resolved in bulk, in template
order — before any loop starts, so a plan's packet id is its template
index.  What is left for the run is release, and it exists twice:

* **in the compiled kernel** (``_simcore.c``, plan mode), as integer
  counters over these arrays: a per-phase count of undelivered packets
  decremented at the tail-flit ejection, a per-phase count of undrained
  upstream phases decremented when one drains, release at
  ``t_done + 1``, injection as a merge over the released phases.  The
  kernel writes each phase's release / first-injection / drain cycle
  into the plan's arrays; nothing calls back into Python.
* **here**, as the executable specification the kernel is tested
  against, which the reference loop
  (:class:`~repro.network.refcore.ReferenceCore`) drives: ``begin()``
  materialises the DAG's root phases, released at cycle 0, into the
  event lists the loop walks, ``packet_done(pid, t)`` is called at every
  tail-flit ejection,
  ``flush(ip)`` (end of cycle, when ``dirty``) merges newly released
  phases in, and ``finished`` breaks the loop.

Mechanics both share:

* released events are merged behind the consumption pointer in
  ``(cycle, release sequence, template index)`` order — here with a
  stable sort of the tail, in the kernel as a scan over the released
  phases in release order;
* dependents are released at ``t_done + 1``, so a core that matches
  events with strict cycle equality (the reference core) never misses
  a release materialised at the end of cycle ``t_done``;
* a phase with nothing to send (compute-only, or fully masked) drains
  at its release plus compute delay and cascades on the spot;
* a plan brings its own run window: ``[0, horizon())``, no warmup and
  no drain;
* a plan describes one run: a second :meth:`PhasePlan.start` raises
  :data:`~repro.network.corebase.SINGLE_RUN`, like a second run of a
  core.

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

import numpy as np

from ..network.corebase import SINGLE_RUN
from ..network.params import SimParams
from .ir import Workload

__all__ = [
    "PhasePlan",
    "plan_points",
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
    sources = base.chip_sources
    positions = sources.positions.tolist()
    bounds = sources.bounds.tolist()
    members = sources.nodes.tolist()
    nodes = {
        ci: members[bounds[g]:bounds[g + 1]] for g, ci in enumerate(positions)
    }
    return base.index, positions, nodes


class PhasePlan:
    """One closed-loop run: templates, dependency counters and the
    per-phase cycle stamps (see module docstring).

    The build is one event grid over ``(phase, source, j)`` — phases in
    workload order, sources in node order (chips in first-appearance
    scope order, then scope order within a chip), ``j`` the source's
    packet within the phase — which is also the order destinations are
    drawn in: each event's destination chip comes from the phase's
    pattern, its destination node from the counterpart table, and only
    events whose in-chip offset the destination chip lacks draw a random
    node of it from the plan's stdlib RNG, in grid order (masked events
    included, so the stream never depends on the faults).  Fault
    masking is ``lab[src] >= 0 & lab[src] == lab[dst]`` over the
    component labels, per-phase masked counts a ``bincount``; a phase's
    events are then ordered by ``(offset, node order)`` with one
    ``lexsort``, a pair unique within a phase.

    Attributes a core reads (all int64, ``P`` phases, ``E`` events):
    ``ph_ev0[P + 1]`` (phase ``i`` owns events ``ph_ev0[i]:ph_ev0[i +
    1]``), ``tpl_off`` / ``tpl_src`` / ``tpl_dst`` / ``tpl_phase``
    ``[E]``, ``ph_compute[P]``, ``dep_ptr[P + 1]`` / ``dep_idx`` (CSR of
    dependents), and the run state ``ph_indeg`` / ``ph_rem`` (count
    down) and ``ph_release`` / ``ph_comm_start`` / ``ph_done`` (cycle
    stamps, ``-1`` until reached).
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
        base = getattr(traffic, "base", traffic)
        sources = base.chip_sources
        n = len(sources.positions)
        if n < 2:
            raise ValueError(
                "closed-loop workloads need >= 2 participating chips "
                f"in scope, got {n}"
            )
        degraded = getattr(traffic, "degraded", None)
        rng = random.Random(seed ^ 0x10AD)
        P = workload.num_phases
        L = self._L

        # ---- per-phase event templates --------------------------------
        # one grid over (phase, source, j) in node order, the order the
        # destinations are drawn in; offsets are relative to the phase's
        # first injection cycle
        comm, ks, shifts = [], [], []
        for i, ph in enumerate(workload.phases):
            if not ph.communicates:
                continue
            comm.append(i)
            ks.append(max(1, int(math.ceil(ph.volume / L))))
            if ph.pattern[0] == "shift":
                # a wrapped stride still has to move data
                shifts.append(int(ph.pattern[1]) % n or 1)
            else:  # all_to_all: the chip steps with j
                shifts.append(-1)
        sizes = np.array(ks, dtype=np.int64) * len(sources.nodes)
        phase = np.repeat(np.array(comm, dtype=np.int64), sizes)
        k = np.repeat(np.array(ks, dtype=np.int64), sizes)
        q = np.arange(len(phase), dtype=np.int64) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )
        s, j = q // k, q % k
        shift = np.repeat(np.array(shifts, dtype=np.int64), sizes)
        rank = sources.rank[s]
        dpos = sources.positions[
            np.where(shift > 0, rank + shift, rank + 1 + j % (n - 1)) % n
        ]
        # the source's counterpart on the destination chip; an offset the
        # chip lacks falls back to a random node of it, drawn in grid order
        table, lengths = base.index.counterpart_table
        dst = table[dpos, sources.offset[s]]
        miss = np.flatnonzero(dst < 0)
        if len(miss):
            dst[miss] = table[
                dpos[miss],
                [rng.randrange(size) for size in lengths[dpos[miss]].tolist()],
            ]
        src = sources.nodes[s]
        if degraded is not None:
            lab = degraded.component_labels
            keep = (lab[src] >= 0) & (lab[src] == lab[dst])
            self._masked = np.bincount(
                phase[~keep], minlength=P
            ).tolist()
            phase, s, j, src, dst = (
                a[keep] for a in (phase, s, j, src, dst)
            )
        else:
            self._masked = [0] * P
        # per-node packet interval: a chip with m nodes injecting a
        # packet every I cycles offers m*L/I flits/cycle/chip; >= L keeps
        # each node's packets back-to-back at most
        m = np.diff(sources.bounds)[sources.rank]
        interval = np.maximum(
            L, np.ceil(m * L / self.rate).astype(np.int64)
        )
        off = j * interval[s]
        # (offset, node order) is unique within a phase
        order = np.lexsort((s, off, phase))
        counts = np.bincount(phase, minlength=P)

        # ---- flat, phase-major (what every consumer reads) ------------
        self.total_events = len(order)
        self.ph_ev0 = np.zeros(P + 1, dtype=np.int64)
        np.cumsum(counts, out=self.ph_ev0[1:])
        self.tpl_off = off[order]
        self.tpl_src = src[order]
        self.tpl_dst = dst[order]
        self.tpl_phase = phase[order]
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
        self.ph_rem = counts.astype(np.int64)
        self.ph_release = np.full(P, -1, dtype=np.int64)
        self.ph_comm_start = np.full(P, -1, dtype=np.int64)
        self.ph_done = np.full(P, -1, dtype=np.int64)
        self._begun = False

        # ---- the reference loop's view (begin / packet_done / flush) -
        self._pending: List[Tuple[int, int]] = []
        #: set when completions queued releases a flush must materialise.
        self.dirty = False
        #: released events in injection order: cycle, source node and
        #: packet id (the event's template index).
        self.ev_cycles: List[int] = []
        self.ev_nodes: List[int] = []
        self.ev_pids: List[int] = []

    # ------------------------------------------------------------------
    @property
    def num_phases(self) -> int:
        return self.workload.num_phases

    @property
    def finished(self) -> bool:
        return bool((self.ph_done >= 0).all())

    def start(self) -> None:
        """Claim the plan for the one run it describes (the kernel
        releases the root phases itself)."""
        if self._begun:
            raise RuntimeError(SINGLE_RUN)
        self._begun = True

    def begin(self) -> int:
        """:meth:`start`, then materialise the DAG's root phases,
        released at cycle 0; returns the event count."""
        self.start()
        for i in self.workload.topo_order():
            if self.ph_indeg[i] == 0:
                self._pending.append((i, 0))
        self.dirty = True
        return self.flush(0)

    def packet_done(self, pid: int, t: int) -> None:
        """Tail flit of packet ``pid`` ejected at cycle ``t``."""
        i = self.tpl_phase[pid]
        rem = self.ph_rem
        rem[i] -= 1
        if rem[i] == 0:
            self._drained(i, t)

    def _drained(self, i: int, t_done: int) -> None:
        self.ph_done[i] = t_done
        for j in self.dep_idx[self.dep_ptr[i]:self.dep_ptr[i + 1]]:
            self.ph_indeg[j] -= 1
            if self.ph_indeg[j] == 0:
                self._pending.append((j, t_done + 1))
                self.dirty = True

    def flush(self, ip: int) -> int:
        """Materialise pending releases into the event lists.

        ``ip`` is the core's consumption pointer: events at positions
        ``< ip`` are already injected and must not move; the tail is
        re-sorted (stably) by cycle after the merge.  Returns the new
        event count.
        """
        appended = False
        while self._pending:
            i, base = self._pending.pop(0)
            start = base + int(self.ph_compute[i])
            self.ph_release[i] = base
            e0, e1 = self.ph_ev0[i:i + 2].tolist()
            if e0 < e1:
                offs = self.tpl_off[e0:e1].tolist()
                self.ph_comm_start[i] = start + offs[0]
                self.ev_cycles.extend(start + off for off in offs)
                self.ev_nodes.extend(self.tpl_src[e0:e1].tolist())
                self.ev_pids.extend(range(e0, e1))
                appended = True
            else:
                # compute-only (or fully masked) phase: done after its
                # compute delay, cascading dependents immediately
                self._drained(i, start)
        if appended and ip < len(self.ev_cycles):
            tail = sorted(
                zip(
                    self.ev_cycles[ip:], self.ev_nodes[ip:],
                    self.ev_pids[ip:],
                ),
                key=lambda e: e[0],
            )
            self.ev_cycles[ip:] = [e[0] for e in tail]
            self.ev_nodes[ip:] = [e[1] for e in tail]
            self.ev_pids[ip:] = [e[2] for e in tail]
        self.dirty = False
        return len(self.ev_cycles)

    # ------------------------------------------------------------------
    def elapsed(self) -> int:
        """Makespan in cycles (through the last completed phase)."""
        return max(1, int(self.ph_done.max()) + 1)

    def horizon(self) -> int:
        """Generous cycle bound for the run window.

        Serialised worst case per phase — compute, the injection span,
        then every flit of the phase through one contended link — plus
        slack; the loop breaks at ``finished`` long before this in any
        healthy run, so the bound only caps a stalled (buggy) run.
        """
        ev0 = self.ph_ev0
        counts = ev0[1:] - ev0[:-1]
        # a phase's last event has its largest offset
        spans = np.where(
            counts > 0, np.append(self.tpl_off, 0)[ev0[1:] - 1], 0
        )
        per_phase = self.ph_compute + spans + counts * (self._L * 8) + 2048
        return 4096 + int(per_phase.sum())

    def phase_records(self) -> Tuple[Dict, ...]:
        """Per-phase completion records for :class:`RunRecord.phases`."""
        recs = []
        packets = (self.ph_ev0[1:] - self.ph_ev0[:-1]).tolist()
        release = self.ph_release.tolist()
        comm_start = self.ph_comm_start.tolist()
        done = self.ph_done.tolist()
        for i, ph in enumerate(self.workload.phases):
            recs.append(
                {
                    "name": ph.name,
                    "release": release[i],
                    "comm_start": comm_start[i],
                    "done": done[i],
                    "compute": ph.compute,
                    "packets": packets[i],
                    "flits": packets[i] * self._L,
                    "masked": self._masked[i],
                }
            )
        return tuple(recs)

    def check_drained(self) -> None:
        """Raise unless every phase drained inside the run window."""
        stuck = [
            ph.name
            for ph, done in zip(self.workload.phases, self.ph_done)
            if done < 0
        ]
        if stuck:
            raise RuntimeError(
                f"closed-loop run of workload {self.workload.name!r} "
                f"did not drain within {self.horizon()} cycles; stuck "
                f"phase(s): {', '.join(stuck)}"
            )


# ----------------------------------------------------------------------
def workload_for_traffic(name: str, opts, traffic) -> Workload:
    """Build a registered workload (or trace) sized to the traffic's
    participating chips."""
    from .ir import build_workload

    _, positions, _ = participating_chips(traffic)
    return build_workload(name, opts, num_chips=len(positions))


def plan_points(spec, traffic, rates) -> List[PhasePlan]:
    """One fresh :class:`PhasePlan` of the spec's workload per pacing
    rate, each seeded like the point it belongs to."""
    from ..engine.spec import point_seed

    workload = workload_for_traffic(
        spec.workload, dict(spec.workload_opts), traffic
    )
    return [
        PhasePlan(
            workload, traffic, params=spec.params, rate=rate,
            seed=point_seed(spec, rate),
        )
        for rate in rates
    ]


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
    bandwidth, flits/cycle/chip) under the plan: the one-lane call of
    the batch the executor runs.  The run window is the plan's
    ``[0, horizon)`` with no warmup/drain; the core breaks out as soon
    as the last phase drains, and the result's ``measure_cycles`` is
    the measured makespan — so ``accepted_rate`` reports the achieved
    collective bandwidth.  A plan that does not drain inside its
    horizon raises :class:`RuntimeError` naming the stuck phases.
    """
    from ..engine.spec import build_metrics, point_seed
    from ..network.simulator import run_batch

    return run_batch(
        graph,
        routing,
        traffic,
        spec.params,
        [(point_seed(spec, rate), rate)],
        core=core,
        probes=build_metrics(spec),
        plans=plan_points(spec, traffic, [rate]),
    )[0]
