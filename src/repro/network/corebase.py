"""The loop-free half of a simulator core, shared by both.

The paper's minimal and non-minimal algorithms are oblivious and
source-routed: a packet's destination and route are drawn at injection
and never depend on network state.  Turning ``(rate, seed)`` into
packets with routes is therefore a pure function that has nothing to do
with the per-cycle router model — and :class:`CoreBase` owns it, once,
for :class:`~repro.network.native.NativeCore` and
:class:`~repro.network.refcore.ReferenceCore`, which keep only their
loops:

* the link and ``(link, VC)`` constant tables (:class:`LinkTables`,
  shared by every core of a graph), the event-wheel size, the two RNG
  streams (numpy for the injection schedule, stdlib for destination and
  route choice) and the active-node bookkeeping;
* ``injection_probs`` / ``make_schedule``, ``enable_probes`` /
  ``run_record`` and :class:`~repro.network.stats.SimResult` assembly;
* the **open-loop packet front end** (:meth:`CoreBase._prepare`): the
  schedule's events are resolved *before* the loop into one
  :class:`PacketTable` row each — creation cycle, measured flag,
  source, destination and the route's ``(offset, hops)`` slice of
  :attr:`CoreBase._routes`.  The stdlib RNG is consumed in schedule
  order (destination draw, then route draw for packets that are
  actually created) by this one code path, so the two cores agree on
  everything but the router model by construction, pinned schedule or
  not.  The native core runs the same draws in the compiled kernel
  (:meth:`CoreBase._resolve_packets_vec`), bit-exact, whenever the
  traffic pattern and routing publish them as rows.

Routes live in one of two places (see :mod:`repro.routing.table`): the
routing object's shared :class:`~repro.routing.table.RouteTable` for a
deterministic routing, else a per-core
:class:`~repro.routing.table.RouteArena` — randomised routes, and cores
that resolve through the routing's closed-form
:class:`~repro.routing.plane.RoutePlane` (the native core only: the
reference core keeps checking the plane against the scalar
``route()``).

Closed-loop (``plan``) runs are pre-resolved too
(:meth:`CoreBase._begin`): *when* a phase's events inject is dynamic,
but which packets exist is not, so every template event of the
:class:`~repro.workload.driver.PhasePlan` becomes a packet-table row
before the loop, in template order — its route resolved through the
same bulk calls, its creation cycle and measured flag stamped by the
loop at injection.  A plan's packet ids are therefore static (the
template index) on every core.

A core runs once: its one run starts at cycle 0 with the packet table
holding exactly that run's packets, and a second ``run()`` raises
:data:`SINGLE_RUN`.
"""

from __future__ import annotations

import random
import weakref
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..routing.table import RouteArena
from ..topology.graph import NetworkGraph
from .params import SimParams
from .schedule import InjectionSchedule, build_injection_schedule
from .stats import SimResult
from .vecrandom import VecRandom

if TYPE_CHECKING:
    from ..metrics.record import RunRecord

__all__ = [
    "CoreBase", "LinkTables", "PacketTable", "SINGLE_RUN", "link_tables",
]

#: what a second ``run()`` of a core, a
#: :class:`~repro.network.simulator.Simulator`, a
#: :class:`~repro.network.native.NativeBatch` or a
#: :class:`~repro.workload.driver.PhasePlan` raises
SINGLE_RUN = (
    "a simulator core, Simulator, NativeBatch or PhasePlan runs once: "
    "build a fresh one per run()"
)

# Flit word of the native kernel (``_simcore.c``):
# (pid << 22) | (flit_idx << 11) | hop, 11 bits each for the flit
# index and the hop, so a packet and a route hold at most 2047.
_FIDX_MASK = (1 << 11) - 1
_MAX_HOPS = (1 << 11) - 1  # longest representable route


def _zeros(n: int) -> np.ndarray:
    return np.zeros(max(1, int(n)), dtype=np.int64)


def _as_i64(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    return arr if arr.size else _zeros(0)


class PacketTable:
    """Every packet of a core's run, one int64 row per field.

    Packet ids are column indices; the pre-pass fills the table once:
    an open-loop run's packets in creation order, a closed-loop plan's
    in template order (``t0`` = -1 and ``meas`` = 0 until a loop
    injects the packet and stamps both in place).
    """

    def __init__(self) -> None:
        self._rows = np.empty((6, 0), dtype=np.int64)

    def __len__(self) -> int:
        return self._rows.shape[1]

    def fill(self, t0, meas, src, dst, off, hops) -> None:
        """Set the packets from aligned columns (lists or arrays)."""
        self._rows = np.empty((6, len(t0)), dtype=np.int64)
        for row, column in zip(self._rows, (t0, meas, src, dst, off, hops)):
            row[:] = column

    #: creation cycle, created-in-window flag, source and
    #: destination node, route offset into the core's arena, route hops.
    t0 = property(lambda self: self._rows[0])
    meas = property(lambda self: self._rows[1])
    src = property(lambda self: self._rows[2])
    dst = property(lambda self: self._rows[3])
    off = property(lambda self: self._rows[4])
    hops = property(lambda self: self._rows[5])


class LinkTables:
    """The per-link and per-``(link, VC)`` constants of one ``(graph,
    num_vcs, router_latency)``, int64, flattened to ``lv = link * V +
    vc``.  Read-only: :func:`link_tables` shares one instance between
    every core of the graph — the lanes of a batch and the points of a
    sweep.  In-flight time is wire latency + router pipeline; credit
    return models the reverse wire of the channel."""

    def __init__(self, graph, num_vcs: int, router_latency: int) -> None:
        links = graph.links
        latency = np.array([l.latency for l in links], dtype=np.int64)
        link_dst = np.array([l.dst for l in links], dtype=np.int64)
        credit_delay = np.maximum(latency, 1)
        self.cap = np.array([l.capacity for l in links], dtype=np.int64)
        self.hop_delay = latency + router_latency
        lv_link = self.lv_link = np.repeat(
            np.arange(len(links), dtype=np.int64), num_vcs
        )
        self.lv_dst = link_dst[lv_link]
        self.cap_lv = self.cap[lv_link]
        self.cdel_lv = credit_delay[lv_link]
        self.lv_delay = self.hop_delay[lv_link]
        self.wheel_size = 1 + int(
            max(self.hop_delay.max(initial=1), credit_delay.max(initial=1))
        )
        #: most (link, VC) inputs of any router
        self.max_in = max(
            1, int(np.bincount(link_dst).max(initial=0)) * num_vcs
        )


_link_tables: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def link_tables(graph, num_vcs: int, router_latency: int) -> LinkTables:
    """The shared :class:`LinkTables` of ``graph``, built on first use
    and kept for as long as the graph lives (like
    :func:`~repro.metrics.record.graph_tables`)."""
    per_graph = _link_tables.setdefault(graph, {})
    key = (num_vcs, router_latency)
    tables = per_graph.get(key)
    if tables is None or tables.cap.size != graph.num_links:
        tables = per_graph[key] = LinkTables(graph, num_vcs, router_latency)
    return tables


def _window_events(schedule: InjectionSchedule, ctx: "RunCtx") -> int:
    """How many of the schedule's (sorted) events start before the
    run's injection window closes; later ones never become packets."""
    return int(np.searchsorted(schedule.cycles, ctx.meas_end, side="left"))


class RunCtx:
    """A core's run, resolved: the window's cycle stamps (the run
    covers ``[0, t_end)``) and the offered load.  Attributes: ``rate``,
    ``warm``, ``meas_end``, ``t_end``, ``effective_offered``; the
    native core adds its kernel's output buffers."""


class CoreBase:
    """Construction, front end and measurement of a simulator core
    (see module docstring); subclasses add ``run()``."""

    #: name reported in :class:`~repro.metrics.RunRecord.core`.
    core_id = ""
    #: flits are packed ints, so routes and packets have a length limit.
    packed_flits = False
    #: run the front end through the compiled kernel: routes through
    #: the routing's closed-form plane, draws through the draw pass.
    compiled_front_end = False

    def __init__(
        self,
        graph: NetworkGraph,
        routing,
        traffic,
        params: SimParams,
    ) -> None:
        self.graph = graph
        self.routing = routing
        self.traffic = traffic
        self.params = params

        if self.packed_flits and params.packet_length > _FIDX_MASK:
            raise ValueError(
                f"packet_length {params.packet_length} exceeds the "
                f"{self.core_id} core's flit-index field ({_FIDX_MASK}); "
                "use the reference core"
            )

        self.num_vcs = routing.num_vcs
        self._num_lv = graph.num_links * self.num_vcs
        #: per-link and per-(link, VC) constants, shared read-only with
        #: every core of this graph
        self._links = link_tables(
            graph, self.num_vcs, params.router_latency
        )
        self._wheel_size = self._links.wheel_size

        # RNGs: numpy for the injection process, stdlib for destination
        # and route choices.
        self._np_rng = np.random.default_rng(params.seed)
        self._py_rng = random.Random(params.seed ^ 0x5EED)

        # route_flat / is_deterministic / route_plane / route_table are
        # optional: the cores take any object with route() and num_vcs,
        # not only RoutingAlgorithm subclasses.
        self._route_flat = getattr(routing, "route_flat", None)
        self._deterministic = bool(
            getattr(routing, "is_deterministic", False)
        )
        route_plane = (
            getattr(routing, "route_plane", None)
            if self.compiled_front_end
            else None
        )
        self._plane = route_plane() if route_plane is not None else None
        route_table = getattr(routing, "route_table", None)
        #: the routing's shared route table while this core reads it.
        self._table = (
            route_table()
            if self._plane is None and route_table is not None
            else None
        )
        #: the arena this core's packets index: the shared table, or
        #: this core's own.
        self._routes = self._table if self._table is not None else RouteArena()
        self._packets = PacketTable()

        self._active_nodes = list(traffic.active_nodes())
        self._active_chips = traffic.num_active_chips()
        chips = graph.chips()
        self._nodes_per_chip = {
            nid: len(chips[graph.nodes[nid].chip]) for nid in self._active_nodes
        }

        # per measured packet ejected: lists the reference loop
        # appends to, int64 arrays on the native core (the kernel's
        # outputs)
        self._latencies: List[int] = []
        self._hops: List[int] = []
        # Probe bookkeeping (see repro.metrics): disabled by default.
        # When enabled (before the run) the ejection sites keep
        # the delivered packet ids, aligned with ``_latencies``;
        # everything else run_record() needs is in the packet table.
        self._probe_mode = False
        self._eject_pid: List[int] = []
        self._packets_measured = 0
        self._flits_ejected_window = 0
        self.total_flits_injected = 0
        self.total_flits_ejected = 0
        #: set when the core's one run starts (see SINGLE_RUN)
        self._ran = False
        #: the closed-loop PhasePlan of the run (None for an open-loop
        #: run); run_record() reads its phase records and measurement
        #: window.
        self._plan = None

    # -- probes ---------------------------------------------------------
    def enable_probes(self) -> None:
        """Start recording the per-packet probe surface.

        Must be called before ``run()`` — packets delivered earlier
        have no recorded id, which would misalign the arrays.
        """
        if self._ran:
            raise RuntimeError(
                "probes must be enabled before the first run()"
            )
        self._probe_mode = True

    def run_record(self, rate: float) -> RunRecord:
        """Bulk measurement record of this core's run."""
        from ..metrics.record import RunRecord, graph_tables

        if not self._probe_mode:
            raise RuntimeError(
                "probing was not enabled on this core; pass probes= to "
                "Simulator (or call enable_probes() before run())"
            )
        packets = self._packets
        # completion cycle of every packet that reported one: a scatter
        # of the ejection-site arrays (ids aligned with _latencies)
        done_pid = np.asarray(self._eject_pid, dtype=np.int64)
        p_done = np.full(len(packets), -1, dtype=np.int64)
        p_done[done_pid] = packets.t0[done_pid] + np.asarray(
            self._latencies, dtype=np.int64
        )
        p = self.params
        graph = self.graph
        plan = self._plan
        if plan is not None:
            # closed-loop: the window is the measured makespan, not the
            # (huge) horizon the params carried as a safety bound
            measure_start = 0
            measure_cycles = plan.elapsed()
            phases = plan.phase_records()
        else:
            measure_start = p.warmup_cycles
            measure_cycles = p.measure_cycles
            phases = ()
        return RunRecord(
            core=self.core_id,
            rate=rate,
            num_nodes=graph.num_nodes,
            num_links=graph.num_links,
            num_vcs=self.num_vcs,
            packet_length=p.packet_length,
            measure_start=measure_start,
            measure_end=measure_start + measure_cycles,
            measure_cycles=measure_cycles,
            active_chips=self._active_chips,
            phases=phases,
            p_src=packets.src,
            p_dst=packets.dst,
            p_t0=packets.t0,
            p_meas=packets.meas,
            p_done=p_done,
            p_hops=packets.hops,
            p_off=packets.off,
            route_lv=self._routes.lv,
            tables=graph_tables(
                graph, getattr(self.routing, "degraded", None)
            ),
        )

    # -- injection process ----------------------------------------------
    def injection_probs(self, rate: float) -> List[float]:
        """Per-active-node packet-start probability per cycle."""
        pkt_len = self.params.packet_length
        return [
            rate / (pkt_len * self._nodes_per_chip[nid])
            for nid in self._active_nodes
        ]

    def _checked_probs(self, rate: float) -> List[float]:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        probs = self.injection_probs(rate)
        if any(pr > 1.0 for pr in probs):
            raise ValueError(
                f"offered rate {rate} exceeds 1 packet/node/cycle; "
                "increase packet_length or lower the rate"
            )
        return probs

    def make_schedule(self, rate: float) -> InjectionSchedule:
        """Sample this run's injection schedule (consumes the numpy RNG)."""
        p = self.params
        return build_injection_schedule(
            self._active_nodes,
            self._checked_probs(rate),
            p.warmup_cycles + p.measure_cycles,
            self._np_rng,
        )

    # -- routes ---------------------------------------------------------
    def _check_hops(self, nhops: int) -> None:
        """Reject a route the packed flit word cannot count."""
        if self.packed_flits and nhops > _MAX_HOPS:
            raise ValueError(
                f"route with {nhops} hops exceeds the core's hop "
                f"field ({_MAX_HOPS}); use the reference core"
            )

    def route_slice(self, src: int, dst: int):
        """``(offset, hops)`` into :attr:`_routes` of a route ``src ->
        dst``, resolved on demand.

        The scalar single point of truth: the scalar pre-pass calls it
        per packet, :meth:`_begin` per template event of a plan it
        cannot resolve in bulk, and it draws from the stdlib RNG exactly
        as ``routing.route()`` does.
        """
        if self._table is not None:
            sl = self._table.slice(src, dst, self._py_rng)
            if sl is not None:
                self._check_hops(sl[1])
                return sl
            # The table is full: carry on in an arena of this core's
            # own, seeded with the table so slices handed out so far
            # stay valid; from here every packet resolves its route
            # into it, as randomised routes do.
            self._routes = RouteArena(self._table.lv)
            self._table = None
        if self._route_flat is not None:
            path_lv = self._route_flat(src, dst, self._py_rng)[1]
        else:
            num_vcs = self.num_vcs
            path_lv = [
                l * num_vcs + v
                for l, v in self.routing.route(src, dst, self._py_rng)
            ]
        self._check_hops(len(path_lv))
        return self._routes.extend(path_lv), len(path_lv)

    def _plane_slices(self, srcs, dsts, via=None):
        """``(offsets, hops)`` of the pairs' routes, resolved through
        the routing's plane and appended to this core's arena."""
        routes = self._plane.resolve(srcs, dsts, via)
        if routes.hops.size:
            self._check_hops(int(routes.hops.max()))
        return routes.off + self._routes.extend(routes.lv), routes.hops

    # -- the open-loop packet front end ---------------------------------
    def _open(self, rate: float) -> RunCtx:
        """Claim the core's one run (see :data:`SINGLE_RUN`): its
        context, before any packet of it exists."""
        if self._ran:
            raise RuntimeError(SINGLE_RUN)
        self._ran = True
        p = self.params
        ctx = RunCtx()
        ctx.rate = rate
        ctx.warm = p.warmup_cycles
        ctx.meas_end = ctx.warm + p.measure_cycles
        ctx.t_end = ctx.meas_end + p.drain_cycles
        ctx.effective_offered = 0.0
        return ctx

    def _fill_packets(self, t, src, dst, off, hops, ctx: "RunCtx"):
        t = np.asarray(t, dtype=np.int64)
        measured = (t >= ctx.warm) & (t < ctx.meas_end)
        self._packets.fill(t, measured, src, dst, off, hops)

    def _resolve_packets(self, schedule: InjectionSchedule, ctx: RunCtx):
        """Resolve every scheduled event into the packet table.

        Consumes the stdlib RNG in schedule order: the destination
        draw, then the route draw for packets that are actually
        created.  Events at or past the injection window are dropped
        *before* any RNG draw — no core injects into the drain window.
        """
        dest = self.traffic.dest
        py_rng = self._py_rng
        route_slice = self.route_slice
        # with a plane and a routing that never draws, the loop only
        # draws destinations; the pairs are resolved in one call behind
        bulk = self._plane is not None and self._deterministic
        # cycles are sorted: no RNG is consumed past the gate
        n_ev = _window_events(schedule, ctx)
        ts: List[int] = []
        srcs: List[int] = []
        dsts: List[int] = []
        offs: List[int] = []
        hops: List[int] = []
        for t, nid in zip(
            schedule.cycles[:n_ev].tolist(), schedule.nodes[:n_ev].tolist()
        ):
            dst = dest(nid, py_rng)
            if dst is None or dst == nid:
                continue
            if not bulk:
                off, nhops = route_slice(nid, dst)
                offs.append(off)
                hops.append(nhops)
            ts.append(t)
            srcs.append(nid)
            dsts.append(dst)
        if bulk and srcs:
            offs, hops = self._plane_slices(_as_i64(srcs), _as_i64(dsts))
        self._fill_packets(ts, srcs, dsts, offs, hops, ctx)

    def _resolve_packets_vec(
        self, schedule: InjectionSchedule, ctx: RunCtx
    ) -> bool:
        """Compiled twin of :meth:`_resolve_packets`, bit-exact with it.

        One kernel draw pass (:meth:`VecRandom.draw`) replays the
        scalar loop's draws on the same stdlib stream — each event's
        destination from the pattern's ``dest_rows``, then, for a
        kept packet of a randomised routing, its intermediate group
        from the routing's ``via_rows`` — and the routes come from the
        plane (or a deterministic routing's table) in bulk.  Returns
        ``False`` to decline (a pattern or routing without rows, no
        plane or table, a full table); nothing is consumed from the RNG
        in that case, so the scalar path takes over from the exact same
        state.
        """
        plane = self._plane
        if plane is None and self._table is None:
            return False  # a randomised routing without a plane
        dest = getattr(self.traffic, "dest_rows", None)
        via = None
        if not self._deterministic:
            via = getattr(self.routing, "via_rows", None)
            if via is None:
                return False
        vr = VecRandom.for_rng(self._py_rng) if dest is not None else None
        if vr is None:
            return False
        n_ev = _window_events(schedule, ctx)
        if n_ev == 0:
            return True
        nodes = schedule.nodes[:n_ev]
        dsts, vias, fallbacks = vr.draw(nodes, dest, via)
        keep = (dsts >= 0) & (dsts != nodes)
        k_src = nodes[keep]
        k_dst = dsts[keep]
        if plane is not None:
            off, nhops = self._plane_slices(
                k_src, k_dst, vias[keep] if via is not None else None
            )
        else:
            bulk = self._table.slices(k_src, k_dst, self._py_rng)
            if bulk is None:
                return False  # pre-commit: the RNG was never advanced
            off, nhops = bulk
            if nhops.size:
                self._check_hops(int(nhops.max()))
        vr.commit()
        if fallbacks:
            self.routing.fallback_count += fallbacks
        self._fill_packets(
            schedule.cycles[:n_ev][keep], k_src, k_dst, off, nhops, ctx
        )
        return True

    def _prepare(
        self, rate: float, schedule: Optional[InjectionSchedule] = None
    ) -> RunCtx:
        """Everything before an open-loop run's loop: schedule sampling
        and packet pre-resolution (compiled on a
        :attr:`compiled_front_end` core when the configuration publishes
        its draws)."""
        probs = self._checked_probs(rate)
        ctx = self._open(rate)
        # patterns with inactive nodes offer less than the nominal rate
        if self._active_chips:
            ctx.effective_offered = (
                float(np.array(probs, dtype=np.float64).sum())
                * self.params.packet_length
                / self._active_chips
            )
        if schedule is None:
            schedule = self.make_schedule(rate)
        if not (
            self.compiled_front_end
            and self._resolve_packets_vec(schedule, ctx)
        ):
            self._resolve_packets(schedule, ctx)
        return ctx

    def _begin(self, rate: float, schedule, plan) -> RunCtx:
        """Everything before a loop: the prepared open-loop run, or a
        closed-loop ``plan``'s.

        A plan's template events become this run's packet rows, in
        template order, with routes resolved the way the open-loop
        pre-passes do: in one call through the plane or the routing's
        table when the routing is deterministic, else (a randomised
        routing, a full table) pair by pair through :meth:`route_slice`,
        which is then the stdlib RNG's only consumer.  The plan brings
        its own window, ``[0, horizon)`` with no warmup and no drain,
        and nothing is offered open-loop.
        """
        if plan is not None and schedule is not None:
            raise ValueError("pass either a schedule or a plan, not both")
        self._plan = plan
        if plan is None:
            return self._prepare(rate, schedule)
        if rate <= 0:
            raise ValueError("closed-loop rate must be > 0")
        ctx = self._open(rate)
        ctx.warm = 0
        ctx.meas_end = ctx.t_end = plan.horizon()
        srcs, dsts = plan.tpl_src, plan.tpl_dst
        bulk = None
        if self._deterministic and srcs.size:
            if self._plane is not None:
                bulk = self._plane_slices(srcs, dsts)
            elif self._table is not None:
                bulk = self._table.slices(srcs, dsts, self._py_rng)
                if bulk is not None:
                    self._check_hops(int(bulk[1].max()))
        if bulk is None:
            pairs = [
                self.route_slice(src, dst)
                for src, dst in zip(srcs.tolist(), dsts.tolist())
            ]
            bulk = [sl[0] for sl in pairs], [sl[1] for sl in pairs]
        n = srcs.size
        self._packets.fill(np.full(n, -1), np.zeros(n), srcs, dsts, *bulk)
        return ctx

    # -- results ----------------------------------------------------------
    def _result(self, ctx: RunCtx) -> SimResult:
        plan = self._plan
        return SimResult.from_samples(
            offered_rate=ctx.rate,
            effective_offered=ctx.effective_offered,
            latencies=self._latencies,
            hops=self._hops,
            packets_measured=self._packets_measured,
            flits_ejected=self._flits_ejected_window,
            active_chips=self._active_chips,
            # closed-loop: the window is the measured makespan, so
            # accepted_rate reports achieved collective bandwidth
            measure_cycles=(
                plan.elapsed()
                if plan is not None
                else self.params.measure_cycles
            ),
        )
