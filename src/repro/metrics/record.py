"""The narrow bulk surface between simulator cores and probes.

Probes never run inside a core's hot loop.  A core that had probing
enabled before its first ``run()`` keeps, besides the packet table it
builds anyway, the ids of the measured packets it ejected, and exports
all of it after the run as one :class:`RunRecord`: int64 numpy arrays
indexed by packet id — views of the core's packet-table rows and route
arena, not copies, so a record costs one scatter (the completion
cycles).  Lists are accepted wherever an array is and coerced once,
which is how tests build synthetic records.  Every built-in probe is a
reduction over these arrays, hence **identical across cores** (all
three fill the same packet table from the same front end) and **free
when disabled** (no callbacks in any loop, only a per-*packet* branch
behind a flag).

What a record knows about the *graph* — link endpoints, node chips and
BFS-minimal hop distances over the surviving links — is not per-run
state: it lives in one :class:`GraphTables` per ``(graph, failed
links)``, built by :func:`graph_tables` and shared by every lane and
point simulated over that graph.  The tables are held weakly by the
graph, or by the degraded view that names the failed links, and die
with it (as a routing's route table dies with the routing).  Distance
rows are filled in lazily, one BFS row per source a record actually
needs, and dropped wholesale when they outgrow :data:`DIST_CELLS`, so
a 16 K-endpoint run never holds n² of them.

:meth:`RunRecord.events` re-emits the run as a packet-major stream of
plain-Python events for :class:`~repro.metrics.Probe`'s event surface
(see :mod:`repro.metrics.probe`).  Hop events carry route positions,
not cycle stamps: per-hop timing is the one thing the bulk surface
does not record (it would need per-flit logging in the hot loop).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "GraphTables",
    "HopEvent",
    "PacketView",
    "RunRecord",
    "graph_tables",
]

#: most cells (sources x nodes of distances, sources x links of BFS
#: frontier) one GraphTables holds at a time.
DIST_CELLS = 1 << 24


def _i64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class GraphTables:
    """What probes read of a graph, as arrays (see module docstring).

    ``link_ends`` is an ``(links, 2)`` sequence of ``(src, dst)`` node
    ids spanning the *healthy* graph (the cores' arrays do too);
    ``node_chip`` maps node id to chip id, as an array or a dict (nodes
    it does not name get chip -1); ``failed_links`` is the dead subset.
    """

    def __init__(
        self, link_ends, node_chip, failed_links=frozenset(), num_nodes=0
    ) -> None:
        self.link_ends = ends = _i64(link_ends).reshape(-1, 2)
        self.failed_links = frozenset(failed_links)
        if isinstance(node_chip, dict):
            ids, chips = _i64(list(node_chip)), _i64(list(node_chip.values()))
        else:
            chips = _i64(node_chip)
            ids = np.arange(chips.size)
        size = max(
            num_nodes, ends.max(initial=-1) + 1, ids.max(initial=-1) + 1
        )
        self.node_chip = np.full(size, -1, dtype=np.int64)
        self.node_chip[ids] = chips
        alive = np.ones(len(ends), dtype=bool)
        alive[sorted(self.failed_links)] = False
        # surviving links sorted by head, for the BFS's per-node reduce
        ends = ends[alive]
        ends = ends[np.argsort(ends[:, 1], kind="stable")]
        self._tails = ends[:, 0]
        self._heads, self._head_start = np.unique(
            ends[:, 1], return_index=True
        )
        #: node -> row of ``_dist`` holding its distances (-1: none yet).
        self._row = np.full(size, -1, dtype=np.int64)
        self._dist = np.empty((0, size), dtype=np.int32)

    def _bfs(self, sources: np.ndarray) -> np.ndarray:
        """Hop distances from each source to every node (-1 where
        unreachable), all sources advancing level by level together."""
        n = self._row.size
        dist = np.full((n, sources.size), -1, dtype=np.int32)
        cols = np.arange(sources.size)
        dist[sources, cols] = 0
        frontier = np.zeros((n, sources.size), dtype=bool)
        frontier[sources, cols] = True
        level = 0
        while self._heads.size and frontier.any():
            level += 1
            reached = np.logical_or.reduceat(
                frontier[self._tails], self._head_start, axis=0
            )
            frontier[:] = False
            frontier[self._heads] = reached
            frontier &= dist < 0
            dist[frontier] = level
        return dist.T

    def min_hops(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """BFS-minimal hops of each ``(src, dst)`` pair over the
        surviving links; -1 for a disconnected pair."""
        rows = self._row[src]
        if rows.size and rows.min() < 0:
            need = np.unique(src)
            cap = max(1, DIST_CELLS // max(self._row.size, self._tails.size))
            if need.size > cap:
                # more sources than may be held at once: halve the pairs
                low = src < need[need.size // 2]
                out = np.empty(src.size, dtype=np.int64)
                out[low] = self.min_hops(src[low], dst[low])
                out[~low] = self.min_hops(src[~low], dst[~low])
                return out
            missing = need[self._row[need] < 0]
            if len(self._dist) + missing.size > cap:
                self._row[:] = -1
                self._dist = self._dist[:0]
                missing = need
            self._row[missing] = len(self._dist) + np.arange(missing.size)
            self._dist = np.concatenate([self._dist, self._bfs(missing)])
            rows = self._row[src]
        return self._dist[rows, dst].astype(np.int64)


_tables: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def graph_tables(graph, degraded=None) -> GraphTables:
    """The :class:`GraphTables` of ``graph``, or of its ``degraded``
    view (a :class:`~repro.faults.DegradedTopology`, which a
    :class:`~repro.faults.FaultAwareRouting` exposes as ``.degraded``):
    built on first use and kept for as long as that owner lives.

    The tables span the healthy graph's link ids either way (the cores'
    arrays do too); a degraded view contributes its ``failed_links``,
    which no route ever crosses and the BFS floor must not either.
    """
    owner = graph if degraded is None else degraded
    tables = _tables.get(owner)
    if tables is None or len(tables.link_ends) != graph.num_links:
        tables = _tables[owner] = GraphTables(
            [(l.src, l.dst) for l in graph.links],
            [node.chip for node in graph.nodes],
            degraded.failed_links if degraded is not None else (),
        )
    return tables


@dataclass(frozen=True)
class HopEvent:
    """One hop of a packet's route: link id and virtual channel."""

    link: int
    vc: int


@dataclass(frozen=True)
class PacketView:
    """Read-only view of one packet in a :class:`RunRecord` (plain
    Python values, safe to put into channel rows)."""

    pid: int
    src: int
    dst: int
    t_create: int
    measured: bool
    #: tail-ejection cycle; ``-1`` while undelivered.
    t_done: int
    #: route hop count (0 = src and dst share a router).
    hops: int
    #: flattened ``link * num_vcs + vc`` route indices.
    route_lv: Tuple[int, ...]

    @property
    def delivered(self) -> bool:
        return self.t_done >= 0

    @property
    def latency(self) -> int:
        return self.t_done - self.t_create if self.t_done >= 0 else -1


@dataclass
class RunRecord:
    """Bulk per-packet measurement state of one simulation run.

    The per-packet columns are aligned int64 arrays indexed by packet
    id; packets span every ``run()`` call of the producing core
    instance (the engine uses one instance per point, so in practice:
    one run).  Treat them as read-only: a core's record views the
    core's own tables.
    """

    #: producing core ("native" or "reference").
    core: str
    #: offered rate of the run (flits/cycle/chip).
    rate: float
    num_nodes: int
    num_links: int
    num_vcs: int
    packet_length: int
    #: absolute cycle bounds of the measurement window.
    measure_start: int
    measure_end: int
    measure_cycles: int
    active_chips: int
    # -- per-packet columns (aligned, length = packet count) -----------
    p_src: np.ndarray = ()
    p_dst: np.ndarray = ()
    p_t0: np.ndarray = ()
    p_meas: np.ndarray = ()
    #: tail-ejection cycle per packet, -1 while undelivered.  Only
    #: *measured* packets are guaranteed to be tracked (warmup packets
    #: may stay -1 even when delivered) — probes restrict themselves to
    #: the measured population, like ``SimResult`` does.
    p_done: np.ndarray = ()
    p_hops: np.ndarray = ()
    #: per-packet offset into :attr:`route_lv`.
    p_off: np.ndarray = ()
    #: shared flattened route arena (``link * num_vcs + vc`` per hop).
    route_lv: np.ndarray = ()
    #: the graph's :class:`GraphTables`; a record built without one
    #: makes its own from the three fields below, which afterwards
    #: mirror the tables' arrays either way.
    tables: Optional[GraphTables] = None
    node_chip: np.ndarray = ()
    link_ends: np.ndarray = ()
    #: link ids failed by the run's fault axis (empty when healthy).
    failed_links: frozenset = frozenset()
    #: closed-loop phase records (``()`` for open-loop runs): one dict
    #: per workload phase with name/release/comm_start/done/compute/
    #: packets/flits/masked, in workload order.  The application-level
    #: probes (cct, bubble, overlap) read these.
    phases: Tuple[Dict, ...] = ()

    def __post_init__(self) -> None:
        for name in ("p_src", "p_dst", "p_t0", "p_meas", "p_done",
                     "p_hops", "p_off", "route_lv"):
            setattr(self, name, _i64(getattr(self, name)))
        tables = self.tables
        if tables is None:
            tables = self.tables = GraphTables(
                self.link_ends, self.node_chip, self.failed_links,
                self.num_nodes,
            )
        self.node_chip = tables.node_chip
        self.link_ends = tables.link_ends
        self.failed_links = tables.failed_links

    # ------------------------------------------------------------------
    @property
    def num_packets(self) -> int:
        return len(self.p_t0)

    def packet(self, pid: int) -> PacketView:
        return PacketView(
            pid=pid,
            src=int(self.p_src[pid]),
            dst=int(self.p_dst[pid]),
            t_create=int(self.p_t0[pid]),
            measured=bool(self.p_meas[pid]),
            t_done=int(self.p_done[pid]),
            hops=int(self.p_hops[pid]),
            route_lv=tuple(self.route(pid).tolist()),
        )

    def route(self, pid: int) -> np.ndarray:
        """Flattened lv route of one packet (empty for 0-hop pairs)."""
        off = self.p_off[pid]
        return self.route_lv[off: off + self.p_hops[pid]]

    @cached_property
    def _delivered(self) -> np.ndarray:
        return np.flatnonzero((self.p_meas != 0) & (self.p_done >= 0))

    def measured_delivered_pids(self) -> np.ndarray:
        """Ids of measured packets that reported a tail ejection,
        ascending — the population of every route- or completion-based
        statistic (computed once per record)."""
        return self._delivered

    @cached_property
    def lv_hops(self) -> np.ndarray:
        """Traversals per ``(link, vc)`` by measured delivered packets,
        as a ``(links, num_vcs)`` count matrix: the one hop gather both
        utilisation probes share."""
        pids = self._delivered
        hops = self.p_hops[pids]
        ends = np.cumsum(hops)
        # hop k of the gathered stream is arena slot off[p] + (k - start[p])
        slots = np.repeat(self.p_off[pids] - (ends - hops), hops)
        slots += np.arange(slots.size)
        width = self.num_vcs
        counts = np.bincount(
            self.route_lv[slots], minlength=self.num_links * width
        )
        if counts.size % width:  # an lv past the record's link table
            counts = np.pad(counts, (0, -counts.size % width))
        return counts.reshape(-1, width)

    # ------------------------------------------------------------------
    def events(
        self, measured_only: bool = True
    ) -> Iterator[Tuple[str, PacketView, Optional[HopEvent]]]:
        """Canonical packet-major event replay for generic probes.

        Yields ``("inject", pkt, None)``, then one ``("hop", pkt,
        HopEvent)`` per route hop, then — for delivered packets —
        ``("eject", pkt, None)``, packet by packet in creation order.
        """
        num_vcs = self.num_vcs
        pids = (
            np.flatnonzero(self.p_meas)
            if measured_only
            else range(self.num_packets)
        )
        for pid in map(int, pids):
            pkt = self.packet(pid)
            yield "inject", pkt, None
            if pkt.delivered:
                for lv in pkt.route_lv:
                    yield "hop", pkt, HopEvent(lv // num_vcs, lv % num_vcs)
                yield "eject", pkt, None
