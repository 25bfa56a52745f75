"""Built-in probe kinds.

The six open-loop probes are array reductions over the
:class:`~repro.metrics.RunRecord` columns — a ``bincount`` or
``histogram`` pass each, over one shared population (the record's
measured delivered packets) and, for the two utilisation probes, one
shared hop gather (:attr:`RunRecord.lv_hops`).  All statistics are
restricted to the *measured* packet population (packets created inside
the measurement window), and — for anything route- or completion-based
— to the measured packets that were actually delivered, mirroring
``SimResult``'s conventions; rows and summaries hold plain Python
numbers.  ``tests/metrics/test_probe_reductions.py`` holds each
reduction to an event-surface implementation, row by row.

Registered kinds:

``link_util``
    flit traversals per directed link (Fig. 13-style link-load maps);
``vc_util``
    the same resolved per (link, virtual channel);
``latency_hist``
    binned latency distribution with the SimResult percentiles;
``timeseries``
    cycle-window telemetry: injections, completions, backlog and
    latency evolution across the measurement window;
``misroute``
    hop accounting against BFS-minimal distances: misroute ratio and
    excess-hop histogram (the Fig. 13 misrouting metric);
``ejection_fairness``
    delivered flits per destination chip with a Jain fairness index;
``cct``
    per-phase collective completion times of a closed-loop workload
    run (empty for open-loop runs);
``bubble``
    communication-idle ("bubble") cycles of the closed-loop makespan;
``overlap``
    compute/communication overlap of a closed-loop run.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..network.stats import p50_p99
from .channel import MetricChannel
from .probe import Probe, register_probe
from .record import RunRecord

__all__ = [
    "BubbleProbe",
    "CCTProbe",
    "EjectionFairnessProbe",
    "LatencyHistogramProbe",
    "LinkUtilizationProbe",
    "MisrouteProbe",
    "OverlapProbe",
    "TimeSeriesProbe",
    "VCUtilizationProbe",
]

_NAN = float("nan")


def _stat(fn, values, default: float = _NAN) -> float:
    """``fn`` over ``values`` as a float; ``default`` when empty."""
    return float(fn(values)) if len(values) else default


def _rows(*columns) -> Tuple[Tuple, ...]:
    """Aligned column arrays -> a channel's tuple of row tuples."""
    return tuple(zip(*(c.tolist() for c in columns)))


def _tally(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``values`` (small ints of either sign), ascending, and
    how often each occurs."""
    if not values.size:
        return values, values
    low = values.min()
    counts = np.bincount(values - low)
    distinct = np.flatnonzero(counts)
    return distinct + low, counts[distinct]


def _checked_top(top) -> int:
    if isinstance(top, bool) or not isinstance(top, int) or top < 0:
        raise ValueError(f"top must be an integer >= 0, got {top!r}")
    return top


def _hottest(flits: np.ndarray, top: int):
    """Index of the ``top`` largest entries (ties: lowest id first), in
    id order; everything when ``top`` is 0.

    Callers compute summary statistics from the *full* table first —
    truncation only thins what gets exported as rows.
    """
    if top and flits.size > top:
        return np.sort(np.argsort(-flits, kind="stable")[:top])
    return slice(None)


# ----------------------------------------------------------------------
@register_probe
class LinkUtilizationProbe(Probe):
    """Flit traversals per directed link (measured delivered packets)."""

    name = "link_util"
    description = (
        "per-link flit load and utilisation (measured delivered packets)"
    )

    def __init__(self, top: int = 0) -> None:
        #: keep only the ``top`` most-loaded links (0 = all used links).
        self.top = _checked_top(top)

    def collect(self, record: RunRecord) -> MetricChannel:
        per_link = record.lv_hops.sum(axis=1) * record.packet_length
        links = np.flatnonzero(per_link)
        flits = per_link[links]
        total = int(flits.sum())
        load = flits / max(1, record.measure_cycles)
        # links past the record's endpoint table report (-1, -1)
        ends = np.full((len(per_link), 2), -1, dtype=np.int64)
        known = record.link_ends[: len(ends)]
        ends[: len(known)] = known
        keep = _hottest(flits, self.top)  # summary: the FULL table
        shown = links[keep]
        return MetricChannel(
            name=self.channel_name(),
            kind="table",
            columns=("link", "src", "dst", "flits", "flits_per_cycle",
                     "share"),
            rows=_rows(
                shown, ends[shown, 0], ends[shown, 1], flits[keep],
                load[keep], (flits / max(1, total))[keep],
            ),
            summary={
                "links_used": float(links.size),
                "total_flit_hops": float(total),
                "mean_flits_per_cycle": _stat(np.mean, load),
                "max_flits_per_cycle": _stat(np.max, load),
                "max_link": _stat(lambda f: links[f.argmax()], flits),
            },
            meta={"top": self.top, "population": "measured_delivered"},
        )


# ----------------------------------------------------------------------
@register_probe
class VCUtilizationProbe(Probe):
    """Flit traversals per (link, virtual channel)."""

    name = "vc_util"
    description = "per-(link, VC) flit load (measured delivered packets)"

    def __init__(self, top: int = 0) -> None:
        self.top = _checked_top(top)

    def collect(self, record: RunRecord) -> MetricChannel:
        num_vcs = record.num_vcs
        per_lv = record.lv_hops * record.packet_length
        lvs = np.flatnonzero(per_lv)
        flits = per_lv.ravel()[lvs]
        per_vc = per_lv.sum(axis=0)
        per_vc = per_vc[per_vc > 0]
        keep = _hottest(flits, self.top)  # summary: the FULL table
        return MetricChannel(
            name=self.channel_name(),
            kind="table",
            columns=("link", "vc", "flits", "flits_per_cycle"),
            rows=_rows(
                lvs[keep] // num_vcs, lvs[keep] % num_vcs, flits[keep],
                flits[keep] / max(1, record.measure_cycles),
            ),
            summary={
                "lvs_used": float(lvs.size),
                "max_flits": _stat(np.max, flits, 0.0),
                "vc_imbalance": _stat(
                    lambda v: v.max() / (v.sum() / v.size), per_vc
                ),
            },
            meta={"top": self.top, "num_vcs": num_vcs},
        )


# ----------------------------------------------------------------------
@register_probe
class LatencyHistogramProbe(Probe):
    """Binned latency distribution of measured delivered packets."""

    name = "latency_hist"
    description = "latency histogram + percentiles (measured packets)"

    def __init__(self, bins: int = 16) -> None:
        if bins < 1:
            raise ValueError("bins must be >= 1")
        self.bins = int(bins)

    def collect(self, record: RunRecord) -> MetricChannel:
        pids = record.measured_delivered_pids()
        lats = (record.p_done[pids] - record.p_t0[pids]).astype(np.float64)
        if lats.size:
            counts, edges = np.histogram(lats, bins=self.bins)
            rows = _rows(edges[:-1], edges[1:], counts)
            p50, p99 = p50_p99(lats)
        else:
            rows, p50, p99 = (), _NAN, _NAN
        return MetricChannel(
            name=self.channel_name(),
            kind="histogram",
            columns=("bin_lo", "bin_hi", "count"),
            rows=rows,
            summary={
                "packets": float(lats.size),
                "avg": _stat(np.mean, lats),
                "p50": float(p50),
                "p99": float(p99),
                "min": _stat(np.min, lats),
                "max": _stat(np.max, lats),
            },
            meta={"bins": self.bins, "unit": "cycles"},
        )


# ----------------------------------------------------------------------
@register_probe
class TimeSeriesProbe(Probe):
    """Cycle-window telemetry across the measurement window.

    Each row covers ``window`` cycles of the measurement window:
    packets injected (created), packets completed (tail ejected —
    completions landing in the drain are folded into a final row),
    the measured-population backlog at window end, and the mean latency
    of the packets *created* in the window (a congestion-onset signal:
    it grows as queues build).
    """

    name = "timeseries"
    description = (
        "windowed injections/completions/backlog/latency evolution"
    )

    def __init__(self, window: int = 200) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)

    def collect(self, record: RunRecord) -> MetricChannel:
        w = self.window
        start, end = record.measure_start, record.measure_end
        nwin = (max(1, end - start) + w - 1) // w
        pids = np.flatnonzero(record.p_meas)
        t0, done = record.p_t0[pids], record.p_done[pids]
        created = (t0 - start) // w  # window of creation
        injected = np.bincount(created, minlength=nwin)
        ok = done >= 0
        t0, done, born = t0[ok], done[ok], created[ok]  # the completed
        # completions landing in the drain fold into slot ``nwin``
        completed = np.bincount(
            np.minimum((done - start) // w, nwin), minlength=nwin + 1
        )
        lat_n = np.bincount(born, minlength=nwin)
        lat_sum = np.bincount(born, weights=done - t0, minlength=nwin)
        with np.errstate(invalid="ignore"):
            avg_latency = lat_sum / lat_n  # 0/0 -> NaN: nothing completed
        backlog = np.cumsum(injected - completed[:nwin])
        t_start = start + w * np.arange(nwin)
        return MetricChannel(
            name=self.channel_name(),
            kind="timeseries",
            columns=("t_start", "t_end", "injected", "completed",
                     "backlog", "avg_latency"),
            rows=_rows(
                t_start, np.minimum(t_start + w, end), injected,
                completed[:nwin], backlog, avg_latency,
            ),
            summary={
                "windows": float(nwin),
                "peak_backlog": float(backlog.max()),
                "completed_in_drain": float(completed[nwin]),
                "first_window_latency": float(avg_latency[0]),
                "last_window_latency": float(avg_latency[-1]),
            },
            meta={"window": w, "unit": "cycles"},
        )


# ----------------------------------------------------------------------
@register_probe
class MisrouteProbe(Probe):
    """Hop accounting against BFS-minimal router distances.

    A measured delivered packet is *misrouted* when its route is longer
    than the minimal hop distance from its source to its destination
    router over the simulated graph — exactly the population Valiant
    routing inflates in Fig. 13.  Distances are BFS rows over the
    record's *surviving* directed links (failed links of a degraded run
    are excluded, so routes repaired around faults are measured against
    an achievable floor), kept per source on the graph's
    :class:`~repro.metrics.record.GraphTables` and shared by every
    point simulated over it.

    Note the floor is *graph*-minimal: flat routings (mesh XY) report a
    0 ratio in minimal mode, while hierarchical policies (switch-less
    l-g-l) are minimal within their channel classes and may exceed the
    unconstrained BFS distance even without Valiant detours.  The
    Fig. 13 signal is therefore the ratio *between* minimal and
    non-minimal runs of the same configuration, which this floor makes
    directly comparable.
    """

    name = "misroute"
    description = (
        "misroute ratio and excess-hop histogram vs BFS-minimal paths"
    )

    def collect(self, record: RunRecord) -> MetricChannel:
        pids = record.measured_delivered_pids()
        hops = record.p_hops[pids]
        floor = record.tables.min_hops(record.p_src[pids], record.p_dst[pids])
        # a delivered packet proves the pair was connected, so BFS over
        # the surviving links should always reach; keep the observed
        # route as the floor as a safety net
        floor = np.where(floor < 0, hops, floor)
        excess, counts = _tally(hops - floor)
        packets = int(pids.size)
        misrouted = int(counts[excess > 0].sum())
        hops_total, min_total = int(hops.sum()), int(floor.sum())

        def per_packet(total: int) -> float:
            return total / packets if packets else _NAN

        return MetricChannel(
            name=self.channel_name(),
            kind="histogram",
            columns=("excess_hops", "packets"),
            rows=_rows(excess, counts),
            summary={
                "packets": float(packets),
                "misrouted": float(misrouted),
                "misroute_ratio": per_packet(misrouted),
                "avg_hops": per_packet(hops_total),
                "avg_min_hops": per_packet(min_total),
                "avg_excess": per_packet(hops_total - min_total),
                "max_excess": _stat(np.max, excess, 0.0),
            },
            meta={"population": "measured_delivered"},
        )


# ----------------------------------------------------------------------
@register_probe
class EjectionFairnessProbe(Probe):
    """Delivered flits per destination chip + Jain fairness index."""

    name = "ejection_fairness"
    description = "per-destination-chip delivered flits + Jain index"

    def collect(self, record: RunRecord) -> MetricChannel:
        dst = record.p_dst[record.measured_delivered_pids()]
        chips, packets = _tally(record.node_chip[dst])
        flits = packets * record.packet_length
        total = float(flits.sum())
        squares = float((flits * flits).sum())
        return MetricChannel(
            name=self.channel_name(),
            kind="table",
            columns=("chip", "packets", "flits"),
            rows=_rows(chips, packets, flits),
            summary={
                "chips": float(chips.size),
                "jain_index": (
                    total * total / (chips.size * squares)
                    if squares
                    else _NAN
                ),
                "min_flits": _stat(np.min, flits, 0.0),
                "max_flits": _stat(np.max, flits, 0.0),
                "mean_flits": _stat(np.mean, flits),
            },
            meta={"population": "measured_delivered"},
        )


# ----------------------------------------------------------------------
# Closed-loop application metrics.  These read RunRecord.phases — the
# per-phase completion records a PhasePlan leaves behind — and degrade
# to empty channels on open-loop runs (phases == ()).

def _interval_union(intervals) -> List[Tuple[int, int]]:
    """Merge half-open ``[lo, hi)`` intervals into a disjoint union."""
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _union_length(merged) -> int:
    return sum(hi - lo for lo, hi in merged)


def _comm_intervals(phases) -> List[Tuple[int, int]]:
    """Half-open comm spans ``[comm_start, done + 1)`` per comm phase."""
    return [
        (p["comm_start"], p["done"] + 1)
        for p in phases
        if p["comm_start"] >= 0 and p["done"] >= 0
    ]


def _makespan(phases) -> Tuple[int, int]:
    """(start, end) of the workload: first release to last done + 1."""
    starts = [p["release"] for p in phases if p["release"] >= 0]
    ends = [p["done"] + 1 for p in phases if p["done"] >= 0]
    if not starts or not ends:
        return (0, 0)
    return (min(starts), max(ends))


@register_probe
class CCTProbe(Probe):
    """Per-phase collective completion times of a closed-loop run.

    One row per workload phase: release cycle (all dependencies
    drained), first injection cycle, completion cycle (last tail flit
    ejected), the phase's completion time ``cct = done - release + 1``,
    and its packet/flit/masked counts.  The summary carries the
    workload makespan and the critical (slowest) phase.
    """

    name = "cct"
    description = (
        "per-phase collective completion times (closed-loop runs)"
    )

    def collect(self, record: RunRecord) -> MetricChannel:
        phases = record.phases
        rows = []
        for p in phases:
            cct = p["done"] - p["release"] + 1 if p["done"] >= 0 else -1
            rows.append(
                (
                    p["name"],
                    p["release"],
                    p["comm_start"],
                    p["done"],
                    cct,
                    p["compute"],
                    p["packets"],
                    p["flits"],
                    p["masked"],
                )
            )
        ccts = [r[4] for r in rows if r[4] >= 0]
        start, end = _makespan(phases)
        crit = max(rows, key=lambda r: r[4], default=None)
        return MetricChannel(
            name=self.channel_name(),
            kind="table",
            columns=("phase", "release", "comm_start", "done", "cct",
                     "compute", "packets", "flits", "masked"),
            rows=tuple(rows),
            summary={
                "phases": float(len(phases)),
                "makespan": float(end - start),
                "avg_cct": _stat(np.mean, ccts),
                "max_cct": float(max(ccts, default=-1)),
                "critical_phase": (
                    float(rows.index(crit)) if crit else _NAN
                ),
                "total_flits": float(sum(r[7] for r in rows)),
                "masked_packets": float(sum(r[8] for r in rows)),
            },
            meta={"population": "closed_loop_phases"},
        )


@register_probe
class BubbleProbe(Probe):
    """Communication-idle ("bubble") share of the closed-loop makespan.

    Merges the per-phase comm spans into a disjoint union; every
    makespan cycle outside that union is a bubble — cycles the fabric
    sat idle waiting on dependencies or compute.  Rows list the merged
    busy intervals.
    """

    name = "bubble"
    description = (
        "communication-idle (bubble) fraction of the closed-loop "
        "makespan"
    )

    def collect(self, record: RunRecord) -> MetricChannel:
        phases = record.phases
        start, end = _makespan(phases)
        makespan = end - start
        busy = _interval_union(_comm_intervals(phases))
        comm_busy = _union_length(busy)
        bubble = max(0, makespan - comm_busy)
        return MetricChannel(
            name=self.channel_name(),
            kind="table",
            columns=("t_start", "t_end", "cycles"),
            rows=tuple((lo, hi, hi - lo) for lo, hi in busy),
            summary={
                "makespan": float(makespan),
                "comm_busy_cycles": float(comm_busy),
                "bubble_cycles": float(bubble),
                "bubble_fraction": (
                    bubble / makespan if makespan else _NAN
                ),
            },
            meta={"population": "closed_loop_phases"},
        )


@register_probe
class OverlapProbe(Probe):
    """Compute/communication overlap of a closed-loop run.

    Compute spans are ``[release, release + compute)`` per phase; comm
    spans as in the bubble probe.  The overlap is the intersection of
    the two unions — cycles where some phase computed while another
    communicated — reported as a fraction of the total compute span
    (1.0 = compute fully hidden behind communication).
    """

    name = "overlap"
    description = (
        "compute/communication overlap fraction (closed-loop runs)"
    )

    def collect(self, record: RunRecord) -> MetricChannel:
        phases = record.phases
        compute = _interval_union(
            (p["release"], p["release"] + p["compute"])
            for p in phases
            if p["release"] >= 0 and p["compute"] > 0
        )
        comm = _interval_union(_comm_intervals(phases))
        overlap: List[Tuple[int, int]] = []
        i = j = 0
        while i < len(compute) and j < len(comm):
            lo = max(compute[i][0], comm[j][0])
            hi = min(compute[i][1], comm[j][1])
            if lo < hi:
                overlap.append((lo, hi))
            if compute[i][1] <= comm[j][1]:
                i += 1
            else:
                j += 1
        compute_busy = _union_length(compute)
        comm_busy = _union_length(comm)
        hidden = _union_length(overlap)
        return MetricChannel(
            name=self.channel_name(),
            kind="table",
            columns=("t_start", "t_end", "cycles"),
            rows=tuple((lo, hi, hi - lo) for lo, hi in overlap),
            summary={
                "compute_cycles": float(compute_busy),
                "comm_busy_cycles": float(comm_busy),
                "overlap_cycles": float(hidden),
                "overlap_fraction": (
                    hidden / compute_busy if compute_busy else _NAN
                ),
            },
            meta={"population": "closed_loop_phases"},
        )
