"""The built-in probes' array reductions against the event surface.

``Reference`` below accumulates all six open-loop channels packet by
packet through ``on_inject`` / ``on_hop`` / ``on_eject`` — the
documented extension point, and the executable specification of what
the built-ins compute.  Hypothesis draws small synthetic records that
hit the corners a simulated run rarely does (zero-hop packets, measured
packets never delivered, delivered packets outside the window, an empty
run, a measurement window shorter than the probe's, links past the
endpoint table, failed links that leave a pair disconnected so the
observed route becomes the misroute floor, negative "excess" of routes
that are no walks at all) and requires equal rows and summaries.
"""

import json
import math
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.metrics import Probe, RunRecord, build_probe

KINDS = (
    "link_util", "vc_util", "latency_hist", "timeseries", "misroute",
    "ejection_fairness",
)


def _nan_or(values, fn):
    return float(fn(values)) if values else math.nan


class Reference(Probe):
    """kind -> (rows, summary), from events and record scalars only."""

    def __init__(self, top, bins, window):
        self.top, self.bins, self.window = top, bins, window

    def begin(self, record):
        self.lv, self.injected, self.ejected = Counter(), [], []

    def on_inject(self, pkt):
        self.injected.append(pkt)

    def on_hop(self, pkt, hop):
        self.lv[hop.link, hop.vc] += 1

    def on_eject(self, pkt):
        self.ejected.append(pkt)

    def hottest(self, rows, flits):
        if self.top and len(rows) > self.top:
            rows = sorted(rows, key=lambda r: (-r[flits], r))[: self.top]
        return tuple(sorted(rows))

    def bfs(self, record, src):
        """Hop distance from ``src`` over the surviving links."""
        alive = [
            ends for link, ends in enumerate(record.link_ends.tolist())
            if link not in record.failed_links
        ]
        dist, frontier = {src: 0}, [src]
        while frontier:
            nxt = []
            for u in frontier:
                for a, v in alive:
                    if a == u and v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def finish(self, r):
        size, cycles = r.packet_length, max(1, r.measure_cycles)
        ends = r.link_ends.tolist()
        link = Counter()
        for (l, _), n in self.lv.items():
            link[l] += n * size
        total = sum(link.values())
        rows = [
            (l, *(ends[l] if l < len(ends) else (-1, -1)), f, f / cycles,
             f / total)
            for l, f in sorted(link.items())
        ]
        loads = [row[4] for row in rows]
        out = {"link_util": (self.hottest(rows, 3), {
            "links_used": len(rows), "total_flit_hops": total,
            "mean_flits_per_cycle": _nan_or(loads, np.mean),
            "max_flits_per_cycle": _nan_or(loads, max),
            "max_link": _nan_or(
                rows, lambda t: max(t, key=lambda row: row[3])[0]
            ),
        })}
        rows = [
            (l, v, n * size, n * size / cycles)
            for (l, v), n in sorted(self.lv.items())
        ]
        vcs = Counter()
        for l, v, f, _ in rows:
            vcs[v] += f
        out["vc_util"] = (self.hottest(rows, 2), {
            "lvs_used": len(rows),
            "max_flits": max([row[2] for row in rows], default=0),
            "vc_imbalance": _nan_or(
                list(vcs.values()), lambda f: max(f) / (sum(f) / len(f))
            ),
        })
        lats = [float(p.latency) for p in self.ejected]
        counts, edges = (
            np.histogram(lats, bins=self.bins) if lats else ((), ())
        )
        out["latency_hist"] = (
            tuple((float(edges[i]), float(edges[i + 1]), int(c))
                  for i, c in enumerate(counts)),
            {"packets": len(lats), "avg": _nan_or(lats, np.mean),
             "p50": _nan_or(lats, lambda v: np.percentile(v, 50)),
             "p99": _nan_or(lats, lambda v: np.percentile(v, 99)),
             "min": _nan_or(lats, min), "max": _nan_or(lats, max)},
        )
        w, t0, t1 = self.window, r.measure_start, r.measure_end
        nwin = -(-max(1, t1 - t0) // w)
        rows, backlog = [], 0
        for i in range(nwin):
            new = [p for p in self.injected if (p.t_create - t0) // w == i]
            done = sum((p.t_done - t0) // w == i for p in self.ejected)
            backlog += len(new) - done
            lat = [p.latency for p in new if p.delivered]
            rows.append((
                t0 + i * w, min(t0 + (i + 1) * w, t1), len(new), done,
                backlog, _nan_or(lat, lambda v: sum(v) / len(v)),
            ))
        drain = sum((p.t_done - t0) // w >= nwin for p in self.ejected)
        out["timeseries"] = (tuple(rows), {
            "windows": nwin, "peak_backlog": max(row[4] for row in rows),
            "completed_in_drain": drain,
            "first_window_latency": rows[0][5],
            "last_window_latency": rows[-1][5],
        })
        hops = [p.hops for p in self.ejected]
        floor = [
            self.bfs(r, p.src).get(p.dst, p.hops) for p in self.ejected
        ]
        excess = Counter(h - f for h, f in zip(hops, floor))
        n = len(hops)
        bad = sum(c for e, c in excess.items() if e > 0)
        out["misroute"] = (tuple(sorted(excess.items())), {
            "packets": n, "misrouted": bad,
            "misroute_ratio": bad / n if n else math.nan,
            "avg_hops": sum(hops) / n if n else math.nan,
            "avg_min_hops": sum(floor) / n if n else math.nan,
            "avg_excess": (sum(hops) - sum(floor)) / n if n else math.nan,
            "max_excess": max(excess, default=0),
        })
        chips = Counter(int(r.node_chip[p.dst]) for p in self.ejected)
        flits = [c * size for c in chips.values()]
        out["ejection_fairness"] = (
            tuple((chip, c, c * size) for chip, c in sorted(chips.items())),
            {"chips": len(chips),
             "jain_index": _nan_or(flits, lambda f: (
                 sum(f) ** 2 / (len(f) * sum(x * x for x in f))
             )),
             "min_flits": min(flits, default=0),
             "max_flits": max(flits, default=0),
             "mean_flits": _nan_or(flits, np.mean)},
        )
        return out


def same(a, b):
    """Equality that lets NaN equal NaN, through tuples and dicts."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b or (a != a and b != b)


@st.composite
def records(draw):
    nodes = draw(st.integers(2, 6))
    node = st.integers(0, nodes - 1)
    vcs = draw(st.integers(1, 3))
    ends = draw(st.lists(
        st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=10
    ))
    failed = draw(st.sets(st.sampled_from(range(len(ends)))) if ends
                  else st.just(set()))
    start = draw(st.integers(0, 50))
    cycles = draw(st.integers(1, 40))
    cols = {name: [] for name in
            ("p_src", "p_dst", "p_t0", "p_meas", "p_done", "p_hops", "p_off")}
    arena = draw(st.lists(st.integers(0, 2), max_size=3))  # unowned slots
    for _ in range(draw(st.integers(0, 12))):
        measured = draw(st.booleans())
        t0 = draw(st.integers(start, start + cycles - 1) if measured
                  else st.integers(0, start + cycles + 20))
        # an lv one link past the endpoint table is legal: ends (-1, -1)
        route = draw(st.lists(
            st.integers(0, (len(ends) + 1) * vcs - 1), max_size=4
        ))
        done = draw(st.one_of(st.just(-1), st.integers(t0 + 1, t0 + 60)))
        for name, value in zip(cols, (
            draw(node), draw(node), t0, int(measured), done, len(route),
            len(arena),
        )):
            cols[name].append(value)
        arena += route
    chips = {n: draw(st.integers(0, 2)) for n in range(nodes)
             if draw(st.booleans())}
    return dict(
        core="synthetic", rate=0.1, num_nodes=nodes, num_links=len(ends),
        num_vcs=vcs, packet_length=draw(st.integers(1, 4)),
        measure_start=start, measure_end=start + cycles,
        measure_cycles=cycles, active_chips=nodes, route_lv=arena,
        node_chip=chips, link_ends=ends, failed_links=frozenset(failed),
        **cols,
    )


def built_ins(top, bins, window):
    options = {"link_util": {"top": top}, "vc_util": {"top": top},
               "latency_hist": {"bins": bins},
               "timeseries": {"window": window}}
    return [build_probe(kind, **options.get(kind, {})) for kind in KINDS]


@settings(max_examples=300, deadline=None)
@given(
    fields=records(),
    top=st.sampled_from([0, 1, 5]),
    bins=st.integers(1, 5),
    window=st.integers(1, 50),
)
def test_built_ins_equal_the_event_reference(fields, top, bins, window):
    record = RunRecord(**fields)
    want = Reference(top, bins, window).collect(record)
    for probe in built_ins(top, bins, window):
        channel = probe.collect(record)
        rows, summary = want[channel.name]
        assert same(channel.rows, tuple(rows)), channel.name
        assert same(channel.summary, summary), channel.name
        json.dumps(channel.to_dict())  # plain Python scalars throughout


def test_empty_run_decodes_to_empty_channels():
    record = RunRecord(
        core="synthetic", rate=0.0, num_nodes=2, num_links=0, num_vcs=1,
        packet_length=4, measure_start=0, measure_end=10,
        measure_cycles=10, active_chips=2,
    )
    want = Reference(0, 4, 20).collect(record)
    for probe in built_ins(0, 4, 20):
        channel = probe.collect(record)
        assert same((channel.rows, channel.summary), want[channel.name])
    assert len(want["timeseries"][0]) == 1  # one window shorter than 20


@settings(max_examples=100, deadline=None)
@given(fields=records())
def test_lists_and_arrays_give_identical_channels(fields):
    arrays = {
        name: np.array(value, dtype=np.int64) if isinstance(value, list)
        else value
        for name, value in fields.items()
    }
    arrays["link_ends"] = arrays["link_ends"].reshape(-1, 2)
    arrays["node_chip"] = np.array(
        [fields["node_chip"].get(n, -1) for n in range(fields["num_nodes"])]
    )
    for probe in built_ins(1, 3, 7):
        from_lists = probe.collect(RunRecord(**fields))
        from_arrays = probe.collect(RunRecord(**arrays))
        assert from_lists.to_dict() == from_arrays.to_dict()
