"""Reference (object-based) simulator core.

This is the original, heap-object implementation of the cycle-accurate
VC simulator: flits are small mutable lists, packets are
:class:`~repro.network.packet.Packet` objects, VC ownership is object
identity.  It is kept as the short, obviously-correct executable
specification of the router model, and the fallback on hosts without
a C compiler: it consumes the same pre-resolved packets as the compiled
kernel (the shared front end of :mod:`repro.network.corebase`), so the
two must produce *identical* results, pinned schedule or not, which the
cross-core equivalence tests assert.

The per-cycle model (see :mod:`repro.network.simulator` for the full
description):

1. *Credit return* — credits released ``link latency`` cycles ago
   arrive back at the upstream arbiter.
2. *Flit arrival* — flits that finished traversing a link (+ router
   pipeline) are appended to the downstream input buffer of their
   ``(link, VC)`` pair.
3. *Injection* — the cycle's pre-resolved packets (or a closed-loop
   plan's released events) enter their source queues.
4. *Arbitration* — head flits request outputs; each output link grants
   up to ``capacity`` flits per cycle, round-robin over requesting
   inputs, subject to downstream credits and wormhole VC ownership.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from .corebase import CoreBase
from .packet import Packet
from .schedule import InjectionSchedule
from .stats import SimResult

__all__ = ["ReferenceCore"]


class ReferenceCore(CoreBase):
    """Object-based simulation core (see module docstring)."""

    core_id = "reference"

    def __init__(self, graph, routing, traffic, params) -> None:
        super().__init__(graph, routing, traffic, params)
        num_lv = self._num_lv
        num_nodes = graph.num_nodes

        # Per-(link, vc) state, flattened to one index lv = link*V + vc:
        # integer indexing and hashing beat (link, vc) tuples in the hot
        # loop by a wide margin.
        self._buf: List[deque] = [deque() for _ in range(num_lv)]
        self._credits: List[int] = [params.vc_buffer_size] * num_lv
        self._owner: List[Optional[Packet]] = [None] * num_lv

        # Per-router dispatch state.  ``_nonempty[r]`` maps lv -> True
        # (int keys, insertion ordered) for every non-empty input of
        # router r; the hot set is a flag array + compact active list.
        self._nonempty: List[Dict[int, bool]] = [
            {} for _ in range(num_nodes)
        ]
        self._srcq: List[deque] = [deque() for _ in range(num_nodes)]
        self._hot_flag = bytearray(num_nodes)
        self._hot_list: List[int] = []

        # Event wheels.
        self._arrivals: List[list] = [[] for _ in range(self._wheel_size)]
        self._credit_ret: List[list] = [[] for _ in range(self._wheel_size)]

        # Round-robin pointers: one per output link, one per ejection port.
        self._rr_link = [0] * graph.num_links
        self._rr_eject = [0] * num_nodes

    # ------------------------------------------------------------------
    def _finish_flit(self, pkt: Packet, fidx: int, t: int, in_window: bool) -> None:
        """Account one flit leaving the network at its destination."""
        self.total_flits_ejected += 1
        if in_window:
            self._flits_ejected_window += 1
        if fidx == pkt.size - 1:
            pkt.t_done = t
            if pkt.measured:
                self._latencies.append(t - pkt.t_create)
                self._hops.append(len(pkt.path))
                if self._probe_mode:
                    self._eject_pid.append(pkt.pid)
            if self._plan is not None:
                self._plan.packet_done(pkt.pid, t)

    # ------------------------------------------------------------------
    def run(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
        plan=None,
    ) -> SimResult:
        """Run the full warmup+measure+drain schedule at ``rate``.

        ``rate`` is offered load in flits/cycle/chip over the traffic
        pattern's active chips; ``schedule`` pins the packet starts
        instead of sampling them.  ``plan`` switches to closed-loop
        mode: the (pre-resolved) packets inject when a
        :class:`~repro.workload.driver.PhasePlan` releases them, its
        phase releases feed back from tail-flit ejections, and the
        loop ends when the last phase drains.
        """
        ctx = self._begin(rate, schedule, plan)
        t0, warm, meas_end, t_end = ctx.t0, ctx.warm, ctx.meas_end, ctx.t_end
        p = self.params
        pkt_len = p.packet_length
        num_vcs = self.num_vcs
        packets = self._packets
        pid0 = ctx.pid0
        # this run's packets are the packet table's new rows
        p_dst = packets.dst[pid0:].tolist()
        p_off = packets.off[pid0:].tolist()
        p_hops = packets.hops[pid0:].tolist()
        if plan is not None:
            # the plan releases the rows (template order) phase by
            # phase; the lists grow at every flush
            n_ev = plan.begin(t0, pid0)
            ev_cycles = plan.ev_cycles
            ev_nodes = plan.ev_nodes
            ev_pids = plan.ev_pids
        else:
            n_ev = ctx.n_new
            ev_cycles = packets.t0[pid0:].tolist()
            ev_nodes = packets.src[pid0:].tolist()
            ev_pids = range(pid0, pid0 + n_ev)
        ev_ptr = 0

        wheel_size = self._wheel_size
        arrivals = self._arrivals
        credit_ret = self._credit_ret
        buf = self._buf
        credits = self._credits
        owner = self._owner
        nonempty = self._nonempty
        srcq = self._srcq
        hot_flag = self._hot_flag
        hot_list = self._hot_list
        rr_link = self._rr_link
        rr_eject = self._rr_eject
        links = self._links
        lv_dst = links.lv_dst.tolist()
        cap_lv = links.cap_lv.tolist()
        credit_delay_lv = links.cdel_lv.tolist()
        hop_delay = links.hop_delay.tolist()
        cap = links.cap.tolist()
        inj_w = p.injection_width
        ej_w = p.ejection_width
        finish_flit = self._finish_flit

        for t in range(t0, t_end):
            slot = t % wheel_size
            in_window = warm <= t < meas_end

            # --- 1. credit returns -------------------------------------
            crs = credit_ret[slot]
            if crs:
                for lv in crs:
                    credits[lv] += 1
                credit_ret[slot] = []

            # --- 2. flit arrivals --------------------------------------
            arr_list = arrivals[slot]
            if arr_list:
                for f, lv in arr_list:
                    b = buf[lv]
                    if not b:
                        r = lv_dst[lv]
                        nonempty[r][lv] = True
                        if not hot_flag[r]:
                            hot_flag[r] = 1
                            hot_list.append(r)
                    b.append(f)
                arrivals[slot] = []

            # --- 3. packet generation ----------------------------------
            if t < meas_end:
                while ev_ptr < n_ev and ev_cycles[ev_ptr] == t:
                    nid = ev_nodes[ev_ptr]
                    pid = ev_pids[ev_ptr]
                    row = pid - pid0
                    if plan is not None:
                        # closed-loop: injection stamps the row
                        packets.t0[pid] = t
                        packets.meas[pid] = in_window
                    off = p_off[row]
                    path_lv = tuple(
                        self._routes.lv[off: off + p_hops[row]].tolist()
                    )
                    pkt = Packet(
                        pid, nid, p_dst[row], pkt_len,
                        [(lv // num_vcs, lv % num_vcs) for lv in path_lv],
                        t, in_window,
                    )
                    pkt.path_lv = path_lv
                    ev_ptr += 1
                    if in_window:
                        self._packets_measured += 1
                    if not pkt.path:
                        # src and dst share a router: deliver instantly
                        for fidx in range(pkt.size):
                            self.total_flits_injected += 1
                            finish_flit(pkt, fidx, t, in_window)
                        continue
                    srcq[nid].append([pkt, 0])
                    if not hot_flag[nid]:
                        hot_flag[nid] = 1
                        hot_list.append(nid)

            # --- 4. arbitration ----------------------------------------
            # hot_list is rebuilt each cycle: routers that stay busy are
            # re-appended, idle ones drop out.  Phases 2-3 of the *next*
            # cycle append new arrivals to the rebuilt list.
            active_routers = hot_list
            hot_list = []
            for r in active_routers:
                ne = nonempty[r]
                sq = srcq[r]
                if not ne and not sq:
                    hot_flag[r] = 0
                    continue

                # Fast paths for the overwhelmingly common single-input
                # router on unit-budget outputs: no request dict, no
                # rotation, no pass loop.  Semantics are identical to
                # the general path below with one candidate and
                # budget == 1.
                if not sq and len(ne) == 1:
                    lv = next(iter(ne))
                    b = buf[lv]
                    f = b[0]
                    pkt = f[0]
                    nh = f[2] + 1
                    if nh == pkt.path_len:
                        if ej_w == 1:
                            b.popleft()
                            if not b:
                                del ne[lv]
                            credit_ret[
                                (t + credit_delay_lv[lv]) % wheel_size
                            ].append(lv)
                            finish_flit(pkt, f[1], t, in_window)
                            if ne:
                                hot_list.append(r)
                            else:
                                hot_flag[r] = 0
                            continue
                    else:
                        out_link = pkt.path[nh][0]
                        if cap[out_link] == 1:
                            nlv = pkt.path_lv[nh]
                            fidx = f[1]
                            if credits[nlv] > 0:
                                own = owner[nlv]
                                if (own is None) if fidx == 0 else (own is pkt):
                                    b.popleft()
                                    if not b:
                                        del ne[lv]
                                    credit_ret[
                                        (t + credit_delay_lv[lv]) % wheel_size
                                    ].append(lv)
                                    credits[nlv] -= 1
                                    if fidx == 0:
                                        owner[nlv] = pkt
                                    if fidx == pkt.size - 1:
                                        owner[nlv] = None
                                    f[2] = nh
                                    arrivals[
                                        (t + hop_delay[out_link]) % wheel_size
                                    ].append((f, nlv))
                            if ne:
                                hot_list.append(r)
                            else:
                                hot_flag[r] = 0
                            continue
                elif not ne:
                    entry = sq[0]
                    pkt, fidx = entry[0], entry[1]
                    out_link = pkt.path[0][0]
                    if cap[out_link] == 1:
                        nlv = pkt.path_lv[0]
                        if credits[nlv] > 0:
                            own = owner[nlv]
                            if (own is None) if fidx == 0 else (own is pkt):
                                self.total_flits_injected += 1
                                entry[1] = fidx + 1
                                if entry[1] == pkt.size:
                                    sq.popleft()
                                credits[nlv] -= 1
                                if fidx == 0:
                                    owner[nlv] = pkt
                                if fidx == pkt.size - 1:
                                    owner[nlv] = None
                                arrivals[
                                    (t + hop_delay[out_link]) % wheel_size
                                ].append(([pkt, fidx, 0], nlv))
                        if sq:
                            hot_list.append(r)
                        else:
                            hot_flag[r] = 0
                        continue

                # Collect requests: out_key -> list of input descriptors.
                # Descriptor: lv index for buffered inputs, -1 for the
                # source queue.  Key -1 is the router's ejection port
                # (link ids are >= 0).
                reqs: Dict = {}
                for lv in ne:
                    f = buf[lv][0]
                    pkt = f[0]
                    nh = f[2] + 1
                    if nh == pkt.path_len:
                        key = -1
                    else:
                        key = pkt.path[nh][0]
                    lst = reqs.get(key)
                    if lst is None:
                        reqs[key] = [lv]
                    else:
                        lst.append(lv)
                if sq:
                    pkt = sq[0][0]
                    key = pkt.path[0][0]
                    lst = reqs.get(key)
                    if lst is None:
                        reqs[key] = [-1]
                    else:
                        lst.append(-1)

                for key, cand in reqs.items():
                    if key < 0:  # ejection port
                        budget = ej_w
                        out_link = -1
                    else:
                        out_link = key
                        budget = cap[out_link]
                    # rotate candidates for round-robin fairness
                    if len(cand) > 1:
                        if key < 0:
                            off = rr_eject[r]
                            rr_eject[r] = off + 1
                        else:
                            off = rr_link[key]
                            rr_link[key] = off + 1
                        off %= len(cand)
                        if off:
                            cand = cand[off:] + cand[:off]

                    granted = 0
                    in_used: Dict = {}
                    # multiple passes allow capacity>1 links to move
                    # several flits per cycle
                    for _pass in range(budget):
                        progressed = False
                        for desc in cand:
                            if granted >= budget:
                                break
                            # ---- fetch head flit ----
                            if desc < 0:
                                if not sq:
                                    continue
                                entry = sq[0]
                                pkt, fidx = entry[0], entry[1]
                                hopi = -1
                                in_cap = inj_w
                            else:
                                b = buf[desc]
                                if not b:
                                    continue
                                f = b[0]
                                pkt, fidx, hopi = f[0], f[1], f[2]
                                in_cap = cap_lv[desc]
                            if budget > 1 and in_used.get(desc, 0) >= in_cap:
                                continue
                            nh = hopi + 1
                            if nh == pkt.path_len:
                                # eject (key must match; source never here)
                                if out_link >= 0:
                                    continue
                                b.popleft()
                                if not b:
                                    del ne[desc]
                                credit_ret[
                                    (t + credit_delay_lv[desc]) % wheel_size
                                ].append(desc)
                                finish_flit(pkt, fidx, t, in_window)
                                if budget > 1:
                                    in_used[desc] = in_used.get(desc, 0) + 1
                                granted += 1
                                progressed = True
                                continue
                            if pkt.path[nh][0] != out_link:
                                continue
                            nlv = pkt.path_lv[nh]
                            if credits[nlv] <= 0:
                                continue
                            own = owner[nlv]
                            if fidx == 0:
                                if own is not None:
                                    continue
                            elif own is not pkt:
                                continue
                            # ---- grant ----
                            if desc < 0:
                                # take flit from the source queue
                                self.total_flits_injected += 1
                                entry[1] = fidx + 1
                                if entry[1] == pkt.size:
                                    sq.popleft()
                                f = [pkt, fidx, hopi]
                            else:
                                b.popleft()
                                if not b:
                                    del ne[desc]
                                credit_ret[
                                    (t + credit_delay_lv[desc]) % wheel_size
                                ].append(desc)
                            credits[nlv] -= 1
                            if fidx == 0:
                                owner[nlv] = pkt
                            if fidx == pkt.size - 1:
                                owner[nlv] = None
                            f[2] = nh
                            arrivals[
                                (t + hop_delay[out_link]) % wheel_size
                            ].append((f, nlv))
                            if budget > 1:
                                in_used[desc] = in_used.get(desc, 0) + 1
                            granted += 1
                            progressed = True
                        if not progressed or granted >= budget:
                            break

                if ne or sq:
                    hot_list.append(r)
                else:
                    hot_flag[r] = 0

            # --- 5. closed-loop phase releases -------------------------
            # Completions recorded this cycle release dependent phases
            # at t+1; materialise their events before the next cycle's
            # generation pass so the strict == t match never misses.
            if plan is not None:
                if plan.dirty:
                    n_ev = plan.flush(ev_ptr)
                if plan.finished:
                    break

        self._hot_list = hot_list
        self._clock = t_end

        return self._result(ctx)

    # ------------------------------------------------------------------
    def flits_in_flight(self) -> int:
        """Flits currently buffered or on wires (conservation checks)."""
        buffered = sum(len(b) for b in self._buf)
        flying = sum(len(slot) for slot in self._arrivals)
        return buffered + flying
