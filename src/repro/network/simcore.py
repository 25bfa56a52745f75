"""Struct-of-arrays simulation core: the pure-Python array loop.

This core simulates exactly the model of
:mod:`repro.network.refcore` — credit-flow-controlled wormhole VC
routers with per-output round-robin arbitration — but stores all hot
state in flat integer structures instead of heap objects.  Packets and
routes come pre-resolved from the shared front end
(:mod:`repro.network.corebase`); the loop adds:

* **Flits** are packed ints ``(pid << 22) | (flit_idx << 11) | hop`` —
  moving a flit one hop is ``f + 1``; an in-flight wheel event packs the
  destination ``(link, vc)`` index on top: ``(f' << 32) | lv``.
* **VC ownership** is an int array of packet ids (``-1`` = free), so the
  wormhole gate is a single integer compare instead of an object
  identity check.
* **Head-flit caching**: for every input port the core caches the head
  flit's decoded request (output key, next ``lv``, required owner,
  post-grant owner, prebuilt arrival event, hop delay).  When the next
  flit in a buffer is the granted flit's same-packet successor — the
  common case inside a wormhole — the cache is refreshed with two adds
  instead of a full decode.  A hop's link and in-flight delay are read
  off its ``lv`` from per-``lv`` tables, as the compiled kernel does.
* **Output-singleton arbitration**: request collection stores a bare
  input index per output until a second requester shows up, so the
  (overwhelmingly common) contention-free output skips candidate
  lists, round-robin rotation and the multi-pass grant loop entirely.
* **Injection** walks the pre-resolved events with a pointer, so idle
  cycles cost one integer compare, and stretches where nothing is in
  flight and nothing will inject are skipped outright (the drain phase
  ends as soon as the network is empty).

It is the loop the compiled kernel (``_simcore.c``) was ported from;
all three cores return identical results, open-loop
(``tests/network/test_core_equivalence.py``) and under a closed-loop
plan (``tests/workload/test_closed_loop_identity.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from .corebase import (
    _FIDX_MASK,
    _FIDX_SHIFT,
    _HOP_MASK,
    _PID_SHIFT,
    CoreBase,
)
from .schedule import InjectionSchedule
from .stats import SimResult

__all__ = ["ArrayCore"]

# Wheel events put the destination lv under the flit word (see
# corebase): (flit << EV_SHIFT) | lv.
_EV_SHIFT = 32
_EV_MASK = (1 << _EV_SHIFT) - 1
#: same packet, next flit index: the successor of flit ``f`` is
#: ``f + _FIDX_STEP`` while it sits in the same buffer (same hop).
_FIDX_STEP = 1 << _FIDX_SHIFT
#: bump a source-head event's flit index in place.
_FIDX_INC = 1 << (_FIDX_SHIFT + _EV_SHIFT)


class ArrayCore(CoreBase):
    """Array-backed simulation core (see module docstring)."""

    core_id = "array"

    def __init__(self, graph, routing, traffic, params) -> None:
        super().__init__(graph, routing, traffic, params)
        num_lv = self._num_lv
        num_nodes = graph.num_nodes
        num_links = graph.num_links

        # a hop's output link (arbitration key) and in-flight delay,
        # read off its lv
        self._lv_link = self._links.lv_link.tolist()
        self._lv_delay = self._links.lv_delay.tolist()

        self._buf: List[deque] = [deque() for _ in range(num_lv)]
        self._credits: List[int] = [params.vc_buffer_size] * num_lv
        #: wormhole owner per (link, vc): packet id, -1 = free.
        self._owner: List[int] = [-1] * num_lv

        self._nonempty: List[Dict[int, bool]] = [
            {} for _ in range(num_nodes)
        ]
        self._srcq: List[deque] = [deque() for _ in range(num_nodes)]
        self._hot_flag = bytearray(num_nodes)
        self._hot_list: List[int] = []

        self._arrivals: List[list] = [
            [] for _ in range(self._wheel_size)
        ]
        self._credit_ret: List[list] = [
            [] for _ in range(self._wheel_size)
        ]

        self._rr_link = [0] * num_links
        self._rr_eject = [0] * num_nodes

        # Per-input-port head-flit cache (valid while the buffer is
        # non-empty): decoded request of the current head flit.
        self._hd_key = [0] * num_lv     # output link id, -1 = eject
        self._hd_nlv = [0] * num_lv     # next (link, vc) index
        self._hd_need = [0] * num_lv    # required owner of next lv
        self._hd_post = [0] * num_lv    # owner of next lv after grant
        self._hd_ev = [0] * num_lv      # prebuilt arrival event
        self._hd_delay = [0] * num_lv   # hop delay to next buffer
        self._hd_pid = [0] * num_lv     # packet id (eject bookkeeping)
        self._hd_tail = [0] * num_lv    # head is the tail flit (eject)

        # Source-queue head cache, per router.
        self._s_pid = [0] * num_nodes
        self._s_key = [0] * num_nodes
        self._s_nlv = [0] * num_nodes
        self._s_need = [0] * num_nodes
        self._s_post = [0] * num_nodes
        self._s_ev = [0] * num_nodes
        self._s_delay = [0] * num_nodes
        self._s_fidx = [0] * num_nodes

    # ------------------------------------------------------------------
    def run(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
        plan=None,
    ) -> SimResult:
        """Run the full warmup+measure+drain schedule at ``rate``.

        ``plan`` switches the run to closed-loop mode: the order and
        cycle of the (pre-resolved) packets' injection come from, and
        phase completions feed back into, a
        :class:`~repro.workload.driver.PhasePlan` instead of a
        pre-sampled schedule, and the loop ends when the plan's last
        phase drains.
        """
        ctx = self._begin(rate, schedule, plan)
        t0, warm, meas_end, t_end = ctx.t0, ctx.warm, ctx.meas_end, ctx.t_end
        p = self.params
        pkt_len = p.packet_length
        szm1 = pkt_len - 1
        packets = self._packets
        pid0 = ctx.pid0
        # list views of the packet table (every run's packets: drain
        # leftovers stay addressable)
        p_off = packets.off.tolist()
        p_hops = packets.hops.tolist()
        p_t0 = packets.t0.tolist()
        p_meas = packets.meas.tolist()
        if plan is not None:
            # the plan releases this run's rows (template order) phase
            # by phase; the lists grow at every flush
            n_ev = plan.begin(t0, pid0)
            ev_cycles = plan.ev_cycles
            ev_nodes = plan.ev_nodes
            ev_pids = plan.ev_pids
        else:
            # this run's events are the packet table's new rows
            n_ev = ctx.n_new
            ev_cycles = p_t0[pid0:]
            ev_nodes = packets.src[pid0:].tolist()
            ev_pids = range(pid0, pid0 + n_ev)
        ip = 0
        route_lv = self._routes.lv.tolist()
        lv_link = self._lv_link
        lv_delay = self._lv_delay

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
        cdel_lv = links.cdel_lv.tolist()
        cap = links.cap.tolist()
        inj_w = p.injection_width
        ej_w = p.ejection_width

        plan_done = plan.packet_done if plan is not None else None

        hd_key = self._hd_key
        hd_nlv = self._hd_nlv
        hd_need = self._hd_need
        hd_post = self._hd_post
        hd_ev = self._hd_ev
        hd_delay = self._hd_delay
        hd_pid = self._hd_pid
        hd_tail = self._hd_tail
        s_pid = self._s_pid
        s_key = self._s_key
        s_nlv = self._s_nlv
        s_need = self._s_need
        s_post = self._s_post
        s_ev = self._s_ev
        s_delay = self._s_delay
        s_fidx = self._s_fidx

        latencies = self._latencies
        hops_out = self._hops
        probing = self._probe_mode
        eject_pid = self._eject_pid
        pm = self._packets_measured
        few = self._flits_ejected_window
        tfi = self.total_flits_injected
        tfe = self.total_flits_ejected

        #: wheel events (arrivals + credits) not yet delivered; when it
        #: is zero and no router is hot, only injections can wake the
        #: network, so the clock can jump.
        pending = sum(len(s) for s in arrivals)
        pending += sum(len(s) for s in credit_ret)

        def set_head(lv: int, f: int) -> None:
            """Refresh the head cache of input ``lv`` from flit ``f``."""
            hop = f & _HOP_MASK
            fidx = (f >> _FIDX_SHIFT) & _FIDX_MASK
            pid = f >> _PID_SHIFT
            nh = hop + 1
            if nh == p_hops[pid]:
                hd_key[lv] = -1
                hd_pid[lv] = pid
                hd_tail[lv] = fidx == szm1
            else:
                nlv = route_lv[p_off[pid] + nh]
                hd_key[lv] = lv_link[nlv]
                hd_nlv[lv] = nlv
                hd_delay[lv] = lv_delay[nlv]
                hd_need[lv] = -1 if fidx == 0 else pid
                hd_post[lv] = -1 if fidx == szm1 else pid
                hd_ev[lv] = ((f + 1) << _EV_SHIFT) | nlv

        def set_src_head(r: int, pid: int) -> None:
            """Refresh router ``r``'s source-queue head cache."""
            nlv = route_lv[p_off[pid]]
            s_pid[r] = pid
            s_key[r] = lv_link[nlv]
            s_nlv[r] = nlv
            s_delay[r] = lv_delay[nlv]
            s_need[r] = -1
            s_post[r] = -1 if szm1 == 0 else pid
            s_ev[r] = (pid << (_PID_SHIFT + _EV_SHIFT)) | nlv
            s_fidx[r] = 0

        t = t0
        while t < t_end:
            slot = t % wheel_size
            in_window = warm <= t < meas_end

            # --- 1. credit returns -------------------------------------
            crs = credit_ret[slot]
            if crs:
                pending -= len(crs)
                for lv in crs:
                    credits[lv] += 1
                credit_ret[slot] = []

            # --- 2. flit arrivals --------------------------------------
            arr_list = arrivals[slot]
            if arr_list:
                pending -= len(arr_list)
                for ev in arr_list:
                    lv = ev & _EV_MASK
                    b = buf[lv]
                    if b:
                        b.append(ev >> _EV_SHIFT)
                    else:
                        f = ev >> _EV_SHIFT
                        r = lv_dst[lv]
                        nonempty[r][lv] = True
                        if not hot_flag[r]:
                            hot_flag[r] = 1
                            hot_list.append(r)
                        b.append(f)
                        set_head(lv, f)
                arrivals[slot] = []

            # Rotated wheel views for this cycle: ``arr_at[d]`` is the
            # slot a grant with delay ``d`` lands in — all hot-path
            # ``(t + d) % wheel_size`` indexing collapses to one load.
            # Built after the drained slots were rebound, so ``[0]``
            # targets the *fresh* list (a delay-0 event waits one full
            # wheel turn, exactly as the modulo indexing did).
            arr_at = arrivals[slot:] + arrivals[:slot]
            cr_at = credit_ret[slot:] + credit_ret[:slot]

            # --- 3. packet generation (scheduled) ----------------------
            # no core injects past the measurement window (the
            # pre-pass drops such events; a plan's horizon is the gate)
            if ip < n_ev and t >= meas_end:
                ip = n_ev
            while ip < n_ev and ev_cycles[ip] <= t:
                nid = ev_nodes[ip]
                pid = ev_pids[ip]
                if plan_done is not None:
                    # closed-loop: the row exists, injection stamps it
                    p_t0[pid] = t
                    p_meas[pid] = in_window
                nhops = p_hops[pid]
                ip += 1
                if in_window:
                    pm += 1
                if nhops == 0:
                    # src and dst share a router: deliver instantly
                    tfi += pkt_len
                    tfe += pkt_len
                    if in_window:
                        few += pkt_len
                        latencies.append(0)
                        hops_out.append(0)
                        if probing:
                            eject_pid.append(pid)
                    if plan_done is not None:
                        plan_done(pid, t)
                    continue
                sq = srcq[nid]
                if not sq:
                    set_src_head(nid, pid)
                sq.append(pid)
                if not hot_flag[nid]:
                    hot_flag[nid] = 1
                    hot_list.append(nid)

            # --- 4. arbitration ----------------------------------------
            active_routers = hot_list
            hot_list = []
            for r in active_routers:
                ne = nonempty[r]
                sq = srcq[r]
                if not ne:
                    if not sq:
                        hot_flag[r] = 0
                        continue
                    # ---- source-only router ----------------------------
                    key = s_key[r]
                    budget = cap[key]
                    lim = budget if budget < inj_w else inj_w
                    arl = arr_at[s_delay[r]]
                    n = 0
                    while n < lim:
                        nlv = s_nlv[r]
                        if credits[nlv] <= 0 or owner[nlv] != s_need[r]:
                            break
                        tfi += 1
                        credits[nlv] -= 1
                        owner[nlv] = s_post[r]
                        arl.append(s_ev[r])
                        pending += 1
                        n += 1
                        nf = s_fidx[r] + 1
                        if nf == pkt_len:
                            sq.popleft()
                            if not sq:
                                break
                            set_src_head(r, sq[0])
                            if s_key[r] != key:
                                break
                        else:
                            s_fidx[r] = nf
                            s_ev[r] += _FIDX_INC
                            s_need[r] = s_pid[r]
                            if nf == szm1:
                                s_post[r] = -1
                    if sq:
                        hot_list.append(r)
                    else:
                        hot_flag[r] = 0
                    continue
                if not sq and len(ne) == 1:
                    # ---- single buffered input -------------------------
                    lv = next(iter(ne))
                    b = buf[lv]
                    key = hd_key[lv]
                    if key < 0:
                        # ejection port
                        in_cap = cap_lv[lv]
                        lim = ej_w if ej_w < in_cap else in_cap
                        crl = cr_at[cdel_lv[lv]]
                        n = 0
                        while n < lim:
                            f = b.popleft()
                            crl.append(lv)
                            pending += 1
                            tfe += 1
                            if in_window:
                                few += 1
                            if hd_tail[lv]:
                                pid = hd_pid[lv]
                                if p_meas[pid]:
                                    latencies.append(t - p_t0[pid])
                                    hops_out.append(p_hops[pid])
                                    if probing:
                                        eject_pid.append(pid)
                                if plan_done is not None:
                                    plan_done(pid, t)
                            n += 1
                            if not b:
                                del ne[lv]
                                break
                            f2 = b[0]
                            if f2 == f + _FIDX_STEP:
                                # same packet, next flit: still ejecting
                                hd_tail[lv] = (
                                    (f2 >> _FIDX_SHIFT) & _FIDX_MASK == szm1
                                )
                            else:
                                set_head(lv, f2)
                                if hd_key[lv] >= 0:
                                    break
                        if ne:
                            hot_list.append(r)
                        else:
                            hot_flag[r] = 0
                        continue
                    budget = cap[key]
                    in_cap = cap_lv[lv]
                    lim = budget if budget < in_cap else in_cap
                    crl = cr_at[cdel_lv[lv]]
                    arl = arr_at[hd_delay[lv]]
                    n = 0
                    while n < lim:
                        nlv = hd_nlv[lv]
                        if credits[nlv] <= 0 or owner[nlv] != hd_need[lv]:
                            break
                        f = b.popleft()
                        crl.append(lv)
                        credits[nlv] -= 1
                        owner[nlv] = hd_post[lv]
                        arl.append(hd_ev[lv])
                        pending += 2
                        n += 1
                        if not b:
                            del ne[lv]
                            break
                        f2 = b[0]
                        if f2 == f + _FIDX_STEP:
                            # same packet, next flit: same route position,
                            # so only owner gates and the event change
                            pid = f2 >> _PID_SHIFT
                            hd_need[lv] = pid
                            hd_post[lv] = (
                                -1
                                if (f2 >> _FIDX_SHIFT) & _FIDX_MASK == szm1
                                else pid
                            )
                            hd_ev[lv] += _FIDX_INC
                        else:
                            set_head(lv, f2)
                            if hd_key[lv] != key:
                                break
                    if ne:
                        hot_list.append(r)
                    else:
                        hot_flag[r] = 0
                    continue

                # ---- general path: multiple inputs / mixed sources ----
                # Request collection: an output key maps to its single
                # requesting input until a second one appears; only then
                # is a candidate list (and the round-robin/multi-pass
                # machinery below) materialized.  The source queue's
                # descriptor is -2 (buffered inputs are lv >= 0).
                reqs: Dict = {}
                for lv in ne:
                    k = hd_key[lv]
                    prev = reqs.get(k)
                    if prev is None:
                        reqs[k] = lv
                    elif type(prev) is list:
                        prev.append(lv)
                    else:
                        reqs[k] = [prev, lv]
                if sq:
                    k = s_key[r]
                    prev = reqs.get(k)
                    if prev is None:
                        reqs[k] = -2
                    elif type(prev) is list:
                        prev.append(-2)
                    else:
                        reqs[k] = [prev, -2]

                for key, cand in reqs.items():
                    if type(cand) is not list:
                        # ---- uncontended output: direct grant kernels --
                        lv = cand
                        if lv == -2:
                            # source queue head
                            budget = cap[key]
                            lim = budget if budget < inj_w else inj_w
                            arl = arr_at[s_delay[r]]
                            n = 0
                            while n < lim:
                                nlv = s_nlv[r]
                                if (
                                    credits[nlv] <= 0
                                    or owner[nlv] != s_need[r]
                                ):
                                    break
                                tfi += 1
                                credits[nlv] -= 1
                                owner[nlv] = s_post[r]
                                arl.append(s_ev[r])
                                pending += 1
                                n += 1
                                nf = s_fidx[r] + 1
                                if nf == pkt_len:
                                    sq.popleft()
                                    if not sq:
                                        break
                                    set_src_head(r, sq[0])
                                    if s_key[r] != key:
                                        break
                                else:
                                    s_fidx[r] = nf
                                    s_ev[r] += _FIDX_INC
                                    s_need[r] = s_pid[r]
                                    if nf == szm1:
                                        s_post[r] = -1
                        elif key < 0:
                            # ejection port
                            b = buf[lv]
                            in_cap = cap_lv[lv]
                            lim = ej_w if ej_w < in_cap else in_cap
                            crl = cr_at[cdel_lv[lv]]
                            n = 0
                            while n < lim:
                                f = b.popleft()
                                crl.append(lv)
                                pending += 1
                                tfe += 1
                                if in_window:
                                    few += 1
                                if hd_tail[lv]:
                                    pid = hd_pid[lv]
                                    if p_meas[pid]:
                                        latencies.append(t - p_t0[pid])
                                        hops_out.append(p_hops[pid])
                                        if probing:
                                            eject_pid.append(pid)
                                    if plan_done is not None:
                                        plan_done(pid, t)
                                n += 1
                                if not b:
                                    del ne[lv]
                                    break
                                f2 = b[0]
                                if f2 == f + _FIDX_STEP:
                                    hd_tail[lv] = (
                                        (f2 >> _FIDX_SHIFT) & _FIDX_MASK
                                        == szm1
                                    )
                                else:
                                    set_head(lv, f2)
                                    if hd_key[lv] >= 0:
                                        break
                        else:
                            b = buf[lv]
                            budget = cap[key]
                            in_cap = cap_lv[lv]
                            lim = budget if budget < in_cap else in_cap
                            crl = cr_at[cdel_lv[lv]]
                            arl = arr_at[hd_delay[lv]]
                            n = 0
                            while n < lim:
                                nlv = hd_nlv[lv]
                                if (
                                    credits[nlv] <= 0
                                    or owner[nlv] != hd_need[lv]
                                ):
                                    break
                                f = b.popleft()
                                crl.append(lv)
                                credits[nlv] -= 1
                                owner[nlv] = hd_post[lv]
                                arl.append(hd_ev[lv])
                                pending += 2
                                n += 1
                                if not b:
                                    del ne[lv]
                                    break
                                f2 = b[0]
                                if f2 == f + _FIDX_STEP:
                                    pid = f2 >> _PID_SHIFT
                                    hd_need[lv] = pid
                                    hd_post[lv] = (
                                        -1
                                        if (f2 >> _FIDX_SHIFT) & _FIDX_MASK
                                        == szm1
                                        else pid
                                    )
                                    hd_ev[lv] += _FIDX_INC
                                else:
                                    set_head(lv, f2)
                                    if hd_key[lv] != key:
                                        break
                        continue

                    # ---- contended output: round-robin multi-pass ------
                    budget = ej_w if key < 0 else cap[key]
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
                    for _pass in range(budget):
                        progressed = False
                        for desc in cand:
                            if granted >= budget:
                                break
                            if desc < 0:
                                # source queue head
                                if not sq or s_key[r] != key:
                                    continue
                                if (
                                    budget > 1
                                    and in_used.get(desc, 0) >= inj_w
                                ):
                                    continue
                                nlv = s_nlv[r]
                                if (
                                    credits[nlv] <= 0
                                    or owner[nlv] != s_need[r]
                                ):
                                    continue
                                tfi += 1
                                credits[nlv] -= 1
                                owner[nlv] = s_post[r]
                                arr_at[s_delay[r]].append(s_ev[r])
                                pending += 1
                                nf = s_fidx[r] + 1
                                if nf == pkt_len:
                                    sq.popleft()
                                    if sq:
                                        set_src_head(r, sq[0])
                                else:
                                    s_fidx[r] = nf
                                    s_ev[r] += _FIDX_INC
                                    s_need[r] = s_pid[r]
                                    if nf == szm1:
                                        s_post[r] = -1
                            else:
                                b = buf[desc]
                                if not b:
                                    continue
                                k2 = hd_key[desc]
                                if key < 0:
                                    # ejection port
                                    if k2 >= 0:
                                        continue
                                    if (
                                        budget > 1
                                        and in_used.get(desc, 0)
                                        >= cap_lv[desc]
                                    ):
                                        continue
                                    b.popleft()
                                    cr_at[cdel_lv[desc]].append(desc)
                                    pending += 1
                                    tfe += 1
                                    if in_window:
                                        few += 1
                                    if hd_tail[desc]:
                                        pid = hd_pid[desc]
                                        if p_meas[pid]:
                                            latencies.append(
                                                t - p_t0[pid]
                                            )
                                            hops_out.append(p_hops[pid])
                                            if probing:
                                                eject_pid.append(pid)
                                        if plan_done is not None:
                                            plan_done(pid, t)
                                    if b:
                                        set_head(desc, b[0])
                                    else:
                                        del ne[desc]
                                else:
                                    if k2 != key:
                                        continue
                                    if (
                                        budget > 1
                                        and in_used.get(desc, 0)
                                        >= cap_lv[desc]
                                    ):
                                        continue
                                    nlv = hd_nlv[desc]
                                    if (
                                        credits[nlv] <= 0
                                        or owner[nlv] != hd_need[desc]
                                    ):
                                        continue
                                    b.popleft()
                                    cr_at[cdel_lv[desc]].append(desc)
                                    pending += 1
                                    credits[nlv] -= 1
                                    owner[nlv] = hd_post[desc]
                                    arr_at[hd_delay[desc]].append(
                                        hd_ev[desc]
                                    )
                                    pending += 1
                                    if b:
                                        set_head(desc, b[0])
                                    else:
                                        del ne[desc]
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

            t += 1
            # --- closed-loop phase releases ----------------------------
            if plan is not None:
                if plan.dirty:
                    # completions this cycle unlocked phases: merge
                    # their events (cycles >= t) into the tail
                    n_ev = plan.flush(ip)
                if plan.finished:
                    break
            # --- idle fast-forward -------------------------------------
            if not hot_list and pending == 0:
                if ip < n_ev:
                    t = ev_cycles[ip]
                else:
                    # nothing in flight and nothing left to inject
                    break

        self._hot_list = hot_list
        self._clock = t_end
        if plan is not None:
            packets.t0[pid0:] = p_t0[pid0:]
            packets.meas[pid0:] = p_meas[pid0:]
        self._packets_measured = pm
        self._flits_ejected_window = few
        self.total_flits_injected = tfi
        self.total_flits_ejected = tfe

        return self._result(ctx)

    # ------------------------------------------------------------------
    def flits_in_flight(self) -> int:
        """Flits currently buffered or on wires (conservation checks)."""
        buffered = sum(len(b) for b in self._buf)
        flying = sum(len(slot) for slot in self._arrivals)
        return buffered + flying
