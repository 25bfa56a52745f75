"""Struct-of-arrays simulation core (the production data plane).

This core simulates exactly the model of
:mod:`repro.network.refcore` — credit-flow-controlled wormhole VC
routers with per-output round-robin arbitration — but stores all hot
state in flat integer structures instead of heap objects:

* **Packet state** lives in preallocated integer arrays indexed by
  packet id (``p_off``/``p_hops``/``p_t0``/``p_meas``); the arrays are
  sized once per run from the injection schedule, whose length is an
  exact upper bound on the number of packets.
* **Routes** are flattened into one shared trio of int arrays
  (``route_lv``/``route_link``/``route_delay``); a packet references its
  route as an ``(offset, hops)`` slice.  Deterministic routings share
  one slice per (src, dst) pair via a core-level memo.
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
  instead of a full decode.
* **Output-singleton arbitration**: request collection stores a bare
  input index per output until a second requester shows up, so the
  (overwhelmingly common) contention-free output skips candidate
  lists, round-robin rotation and the multi-pass grant loop entirely.
* **Injection** consumes a prebuilt
  :class:`~repro.network.schedule.InjectionSchedule` (vectorized
  geometric inter-arrival sampling), so idle cycles cost one integer
  compare, and stretches where nothing is in flight and nothing will
  inject are skipped outright (the drain phase ends as soon as the
  network is empty).

Equivalence: given the same pinned schedule, this core and
:class:`~repro.network.refcore.ReferenceCore` produce identical
results; ``tests/network/test_core_equivalence.py`` asserts it field by
field.  Without a pinned schedule the cores consume the numpy RNG
stream differently (geometric batches vs. per-cycle masks), which
shifts individual per-seed results but not the distribution — see
``benchmarks/bench_simcore.py`` for the curve-level comparison.

Measurement state accumulates across ``run()`` calls and the cycle
clock keeps counting, so leftover in-flight state from a truncated
drain stays consistent (wheel slots aligned, latencies non-negative).
The engine still builds a fresh instance per simulated point.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from ..metrics.record import RunRecord, failed_links_of
from ..topology.graph import NetworkGraph
from .params import SimParams
from .schedule import InjectionSchedule, build_injection_schedule
from .stats import SimResult

__all__ = ["ArrayCore"]

# Flit word layout: (pid << PID_SHIFT) | (flit_idx << FIDX_SHIFT) | hop.
# Wheel events add the destination lv: (flit << EV_SHIFT) | lv.
_HOP_BITS = 11
_FIDX_SHIFT = 11
_PID_SHIFT = 22
_EV_SHIFT = 32
_HOP_MASK = (1 << _HOP_BITS) - 1
_FIDX_MASK = (1 << (_PID_SHIFT - _FIDX_SHIFT)) - 1
_EV_MASK = (1 << _EV_SHIFT) - 1
_MAX_HOPS = _HOP_MASK  # longest representable route
#: same packet, next flit index: the successor of flit ``f`` is
#: ``f + _FIDX_STEP`` while it sits in the same buffer (same hop).
_FIDX_STEP = 1 << _FIDX_SHIFT
#: bump a source-head event's flit index in place.
_FIDX_INC = 1 << (_FIDX_SHIFT + _EV_SHIFT)


def _check_hops(nhops: int) -> None:
    """Reject a route the packed flit word cannot count."""
    if nhops > _MAX_HOPS:
        raise ValueError(
            f"route with {nhops} hops exceeds the core's hop "
            f"field ({_MAX_HOPS}); use the reference core"
        )


class ArrayCore:
    """Array-backed simulation core (see module docstring)."""

    #: name reported in :class:`~repro.metrics.RunRecord.core`.
    core_id = "array"

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

        if params.packet_length > _FIDX_MASK:
            raise ValueError(
                f"packet_length {params.packet_length} exceeds the array "
                f"core's flit-index field ({_FIDX_MASK}); use the "
                "reference core"
            )

        num_links = graph.num_links
        num_nodes = graph.num_nodes
        num_vcs = routing.num_vcs
        self.num_vcs = num_vcs

        self._hop_delay = [
            l.latency + params.router_latency for l in graph.links
        ]
        self._credit_delay = [max(1, l.latency) for l in graph.links]
        self._cap = [l.capacity for l in graph.links]

        num_lv = num_links * num_vcs
        self._num_lv = num_lv

        self._lv_dst = [graph.links[lv // num_vcs].dst for lv in range(num_lv)]
        self._cap_lv = [self._cap[lv // num_vcs] for lv in range(num_lv)]
        self._credit_delay_lv = [
            self._credit_delay[lv // num_vcs] for lv in range(num_lv)
        ]

        max_delay = max(self._hop_delay, default=1)
        max_delay = max(max_delay, max(self._credit_delay, default=1))
        self._wheel_size = max_delay + 1

        # The Python hot-loop state (buffers, head caches, wheels, …)
        # is sized O(num_lv) and allocated lazily on first run():
        # NativeCore inherits this constructor but keeps all of that
        # state in its own numpy mirrors instead.
        self._loop_ready = False

        self._np_rng = np.random.default_rng(params.seed)
        self._py_rng = random.Random(params.seed ^ 0x5EED)

        self._route_flat = getattr(routing, "route_flat", None)
        self._deterministic = bool(
            getattr(routing, "is_deterministic", False)
        )
        self._slice_memo_max = getattr(routing, "route_memo_max", 1 << 19)
        #: (src, dst) -> (offset, hops) into the shared route arrays.
        self._slice_memo: Dict = {}

        # Shared flattened route arrays: per hop, the (link*V + vc)
        # index, the link id (arbitration key) and the in-flight delay.
        self._route_lv: List[int] = []
        self._route_link: List[int] = []
        self._route_delay: List[int] = []

        self._active_nodes = list(traffic.active_nodes())
        self._active_chips = traffic.num_active_chips()
        chips = graph.chips()
        self._nodes_per_chip = {
            nid: len(chips[graph.nodes[nid].chip]) for nid in self._active_nodes
        }

        # Per-packet state, preallocated in run() from the schedule.
        self._p_off: List[int] = []
        self._p_hops: List[int] = []
        self._p_t0: List[int] = []
        self._p_meas: List[int] = []
        self._num_packets = 0

        self._latencies: List[int] = []
        self._hops: List[int] = []
        # Probe bookkeeping (see repro.metrics): disabled by default —
        # the hot loop then records nothing beyond the lists above.
        # When enabled (before the first run) the injection site keeps
        # per-packet source/destination and the ejection sites keep the
        # delivered packet ids, aligned with ``_latencies``.
        self._probe_mode = False
        self._p_src: List[int] = []
        self._p_dst: List[int] = []
        self._eject_pid: List[int] = []
        self._packets_measured = 0
        self._flits_ejected_window = 0
        self.total_flits_injected = 0
        self.total_flits_ejected = 0
        #: cycles simulated by previous run() calls.  The clock keeps
        #: counting across runs so that leftover in-flight events stay
        #: aligned with their wheel slots and leftover packets report
        #: non-negative latencies.  A fresh instance (the engine always
        #: uses one per point) starts at 0, where behaviour is
        #: bit-identical to the single-run semantics.
        self._clock = 0
        #: the closed-loop PhasePlan of the most recent run (None for
        #: open-loop runs); run_record() reads its phase records and
        #: measurement window.
        self._plan = None

    # ------------------------------------------------------------------
    def _init_loop_state(self) -> None:
        """Allocate the Python hot-loop state (first run() only)."""
        num_lv = self._num_lv
        num_nodes = self.graph.num_nodes
        num_links = self.graph.num_links
        self._buf: List[deque] = [deque() for _ in range(num_lv)]
        self._credits: List[int] = [
            self.params.vc_buffer_size
        ] * num_lv
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
        self._loop_ready = True

    # ------------------------------------------------------------------
    def enable_probes(self) -> None:
        """Start recording the per-packet probe surface.

        Must be called before the first ``run()`` — packets injected
        earlier have no recorded source/destination, which would
        misalign the arrays.
        """
        if self._clock:
            raise RuntimeError(
                "probes must be enabled before the first run()"
            )
        self._probe_mode = True

    def run_record(self, rate: float) -> RunRecord:
        """Bulk measurement record of this core's runs so far."""
        if not self._probe_mode:
            raise RuntimeError(
                "probing was not enabled on this core; pass probes= to "
                "Simulator (or call enable_probes() before run())"
            )
        npk = self._num_packets
        p_done = [-1] * npk
        p_t0 = self._p_t0
        latencies = self._latencies
        for i, pid in enumerate(self._eject_pid):
            p_done[pid] = p_t0[pid] + latencies[i]
        p = self.params
        graph = self.graph
        plan = self._plan
        if plan is not None:
            # closed-loop: the whole makespan is the measurement window
            measure_start = plan._t0
            measure_cycles = plan.elapsed()
            measure_end = measure_start + measure_cycles
            phases = plan.phase_records()
        else:
            measure_end = self._clock - p.drain_cycles
            measure_start = measure_end - p.measure_cycles
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
            measure_end=measure_end,
            measure_cycles=measure_cycles,
            active_chips=self._active_chips,
            phases=phases,
            p_src=list(self._p_src),
            p_dst=list(self._p_dst),
            p_t0=list(p_t0[:npk]),
            p_meas=list(self._p_meas[:npk]),
            p_done=p_done,
            p_hops=list(self._p_hops[:npk]),
            p_off=list(self._p_off[:npk]),
            route_lv=self._route_lv,
            node_chip={
                nid: node.chip for nid, node in enumerate(graph.nodes)
            },
            link_ends=[(l.src, l.dst) for l in graph.links],
            failed_links=failed_links_of(self.routing),
        )

    # ------------------------------------------------------------------
    def injection_probs(self, rate: float) -> List[float]:
        """Per-active-node packet-start probability per cycle."""
        pkt_len = self.params.packet_length
        return [
            rate / (pkt_len * self._nodes_per_chip[nid])
            for nid in self._active_nodes
        ]

    def make_schedule(self, rate: float) -> InjectionSchedule:
        """Sample this run's injection schedule (consumes the numpy RNG)."""
        probs = self._checked_probs(rate)
        p = self.params
        return build_injection_schedule(
            self._active_nodes,
            probs,
            p.warmup_cycles + p.measure_cycles,
            self._np_rng,
        )

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

    def _route_slice(self, nid: int, dst: int):
        """``(offset, hops)`` into the shared route arrays for a route
        ``nid -> dst``, resolving (and memoising, for deterministic
        routings) on demand.

        Single point of truth for route resolution: the Python hot
        loop and the native core's pre-pass both call it, which keeps
        their stdlib-RNG consumption byte-identical — the invariant
        behind cross-core bit-identity.
        """
        sl = (
            self._slice_memo.get((nid, dst))
            if self._deterministic
            else None
        )
        if sl is not None:
            return sl
        if self._route_flat is not None:
            path, path_lv = self._route_flat(nid, dst, self._py_rng)
        else:
            path = tuple(self.routing.route(nid, dst, self._py_rng))
            num_vcs = self.num_vcs
            path_lv = tuple(l * num_vcs + v for l, v in path)
        nhops = len(path_lv)
        _check_hops(nhops)
        route_lv = self._route_lv
        off = len(route_lv)
        route_lv.extend(path_lv)
        route_link = self._route_link
        route_delay = self._route_delay
        hop_delay = self._hop_delay
        for l, _v in path:
            route_link.append(l)
            route_delay.append(hop_delay[l])
        sl = (off, nhops)
        if (
            self._deterministic
            and len(self._slice_memo) < self._slice_memo_max
        ):
            self._slice_memo[(nid, dst)] = sl
        return sl

    # ------------------------------------------------------------------
    def run(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
        plan=None,
    ) -> SimResult:
        """Run the full warmup+measure+drain schedule at ``rate``.

        ``plan`` switches the run to closed-loop mode: injection events
        come from (and phase completions feed back into) a
        :class:`~repro.workload.driver.PhasePlan` instead of a
        pre-sampled schedule, and the loop ends when the plan's last
        phase drains.
        """
        if plan is not None and schedule is not None:
            raise ValueError("pass either a schedule or a plan, not both")
        if not self._loop_ready:
            self._init_loop_state()
        self._plan = plan
        p = self.params
        meas = p.measure_cycles
        # absolute cycle stamps: this run covers [t0, t_end)
        t0 = self._clock
        warm = t0 + p.warmup_cycles
        meas_end = warm + meas
        t_end = meas_end + p.drain_cycles
        pkt_len = p.packet_length
        szm1 = pkt_len - 1

        if plan is not None:
            if rate <= 0:
                raise ValueError("closed-loop rate must be > 0")
            # nothing is offered open-loop: the plan injects on demand
            effective_offered = 0.0
            ev_cycles = plan.ev_cycles
            ev_nodes = plan.ev_nodes
            ev_dests = plan.ev_dests
            n_ev = plan.begin(t0)
            ip = 0
            grow = [0] * plan.total_events
        else:
            probs = self._checked_probs(rate)
            # bit-identical to the reference core's
            # float(np.array(...).sum())
            effective_offered = (
                float(np.array(probs, dtype=np.float64).sum())
                * pkt_len
                / self._active_chips
                if self._active_chips
                else 0.0
            )

            if schedule is None:
                schedule = build_injection_schedule(
                    self._active_nodes,
                    probs,
                    p.warmup_cycles + meas,
                    self._np_rng,
                )
            # schedule cycles are run-local; shift them onto the clock
            ev_cycles = (
                [c + t0 for c in schedule.cycles]
                if t0
                else schedule.cycles
            )
            ev_nodes = schedule.nodes
            ev_dests = None
            n_ev = len(ev_cycles)
            ip = 0

            # Preallocate packet arrays: one slot per scheduled packet
            # start (extending, so packet ids stay valid across
            # repeated run()s).
            grow = [0] * n_ev
        p_off = self._p_off
        p_off.extend(grow)
        p_hops = self._p_hops
        p_hops.extend(grow)
        p_t0 = self._p_t0
        p_t0.extend(grow)
        p_meas = self._p_meas
        p_meas.extend(grow)
        npk = self._num_packets

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
        lv_dst = self._lv_dst
        cap_lv = self._cap_lv
        cdel_lv = self._credit_delay_lv
        cap = self._cap
        inj_w = p.injection_width
        ej_w = p.ejection_width

        route_lv = self._route_lv
        route_link = self._route_link
        route_delay = self._route_delay
        route_slice = self._route_slice
        dest = self.traffic.dest
        py_rng = self._py_rng
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
        p_src = self._p_src
        p_dst = self._p_dst
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
                base = p_off[pid] + nh
                hd_key[lv] = route_link[base]
                nlv = route_lv[base]
                hd_nlv[lv] = nlv
                hd_delay[lv] = route_delay[base]
                hd_need[lv] = -1 if fidx == 0 else pid
                hd_post[lv] = -1 if fidx == szm1 else pid
                hd_ev[lv] = ((f + 1) << _EV_SHIFT) | nlv

        def set_src_head(r: int, pid: int) -> None:
            """Refresh router ``r``'s source-queue head cache."""
            base = p_off[pid]
            nlv = route_lv[base]
            s_pid[r] = pid
            s_key[r] = route_link[base]
            s_nlv[r] = nlv
            s_delay[r] = route_delay[base]
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
            # the reference core never injects past the measurement
            # window; enforce the same gate for pinned schedules whose
            # horizon exceeds it
            if ip < n_ev and t >= meas_end:
                ip = n_ev
            while ip < n_ev and ev_cycles[ip] <= t:
                nid = ev_nodes[ip]
                if plan_done is not None:
                    # closed-loop: destination was planned at release;
                    # no drop branch, so pid == event index (the plan's
                    # phase lookup key)
                    dst = ev_dests[ip]
                    ip += 1
                else:
                    ip += 1
                    dst = dest(nid, py_rng)
                    if dst is None or dst == nid:
                        continue
                off, nhops = route_slice(nid, dst)
                pid = npk
                npk += 1
                p_off[pid] = off
                p_hops[pid] = nhops
                p_t0[pid] = t
                p_meas[pid] = in_window
                if probing:
                    p_src.append(nid)
                    p_dst.append(dst)
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
        self._num_packets = npk
        self._packets_measured = pm
        self._flits_ejected_window = few
        self.total_flits_injected = tfi
        self.total_flits_ejected = tfe

        return SimResult.from_samples(
            offered_rate=rate,
            effective_offered=effective_offered,
            latencies=latencies,
            hops=hops_out,
            packets_measured=pm,
            flits_ejected=few,
            active_chips=self._active_chips,
            # closed-loop: the window is the measured makespan, so
            # accepted_rate reports achieved collective bandwidth
            measure_cycles=plan.elapsed() if plan is not None else meas,
        )

    # ------------------------------------------------------------------
    def flits_in_flight(self) -> int:
        """Flits currently buffered or on wires (conservation checks)."""
        if not self._loop_ready:
            return 0
        buffered = sum(len(b) for b in self._buf)
        flying = sum(len(slot) for slot in self._arrivals)
        return buffered + flying
