"""Compiled kernel for the struct-of-arrays simulator core.

The pure-Python :class:`~repro.network.simcore.ArrayCore` already lays
every piece of hot state out as flat integer arrays — which makes the
inner loop mechanically portable to C.  This module compiles
``_simcore.c`` on demand (plain ``cc -O2 -shared -fPIC``; no Python
headers, no build-system dependency), loads it via :mod:`ctypes`, and
wraps it as :class:`NativeCore`.

The enabling observation is that the stdlib RNG stream is consumed
*only* by destination and route choice, in injection-schedule order —
so the whole packet table (destinations, flattened routes, creation
cycles) can be resolved in Python before the hot loop starts, and the
C kernel runs the entire warmup+measure+drain window without a single
callback.  Given the same schedule the kernel replicates the Python
cores' cycle semantics exactly, so ``NativeCore`` produces
**bit-identical** :class:`~repro.network.stats.SimResult`\\ s to
``ArrayCore`` (asserted by ``tests/network/test_core_equivalence.py``).

When no C compiler is available the loader returns ``None`` and
:class:`~repro.network.simulator.Simulator` silently falls back to the
pure-Python array core; nothing in the public API changes.  Set
``REPRO_SIM_CORE=array`` (or ``native``/``reference``) to pin a core,
and ``REPRO_NATIVE_CACHE`` to relocate the compiled-object cache.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import List, Optional

import numpy as np

from .simcore import ArrayCore, _check_hops
from .schedule import InjectionSchedule, build_injection_schedule
from .stats import SimResult
from .vecrandom import VecRandom

__all__ = [
    "NativeBatch",
    "NativeCore",
    "THREADS_ENV",
    "env_int",
    "load_native",
    "native_available",
    "resolve_threads",
]

_C_SOURCE = Path(__file__).with_name("_simcore.c")

#: environment override for batch-lane kernel threads (default: auto =
#: the CPU count; ``1`` forces serial lanes).
THREADS_ENV = "REPRO_SIM_THREADS"


def env_int(name: str, default: int, minimum: int = 1) -> int:
    """Integer environment knob ``name`` (``default`` when unset or
    empty); anything but an integer ``>= minimum`` is a
    :class:`ValueError` that names the variable."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < minimum:
        kind = "a positive" if minimum == 1 else "a non-negative"
        raise ValueError(f"{name} must be {kind} integer, got {raw!r}")
    return value


def resolve_threads(lanes: int, threads: Optional[int] = None) -> int:
    """Kernel threads for a batch of ``lanes``: explicit argument, else
    ``REPRO_SIM_THREADS``, else the CPU count — clamped to the lane
    count (extra threads would only spin on the empty work queue)."""
    if threads is None:
        threads = env_int(THREADS_ENV, os.cpu_count() or 1)
    return max(1, min(int(threads), max(1, lanes)))

_i64p = ctypes.POINTER(ctypes.c_int64)
_u8p = ctypes.POINTER(ctypes.c_uint8)


class _SimState(ctypes.Structure):
    """Mirror of ``struct S`` in ``_simcore.c`` (same field order)."""

    _fields_ = [
        ("num_nodes", ctypes.c_int64),
        ("num_links", ctypes.c_int64),
        ("num_lv", ctypes.c_int64),
        ("wheel_size", ctypes.c_int64),
        ("slot_cap", ctypes.c_int64),
        ("buf_cap", ctypes.c_int64),
        ("max_in", ctypes.c_int64),
        ("pkt_len", ctypes.c_int64),
        ("inj_w", ctypes.c_int64),
        ("ej_w", ctypes.c_int64),
        ("warm", ctypes.c_int64),
        ("meas_end", ctypes.c_int64),
        ("t_end", ctypes.c_int64),
        ("t0", ctypes.c_int64),
        ("n_ev", ctypes.c_int64),
        ("n_lat", ctypes.c_int64),
        ("tfi", ctypes.c_int64),
        ("tfe", ctypes.c_int64),
        ("pm", ctypes.c_int64),
        ("few", ctypes.c_int64),
        ("hot_n", ctypes.c_int64),
        ("error", ctypes.c_int64),
        ("cap", _i64p),
        ("lv_dst", _i64p),
        ("cap_lv", _i64p),
        ("cdel_lv", _i64p),
        ("credits", _i64p),
        ("owner", _i64p),
        ("buf", _i64p),
        ("b_head", _i64p),
        ("b_len", _i64p),
        ("ne_arr", _i64p),
        ("ne_len", _i64p),
        ("sq_arena", _i64p),
        ("sq_off", _i64p),
        ("sq_head", _i64p),
        ("sq_len", _i64p),
        ("s_fidx", _i64p),
        ("aw_f", _i64p),
        ("aw_lv", _i64p),
        ("aw_n", _i64p),
        ("cw_lv", _i64p),
        ("cw_n", _i64p),
        ("rr_link", _i64p),
        ("rr_eject", _i64p),
        ("hot_a", _i64p),
        ("hot_b", _i64p),
        ("hot_flag", _u8p),
        ("p_off", _i64p),
        ("p_hops", _i64p),
        ("p_t0", _i64p),
        ("p_meas", _i64p),
        ("route_lv", _i64p),
        ("lv_link", _i64p),
        ("lv_delay", _i64p),
        ("ev_cycle", _i64p),
        ("ev_src", _i64p),
        ("ev_pid", _i64p),
        ("lat_out", _i64p),
        ("hops_out", _i64p),
        ("pid_out", _i64p),
        ("sc_desc", _i64p),
        ("sc_key", _i64p),
        ("sc_cand", _i64p),
        ("sc_used", _i64p),
    ]


def _find_cc() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-dragonfly"


#: preferred flag set first; the plain serial build is the fallback for
#: toolchains without pthread support (sim_run_batch then loops lanes
#: serially, which is bit-identical anyway).
_FLAG_SETS = (
    ["-O3", "-shared", "-fPIC", "-pthread", "-DREPRO_HAVE_PTHREADS"],
    ["-O3", "-shared", "-fPIC"],
)


def _compile_library() -> Optional[Path]:
    """Compile ``_simcore.c`` into the cache, reusing prior builds."""
    cc = _find_cc()
    if cc is None or not _C_SOURCE.is_file():
        return None
    source = _C_SOURCE.read_bytes()
    for flags in _FLAG_SETS:
        tag = hashlib.sha256(
            source
            + " ".join(flags).encode()
            + sysconfig.get_platform().encode()
        ).hexdigest()[:16]
        cache = _cache_dir()
        out = cache / f"_simcore-{tag}.so"
        if out.is_file():
            return out
        tmp = None
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            cmd = [cc, *flags, str(_C_SOURCE), "-o", tmp]
            res = subprocess.run(
                cmd,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=120,
            )
            if res.returncode != 0:
                continue
            os.replace(tmp, out)  # atomic: concurrent builders race safely
            tmp = None
            return out
        except (OSError, subprocess.SubprocessError):
            continue
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
    return None


_LIB = None
_LIB_TRIED = False


def load_native():
    """Compile (once) and load the kernel; ``None`` if unavailable."""
    global _LIB, _LIB_TRIED
    if _LIB_TRIED:
        return _LIB
    _LIB_TRIED = True
    path = _compile_library()
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        lib.sim_run.argtypes = [ctypes.POINTER(_SimState)]
        lib.sim_run.restype = ctypes.c_int64
        lib.sim_run_batch.argtypes = [
            ctypes.POINTER(_SimState),
            ctypes.c_int64,
            ctypes.c_int64,
        ]
        lib.sim_run_batch.restype = ctypes.c_int64
        # (plane, n, src, dst, via, off, hops, lv): see
        # repro.routing.plane.RoutePlane.resolve
        lib.plane_resolve.argtypes = (
            [ctypes.c_void_p, ctypes.c_int64] + [_i64p] * 6
        )
        lib.plane_resolve.restype = ctypes.c_int64
    except OSError:
        return None
    except AttributeError:
        # a pre-batch cached build is stale; one-shot rebuilds are not
        # worth the complexity — clearing the cache dir fixes it
        return None
    _LIB = lib
    return _LIB


def native_available() -> bool:
    """True when the compiled kernel can be (or has been) loaded."""
    return load_native() is not None


def _zeros(n: int) -> np.ndarray:
    return np.zeros(max(1, int(n)), dtype=np.int64)


def _as_i64(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    return arr if arr.size else _zeros(0)


def _ptr(arr: np.ndarray):
    return arr.ctypes.data_as(_i64p)


class _LaneCtx:
    """Per-run staging between prepare, kernel call and finish.

    Holds the run's window bookkeeping plus references to every numpy
    buffer the packed ``struct S`` points into — the batch path keeps
    one of these per lane alive for the duration of the (possibly
    threaded) kernel call.
    """

    __slots__ = (
        "rate",
        "meas",
        "t0",
        "warm",
        "meas_end",
        "effective_offered",
        "np_ev_cycle",
        "np_ev_src",
        "np_ev_pid",
        "n_new",
        "lat_out",
        "hops_out",
        "pid_out",
        "keepalive",
        "st",
    )


class NativeCore(ArrayCore):
    """Array core whose hot loop runs in the compiled kernel.

    Construction, route resolution, scheduling and measurement stay in
    Python (inherited from :class:`ArrayCore`); only the per-cycle loop
    is delegated.  Results are bit-identical to the pure-Python core.

    Probing (see :mod:`repro.metrics`) needs no kernel callbacks: the
    kernel already reports every delivered measured packet's latency,
    and alongside it writes the packet id (``pid_out``) — a bulk
    counter the probe layer decodes post-run.  Source/destination are
    captured in the Python pre-pass (:meth:`_resolve_packets`).
    Raises :class:`RuntimeError` when the kernel cannot be compiled —
    callers that want a fallback should check :func:`native_available`
    first (as :class:`~repro.network.simulator.Simulator` does).
    """

    core_id = "native"

    def __init__(self, graph, routing, traffic, params) -> None:
        super().__init__(graph, routing, traffic, params)
        lib = load_native()
        if lib is None:
            raise RuntimeError(
                "native simulation core unavailable "
                "(no C compiler or compilation failed); "
                "use core='array' instead"
            )
        self._lib = lib

        #: packet-table segments kept as numpy arrays by the vectorized
        #: pre-pass (non-probed cores only — ``run_record`` reads the
        #: scalar lists).  List entries always precede part entries in
        #: pid order: the scalar pre-pass flushes parts before
        #: appending.
        self._p_parts: list = []

        num_nodes = graph.num_nodes
        num_lv = self._num_lv
        B = params.vc_buffer_size

        indeg = [0] * num_nodes
        for link in graph.links:
            indeg[link.dst] += 1
        self._max_in = max(1, max(indeg, default=0) * self.num_vcs)

        # Per-wheel-slot capacity.  Arrivals delivered in one cycle are
        # bounded by the sum of link capacities (one issuing cycle per
        # link and slot).  Credit returns fold *different* issuing
        # cycles into one slot when links have different latencies, but
        # per issuing cycle each of a link's num_vcs buffers pops at
        # most `capacity` flits, so num_vcs * sum(cap) bounds both.
        slot_cap = self.num_vcs * sum(self._cap) + num_nodes * max(
            params.ejection_width, params.injection_width
        ) + 8
        self._slot_cap = slot_cap
        W = self._wheel_size

        self._n_cap = _as_i64(self._cap)
        self._n_lv_dst = _as_i64(self._lv_dst)
        self._n_cap_lv = _as_i64(self._cap_lv)
        self._n_cdel_lv = _as_i64(self._credit_delay_lv)
        # the kernel reads a hop's link and in-flight delay off its lv,
        # so a route arena is the lv array alone
        self._n_lv_link = np.arange(num_lv, dtype=np.int64) // self.num_vcs
        self._n_lv_delay = _as_i64(self._hop_delay)[self._n_lv_link]
        self._n_credits = np.full(num_lv, B, dtype=np.int64)
        self._n_owner = np.full(num_lv, -1, dtype=np.int64)
        self._n_buf = _zeros(num_lv * B)
        self._n_b_head = _zeros(num_lv)
        self._n_b_len = _zeros(num_lv)
        self._n_ne_arr = _zeros(num_nodes * self._max_in)
        self._n_ne_len = _zeros(num_nodes)
        self._n_sq_arena = _zeros(0)
        self._n_sq_off = _zeros(num_nodes)
        self._n_sq_head = _zeros(num_nodes)
        self._n_sq_len = _zeros(num_nodes)
        self._n_s_fidx = _zeros(num_nodes)
        self._n_aw_f = _zeros(W * slot_cap)
        self._n_aw_lv = _zeros(W * slot_cap)
        self._n_aw_n = _zeros(W)
        self._n_cw_lv = _zeros(W * slot_cap)
        self._n_cw_n = _zeros(W)
        self._n_rr_link = _zeros(graph.num_links)
        self._n_rr_eject = _zeros(num_nodes)
        self._n_hot_a = _zeros(num_nodes)
        self._n_hot_b = _zeros(num_nodes)
        self._n_hot_flag = np.zeros(max(1, num_nodes), dtype=np.uint8)
        self._n_hot_n = 0
        scratch = self._max_in + 1
        self._n_sc = [_zeros(scratch) for _ in range(4)]

        #: the routing's closed-form route plane, or None: routes are
        #: then resolved pair by pair into the route table below.
        # (optional like route_flat / is_deterministic: the cores take
        # any object with route() and num_vcs, not only
        # RoutingAlgorithm subclasses)
        route_plane = getattr(routing, "route_plane", None)
        self._plane = route_plane() if route_plane is not None else None
        # Plane cores own a numpy arena: one lv array per resolve call,
        # packet offsets shifted by the hops before it.
        self._arena: list = []
        self._arena_len = 0

        # Table path only.  Numpy mirror of the (src, dst) -> (offset,
        # hops) route memo for bulk lookup: [sorted pair keys, offsets,
        # hops, memo size at build time].  A shared mutable holder so
        # batch lanes that adopt this core's route table see one mirror
        # (see :meth:`_adopt_route_table`).
        self._pair_mirror: list = [None, None, None, -1]
        # Converted int64 route arena [lv array, arena length at
        # conversion] — shared like the mirror, so a batch only
        # re-converts when new routes were appended.
        self._np_routes: list = [None, -1]

    # ------------------------------------------------------------------
    def _adopt_route_table(self, donor: "NativeCore") -> None:
        """Share ``donor``'s route arena, memo and pair mirror.

        Only valid for deterministic table-routed configurations (a
        route is a pure function of the pair, so lanes can pool
        resolutions) and only before any route was resolved on this
        core.  Lists are shared *by reference*: any lane resolving a
        new pair extends the one arena every lane's packet table
        points into.
        """
        if not (self._deterministic and donor._deterministic):
            return
        if self._route_lv or self._num_packets:
            raise RuntimeError(
                "route table adoption must happen before any route is "
                "resolved on this core"
            )
        self._slice_memo = donor._slice_memo
        self._route_lv = donor._route_lv
        self._route_link = donor._route_link
        self._route_delay = donor._route_delay
        self._pair_mirror = donor._pair_mirror
        self._np_routes = donor._np_routes

    def _pair_table(self):
        """Current numpy view of the route memo (rebuilt when stale)."""
        memo = self._slice_memo
        mirror = self._pair_mirror
        if mirror[3] != len(memo):
            nn = self.graph.num_nodes
            n = len(memo)
            keys = np.fromiter(
                (s * nn + d for s, d in memo.keys()),
                dtype=np.int64,
                count=n,
            )
            offs = np.fromiter(
                (v[0] for v in memo.values()), dtype=np.int64, count=n
            )
            hops = np.fromiter(
                (v[1] for v in memo.values()), dtype=np.int64, count=n
            )
            order = np.argsort(keys)
            mirror[0] = keys[order]
            mirror[1] = offs[order]
            mirror[2] = hops[order]
            mirror[3] = n
        return mirror

    def _plane_slices(self, srcs, dsts, via=None):
        """``(offsets, hops)`` of the pairs' routes, resolved through
        the routing's plane and appended to this core's arena."""
        routes = self._plane.resolve(srcs, dsts, via)
        if routes.hops.size:
            _check_hops(int(routes.hops.max()))
        base = self._arena_len
        self._arena.append(routes.lv)
        self._arena_len = base + routes.lv.size
        if self._probe_mode:
            # run_record reads the scalar arena
            self._route_lv.extend(routes.lv.tolist())
        return routes.off + base, routes.hops

    def _route_slices_bulk(self, srcs: np.ndarray, dsts: np.ndarray):
        """Vectorized ``_route_slice`` over aligned pair arrays.

        With a route plane that is one closed-form call.  Otherwise
        missing pairs are resolved through the scalar single point of
        truth (appending to the shared arena and memo), then looked up
        via the sorted mirror; returns ``None`` when the memo cap keeps
        pairs out of the mirror — callers fall back to the scalar
        pre-pass.
        """
        if self._plane is not None:
            return self._plane_slices(srcs, dsts)
        nn = self.graph.num_nodes
        keys = srcs * nn + dsts
        # probe the mirror first: on a warmed route table every pair
        # hits, and the np.unique pass only runs for actual misses
        pos, miss = self._mirror_find(keys)
        if miss.any():
            route_slice = self._route_slice
            for k in np.unique(keys[miss]).tolist():
                route_slice(int(k // nn), int(k % nn))
            pos, miss = self._mirror_find(keys)
            if miss.any():
                return None  # memo cap hit: pairs resolved but unmirrored
        return self._pair_mirror[1][pos], self._pair_mirror[2][pos]

    def _mirror_find(self, keys: np.ndarray):
        """Positions of the pair keys in the sorted mirror, and the
        mask of keys it lacks."""
        tk = self._pair_table()[0]
        if not tk.size:
            return None, np.ones(keys.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(tk, keys), tk.size - 1)
        return pos, tk[pos] != keys

    # ------------------------------------------------------------------
    def _resolve_packets_vec(
        self, schedule: InjectionSchedule, t0, horizon
    ):
        """Vectorized twin of :meth:`_resolve_packets`.

        Destinations come from the traffic pattern's ``dest_batch``
        hook over a :class:`VecRandom` replica of the stdlib stream,
        routes from the bulk memo mirror — both bit-exact with the
        scalar pre-pass.  Returns ``None`` to decline (routing that
        draws from the RNG, no/declining hook, un-mirrorable memo);
        nothing is consumed from the RNG in that case, so the scalar
        path can take over from the exact same state.
        """
        if not self._deterministic:
            return None
        dest_batch = getattr(self.traffic, "dest_batch", None)
        if dest_batch is None:
            return None
        vr = VecRandom.for_rng(self._py_rng)
        if vr is None:
            return None
        cycles = schedule.np_cycles
        nodes = schedule.np_nodes
        n_ev = int(np.searchsorted(cycles, horizon, side="left"))
        cycles = cycles[:n_ev]
        nodes = nodes[:n_ev]
        if n_ev == 0:
            return [], [], []
        dsts = dest_batch(nodes, vr)
        if dsts is None:
            return None
        keep = (dsts >= 0) & (dsts != nodes)
        k_src = nodes[keep]
        k_dst = dsts[keep]
        k_t = cycles[keep] + t0
        if k_src.size:
            bulk = self._route_slices_bulk(k_src, k_dst)
            if bulk is None:
                return None  # pre-commit: the RNG was never advanced
            off, nhops = bulk
        else:
            off = nhops = np.empty(0, dtype=np.int64)
        vr.commit()
        warm = t0 + self.params.warmup_cycles
        meas_end = warm + self.params.measure_cycles
        meas = ((k_t >= warm) & (k_t < meas_end)).astype(np.int64)
        pid0 = self._num_packets
        if self._probe_mode:
            # run_record reads the scalar tables; keep them canonical
            self._p_off.extend(off.tolist())
            self._p_hops.extend(nhops.tolist())
            self._p_t0.extend(k_t.tolist())
            self._p_meas.extend(meas.tolist())
            self._p_src.extend(k_src.tolist())
            self._p_dst.extend(k_dst.tolist())
        elif k_src.size:
            self._p_parts.append((off, nhops, k_t, meas))
        n_new = int(k_src.size)
        self._num_packets = pid0 + n_new
        ev_pid = np.arange(pid0, pid0 + n_new, dtype=np.int64)
        return k_t, k_src, ev_pid

    # ------------------------------------------------------------------
    def _resolve_packets(self, schedule: InjectionSchedule, t0, horizon):
        """Resolve every scheduled event into the packet table.

        Consumes the stdlib RNG exactly as the Python cores' injection
        phase does (destination draw, then route draw for packets that
        are actually created), so results stay bit-identical.  Events
        at or past the injection window (``horizon`` run-local cycles)
        are dropped *before* any RNG draw, matching the reference
        core's injection gate; stamps are absolute (``t0``-shifted).
        """
        self._flush_packet_parts()
        dest = self.traffic.dest
        py_rng = self._py_rng
        route_slice = self._route_slice
        # with a plane the loop only draws: the destination and, for a
        # routing that consults the RNG, its intermediate group (same
        # draws in the same order as route()); the collected triples
        # are resolved in one call behind the loop
        plane = self._plane
        draw_via = (
            self.routing.draw_via
            if plane is not None and not self._deterministic
            else None
        )
        dsts: List[int] = []
        vias: List[int] = []
        p_off = self._p_off
        p_hops = self._p_hops
        p_t0 = self._p_t0
        p_meas = self._p_meas
        probing = self._probe_mode
        p_src = self._p_src
        p_dst = self._p_dst

        warm = t0 + self.params.warmup_cycles
        meas_end = warm + self.params.measure_cycles
        ev_cycle: List[int] = []
        ev_src: List[int] = []
        ev_pid: List[int] = []
        npk = self._num_packets
        for t, nid in zip(schedule.cycles, schedule.nodes):
            if t >= horizon:
                break  # cycles are sorted; no RNG consumed past the gate
            t += t0
            dst = dest(nid, py_rng)
            if dst is None or dst == nid:
                continue
            if plane is None:
                off, nhops = route_slice(nid, dst)
                p_off.append(off)
                p_hops.append(nhops)
            else:
                dsts.append(dst)
                if draw_via is not None:
                    via = draw_via(nid, dst, py_rng)
                    vias.append(-1 if via is None else via)
            pid = npk
            npk += 1
            if probing:
                p_src.append(nid)
                p_dst.append(dst)
            p_t0.append(t)
            p_meas.append(1 if warm <= t < meas_end else 0)
            ev_cycle.append(t)
            ev_src.append(nid)
            ev_pid.append(pid)
        if dsts:
            off, nhops = self._plane_slices(
                _as_i64(ev_src), _as_i64(dsts),
                _as_i64(vias) if draw_via is not None else None,
            )
            p_off.extend(off.tolist())
            p_hops.extend(nhops.tolist())
        self._num_packets = npk
        return ev_cycle, ev_src, ev_pid

    def _flush_packet_parts(self) -> None:
        """Fold vectorized packet-table parts back into the scalar
        lists (before a scalar pre-pass appends behind them)."""
        for off, nhops, t, meas in self._p_parts:
            self._p_off.extend(off.tolist())
            self._p_hops.extend(nhops.tolist())
            self._p_t0.extend(t.tolist())
            self._p_meas.extend(meas.tolist())
        self._p_parts.clear()

    def _rebuild_srcq_arena(self, ev_src) -> None:
        """Re-lay the per-node source-queue slices for this run.

        Heads are rewound to slice starts; leftovers from a previous
        run (drain may not empty saturated queues) are copied over, and
        each slice gets room for this run's new events.
        """
        num_nodes = self.graph.num_nodes
        ev_src = np.asarray(ev_src, dtype=np.int64)
        sq_len = self._n_sq_len
        need = sq_len + (
            np.bincount(ev_src, minlength=num_nodes)
            if ev_src.size
            else 0
        )
        off = np.zeros(num_nodes, dtype=np.int64)
        if num_nodes > 1:
            off[1:] = np.cumsum(need[:-1])
        arena = _zeros(int(need.sum()))
        old = self._n_sq_arena
        old_off = self._n_sq_off
        old_head = self._n_sq_head
        for r in np.flatnonzero(sq_len).tolist():
            n = int(sq_len[r])
            start = int(old_off[r] + old_head[r])
            arena[int(off[r]): int(off[r]) + n] = old[start: start + n]
        self._n_sq_arena = arena
        self._n_sq_off = off
        self._n_sq_head = np.zeros(num_nodes, dtype=np.int64)

    # ------------------------------------------------------------------
    def _prepare(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
        *,
        vec: bool = False,
    ) -> "_LaneCtx":
        """Everything before the kernel call, minus the state struct:
        schedule sampling, packet pre-resolution (vectorized when
        ``vec`` and the config supports it) and the source-queue arena.
        """
        p = self.params
        probs = self._checked_probs(rate)
        meas = p.measure_cycles
        horizon = p.warmup_cycles + meas
        # absolute cycle stamps: this run covers [t0, t_end)
        t0 = self._clock
        warm = t0 + p.warmup_cycles
        meas_end = warm + meas

        effective_offered = (
            float(np.array(probs, dtype=np.float64).sum())
            * p.packet_length
            / self._active_chips
            if self._active_chips
            else 0.0
        )

        if schedule is None:
            schedule = build_injection_schedule(
                self._active_nodes, probs, horizon, self._np_rng
            )

        ev = self._resolve_packets_vec(schedule, t0, horizon) if vec else None
        if ev is None:
            ev = self._resolve_packets(schedule, t0, horizon)
        ev_cycle, ev_src, ev_pid = ev
        self._rebuild_srcq_arena(ev_src)

        ctx = _LaneCtx()
        ctx.rate = rate
        ctx.meas = meas
        ctx.t0 = t0
        ctx.warm = warm
        ctx.meas_end = meas_end
        ctx.effective_offered = effective_offered
        ctx.np_ev_cycle = _as_i64(ev_cycle)
        ctx.np_ev_src = _as_i64(ev_src)
        ctx.np_ev_pid = _as_i64(ev_pid)
        ctx.n_new = len(ev_pid)
        return ctx

    def _build_state(self, ctx: "_LaneCtx", routes=None) -> _SimState:
        """Pack the kernel's ``struct S`` for a prepared run.

        ``routes`` passes the pre-converted shared route arena (batch
        lanes convert the common arena once); every numpy buffer the
        struct points into is pinned on ``ctx`` until :meth:`_finish`.
        """
        p = self.params
        t0 = ctx.t0
        warm = ctx.warm
        meas_end = ctx.meas_end
        # sized for every latency the kernel may report this run: new
        # packets plus measured leftovers still in flight from earlier
        # runs (each delivered packet reports exactly once)
        out_cap = self._num_packets - len(self._latencies)
        lat_out = ctx.lat_out = _zeros(out_cap)
        hops_out = ctx.hops_out = _zeros(out_cap)
        pid_out = ctx.pid_out = _zeros(out_cap)
        parts = self._p_parts
        if parts and not self._p_off:
            # pure-vectorized history: the parts are already
            # contiguous int64 arrays — no list round-trip
            if len(parts) == 1:
                cols = parts[0]
            else:
                cols = tuple(
                    np.concatenate([pt[i] for pt in parts])
                    for i in range(4)
                )
            np_p_off, np_p_hops, np_p_t0, np_p_meas = (
                _as_i64(c) for c in cols
            )
        else:
            self._flush_packet_parts()
            np_p_off = _as_i64(self._p_off)
            np_p_hops = _as_i64(self._p_hops)
            np_p_t0 = _as_i64(self._p_t0)
            np_p_meas = _as_i64(self._p_meas)
        if self._plane is not None:
            if len(self._arena) > 1:  # one part per earlier run()
                self._arena = [np.concatenate(self._arena)]
            routes = self._arena[0] if self._arena else _zeros(0)
        elif routes is None:
            routes = _as_i64(self._route_lv)
        np_route_lv = routes
        np_ev_cycle = ctx.np_ev_cycle
        np_ev_src = ctx.np_ev_src
        np_ev_pid = ctx.np_ev_pid
        n_new = ctx.n_new
        ctx.keepalive = (
            np_p_off, np_p_hops, np_p_t0, np_p_meas, np_route_lv,
        )

        st = _SimState(
            num_nodes=self.graph.num_nodes,
            num_links=self.graph.num_links,
            num_lv=self._num_lv,
            wheel_size=self._wheel_size,
            slot_cap=self._slot_cap,
            buf_cap=p.vc_buffer_size,
            max_in=self._max_in,
            pkt_len=p.packet_length,
            inj_w=p.injection_width,
            ej_w=p.ejection_width,
            warm=warm,
            meas_end=meas_end,
            t_end=meas_end + p.drain_cycles,
            t0=t0,
            n_ev=n_new,
            n_lat=0,
            tfi=self.total_flits_injected,
            tfe=self.total_flits_ejected,
            pm=self._packets_measured,
            few=self._flits_ejected_window,
            hot_n=self._n_hot_n,
            error=0,
            cap=_ptr(self._n_cap),
            lv_dst=_ptr(self._n_lv_dst),
            cap_lv=_ptr(self._n_cap_lv),
            cdel_lv=_ptr(self._n_cdel_lv),
            credits=_ptr(self._n_credits),
            owner=_ptr(self._n_owner),
            buf=_ptr(self._n_buf),
            b_head=_ptr(self._n_b_head),
            b_len=_ptr(self._n_b_len),
            ne_arr=_ptr(self._n_ne_arr),
            ne_len=_ptr(self._n_ne_len),
            sq_arena=_ptr(self._n_sq_arena),
            sq_off=_ptr(self._n_sq_off),
            sq_head=_ptr(self._n_sq_head),
            sq_len=_ptr(self._n_sq_len),
            s_fidx=_ptr(self._n_s_fidx),
            aw_f=_ptr(self._n_aw_f),
            aw_lv=_ptr(self._n_aw_lv),
            aw_n=_ptr(self._n_aw_n),
            cw_lv=_ptr(self._n_cw_lv),
            cw_n=_ptr(self._n_cw_n),
            rr_link=_ptr(self._n_rr_link),
            rr_eject=_ptr(self._n_rr_eject),
            hot_a=_ptr(self._n_hot_a),
            hot_b=_ptr(self._n_hot_b),
            hot_flag=self._n_hot_flag.ctypes.data_as(_u8p),
            p_off=_ptr(np_p_off),
            p_hops=_ptr(np_p_hops),
            p_t0=_ptr(np_p_t0),
            p_meas=_ptr(np_p_meas),
            route_lv=_ptr(np_route_lv),
            lv_link=_ptr(self._n_lv_link),
            lv_delay=_ptr(self._n_lv_delay),
            ev_cycle=_ptr(np_ev_cycle),
            ev_src=_ptr(np_ev_src),
            ev_pid=_ptr(np_ev_pid),
            lat_out=_ptr(lat_out),
            hops_out=_ptr(hops_out),
            pid_out=_ptr(pid_out),
            sc_desc=_ptr(self._n_sc[0]),
            sc_key=_ptr(self._n_sc[1]),
            sc_cand=_ptr(self._n_sc[2]),
            sc_used=_ptr(self._n_sc[3]),
        )
        ctx.st = st
        return st

    def _finish(self, ctx: "_LaneCtx", st: _SimState) -> SimResult:
        """Read the kernel's outputs back and build the result.

        ``st`` is the struct the kernel actually ran (for batches, the
        lane's slot in the packed array — not the ``ctx.st`` template
        it was copied from).
        """
        p = self.params
        self._n_hot_n = int(st.hot_n)
        self._clock = ctx.meas_end + p.drain_cycles
        self.total_flits_injected = int(st.tfi)
        self.total_flits_ejected = int(st.tfe)
        self._packets_measured = int(st.pm)
        self._flits_ejected_window = int(st.few)
        n_lat = int(st.n_lat)
        self._latencies.extend(ctx.lat_out[:n_lat].tolist())
        self._hops.extend(ctx.hops_out[:n_lat].tolist())
        if self._probe_mode:
            self._eject_pid.extend(ctx.pid_out[:n_lat].tolist())

        return SimResult.from_samples(
            offered_rate=ctx.rate,
            effective_offered=ctx.effective_offered,
            latencies=self._latencies,
            hops=self._hops,
            packets_measured=self._packets_measured,
            flits_ejected=self._flits_ejected_window,
            active_chips=self._active_chips,
            measure_cycles=ctx.meas,
        )

    def run(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
        plan=None,
    ) -> SimResult:
        """Run the full warmup+measure+drain schedule at ``rate``."""
        if plan is not None:
            # The C kernel has no per-cycle callback surface for the
            # closed-loop feedback, so decline and fall back to the
            # array core's Python loop (same decline idiom as
            # ``dest_batch = None``).  Results stay bit-identical to a
            # plain ArrayCore run of the same plan.
            return ArrayCore.run(self, rate, schedule=schedule, plan=plan)
        ctx = self._prepare(rate, schedule)
        st = self._build_state(ctx)
        err = self._lib.sim_run(ctypes.byref(st))
        if err:
            raise RuntimeError(
                f"native simulation kernel failed (error code {err})"
            )
        return self._finish(ctx, st)

    # ------------------------------------------------------------------
    def flits_in_flight(self) -> int:
        """Flits currently buffered or on wires (conservation checks)."""
        return int(self._n_b_len.sum()) + int(self._n_aw_n.sum())


class NativeBatch:
    """N replica lanes of one configuration, run as one kernel call.

    Each lane is an isolated :class:`NativeCore` (own seed-derived RNG
    streams, flit/VC/credit/latency state).  Routes come from the
    routing's closed-form plane when it offers one
    (:meth:`~repro.routing.base.RoutingAlgorithm.route_plane`): every
    lane then resolves its own packets in one call and nothing is
    shared or kept.  Table-routed deterministic configurations instead
    *share* one route table: every lane adopts the first lane's route
    arena, (src, dst) memo and sorted pair mirror, so each route slice
    is resolved once per batch instead of once per lane.  Packet
    pre-resolution uses the vectorized pre-pass when the traffic
    pattern offers ``dest_batch`` (falling back to the scalar resolve
    per lane otherwise), the per-lane ``struct S`` states are packed
    into one contiguous ctypes array, and a single ``sim_run_batch``
    call walks the lanes — threaded over :func:`resolve_threads`
    workers pulling lanes from an atomic cursor, which is bit-identical
    to the serial loop because lanes share no mutable state.

    A batch is **one-shot**: lanes accumulate measurement state, so
    ``run()`` raises on reuse.  Build a fresh batch per lane set (as
    :func:`repro.network.simulator.run_batch` does).  To
    amortise table-routed resolution *across* batches of the same
    configuration, pass a previous batch's :attr:`route_donor` as
    ``route_donor`` — the new lanes adopt its already-resolved route
    table instead of starting from an empty memo (the arena is
    append-only, so a stale donor is never wrong, just partial).  With
    a route plane there is nothing to donate: ``route_donor`` is
    accepted and ignored, and :attr:`route_donor` stays ``None``.
    """

    def __init__(
        self,
        graph,
        routing,
        traffic,
        params,
        seeds,
        *,
        probes: bool = False,
        route_donor: Optional[NativeCore] = None,
    ) -> None:
        self.lanes: List[NativeCore] = []
        donor: Optional[NativeCore] = None
        if (
            route_donor is not None
            and route_donor.graph is graph
            and route_donor.routing is routing
            and route_donor._deterministic
        ):
            donor = route_donor
        for seed in seeds:
            core = NativeCore(
                graph, routing, traffic, params.scaled(seed=int(seed))
            )
            if probes:
                core.enable_probes()
            if core._plane is None:
                if donor is None:
                    donor = core
                else:
                    core._adopt_route_table(donor)
            self.lanes.append(core)
        self._shared_routes = (
            donor is not None
            and donor._deterministic
            and all(
                core._route_lv is donor._route_lv for core in self.lanes
            )
        )
        #: lane whose route table a follow-up batch of the same
        #: (graph, routing) can adopt via the ``route_donor`` argument
        #: (``None`` with a route plane or a randomised routing).
        self.route_donor: Optional[NativeCore] = (
            self.lanes[0] if self._shared_routes else None
        )
        self._ran = False

    def __len__(self) -> int:
        return len(self.lanes)

    def run(
        self,
        rates,
        schedules=None,
        *,
        threads: Optional[int] = None,
    ) -> List[SimResult]:
        """Run lane ``i`` at ``rates[i]`` (optionally pinning
        ``schedules[i]``); returns per-lane results in lane order."""
        if self._ran:
            raise RuntimeError(
                "NativeBatch is one-shot: lanes accumulate measurement "
                "state — build a fresh batch per lane set"
            )
        self._ran = True
        n = len(self.lanes)
        if len(rates) != n:
            raise ValueError(
                f"{len(rates)} rates for {n} lanes"
            )
        if schedules is not None and len(schedules) != n:
            raise ValueError(
                f"{len(schedules)} schedules for {n} lanes"
            )
        if n == 0:
            return []
        ctxs = [
            core._prepare(
                rates[i],
                schedules[i] if schedules is not None else None,
                vec=True,
            )
            for i, core in enumerate(self.lanes)
        ]
        # all lanes resolved: the shared arena is final, convert once
        # (and keep the conversion on the shared plane so a follow-up
        # batch adopting it re-converts only if routes were appended)
        routes = None
        if self._shared_routes:
            donor = self.lanes[0]
            cached = donor._np_routes
            if cached[1] != len(donor._route_lv):
                cached[0] = _as_i64(donor._route_lv)
                cached[1] = len(donor._route_lv)
            routes = cached[0]
        states = (_SimState * n)()
        for i, (core, ctx) in enumerate(zip(self.lanes, ctxs)):
            states[i] = core._build_state(ctx, routes)
        lib = self.lanes[0]._lib
        err = lib.sim_run_batch(states, n, resolve_threads(n, threads))
        if err:
            codes = [int(states[i].error) for i in range(n)]
            raise RuntimeError(
                "native batch kernel failed "
                f"(first error {err}; per-lane codes {codes})"
            )
        return [
            core._finish(ctx, states[i])
            for i, (core, ctx) in enumerate(zip(self.lanes, ctxs))
        ]
