"""Compiled kernel for the struct-of-arrays simulator loop.

The kernel lays every piece of hot router state out as flat integer
arrays (packed-int flits, integer VC ownership, per-(link, VC) rings
and an event wheel).  This module compiles ``_simcore.c`` on demand
(plain ``cc -O1 -shared -fPIC``; no Python headers, no build-system
dependency), loads it via :mod:`ctypes`, and wraps it as
:class:`NativeCore`.  The compile is part of every cold process's
start-up, so it is kept short two ways:

- ``-O1`` rather than ``-O3``: the kernel's thread-CPU per study stays
  within 2% of the ``-O3`` build on a 2-vCPU AMD EPYC, and the compile
  is ~0.1 s shorter.  On a 2-vCPU Intel Xeon ``-O2`` and ``-O3`` are
  flat too (±5%), while ``-Og`` compiles in 0.22 s instead of 0.33 s
  but runs the kernel ~10% slower.
- The toolchain only ever writes files that do not exist yet: each
  build runs in a fresh private directory with ``-save-temps=obj``, so
  the ``.i``/``.s``/``.o`` intermediates and the ``.so`` are all new
  names.  A one-step ``cc ... -o tmp.so`` instead makes its temp names
  with ``mkstemp`` and cc1/as reopen them with truncation, which on
  ext4 (``auto_da_alloc``) forces a flush to disk at every close.

Median of five builds, gcc 12.2 on a 2-vCPU AMD EPYC (ext4): ``-O1``
0.34 s one-step vs 0.20 s with new files only; ``-O3`` 0.43 vs 0.31 s.
The built ``.so`` is byte-identical either way.

What did not make the kernel faster, each bit-identical and flat
within ±5% on that Xeon: a per-flit next-hop ring, a packed per-(link,
VC) record, modulo-free ring and wheel wraps, a ``MADV_HUGEPAGE`` arena
for rings and wheels, rewinding an emptied ring's head, and ``-O2`` or
``-O3`` builds.  Line-level PC sampling spreads kernel time over
collect (~24%), forward (~21%), arrivals (~12%) and grouping and
round-robin (~17%); only ~1% of arbitration visits grant nothing.  No
one loop dominates, so the next lever is doing less per packet —
routes computed from labels in the kernel instead of read from a
stored arena — not tuning this loop.

Packets arrive pre-resolved from the shared front end
(:mod:`repro.network.corebase`: destinations and routes are drawn
before the loop on every core), so the C kernel runs an entire window
without a single callback — open-loop, where the packets' creation
cycles are pre-drawn too, and closed-loop, where a
:class:`~repro.workload.driver.PhasePlan`'s flat arrays are handed to
the kernel's plan mode and phase release is integer dependency
counters inside it.  It replicates the reference loop's cycle
semantics exactly: ``NativeCore`` returns **bit-identical**
:class:`~repro.network.stats.SimResult`\\ s to the reference core
(asserted by ``tests/network/test_core_equivalence.py`` and
``tests/workload/test_closed_loop_identity.py``).

When no C compiler is available the loader returns ``None`` and
:class:`~repro.network.simulator.Simulator` falls back to the
pure-Python reference core by default; nothing in the public API
changes.  Set ``REPRO_SIM_CORE=native`` or ``reference`` to pin a core,
and ``REPRO_NATIVE_CACHE`` to relocate the compiled-object cache.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import shutil
import sysconfig
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .corebase import CoreBase, RunCtx, _as_i64, _zeros
from .schedule import InjectionSchedule
from .stats import SimResult, cutoff_walk

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

_log = logging.getLogger(__name__)

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


class _LayoutRow(ctypes.Structure):
    """A row of the kernel's ``sim_layout()`` table: a field of one of
    its structs, or (``name`` NULL) the struct's size.  The one struct
    Python spells out; the kernel's own are built from these rows."""

    _fields_ = [
        ("owner", ctypes.c_char_p),
        ("name", ctypes.c_char_p),
        ("type", ctypes.c_char_p),
        ("offset", ctypes.c_int64),
        ("size", ctypes.c_int64),
    ]


#: numpy dtype of the arrays a pointer field takes, by element type
_DTYPES = {
    ctypes.c_int64: np.dtype(np.int64),
    ctypes.c_uint8: np.dtype(np.uint8),
}

#: ctypes type of each field type the layout names, as written in C; a
#: pointer to one of the kernel's structs joins once that one is built
_CTYPES = {
    "i64": ctypes.c_int64,
    "i64 *": _i64p,
    "const i64 *": _i64p,
    "unsigned char *": ctypes.POINTER(ctypes.c_uint8),
}


def _layout_structs(lib) -> Dict[str, type]:
    """The ctypes class of every struct in ``lib``'s ``sim_layout()``
    table, by C name.  A :class:`RuntimeError` naming the struct and
    field says when a field's type has no ctypes twin or the fields do
    not tile their struct: a gap, an overlap or a missing tail."""
    lib.sim_layout.restype = ctypes.POINTER(_LayoutRow)
    rows = lib.sim_layout()
    tables: Dict[str, list] = {}  # its size row, then its field rows
    i = 0
    while rows[i].owner is not None:
        tables.setdefault(rows[i].owner.decode(), []).append(rows[i])
        i += 1
    types = dict(_CTYPES)
    structs: Dict[str, type] = {}
    for owner, (head, *body) in tables.items():
        spec, end = [], 0
        for row in body:
            name, ctype = row.name.decode(), types.get(row.type.decode())
            if ctype is None:
                raise RuntimeError(
                    f"kernel struct {owner}, field {name}: no ctypes type "
                    f"for {row.type.decode()!r}"
                )
            size = ctypes.sizeof(ctype)
            if (row.offset, row.size) != (end, size):
                raise RuntimeError(
                    f"kernel struct {owner}, field {name}: {row.size} bytes "
                    f"at offset {row.offset}, expected {size} at {end}"
                )
            spec.append((name, ctype))
            end += size
        if end != head.size:
            raise RuntimeError(
                f"kernel struct {owner}: its fields end at byte {end} "
                f"of {head.size}"
            )
        structs[owner] = type(owner, (ctypes.Structure,), {"_fields_": spec})
        types[f"{owner} *"] = ctypes.POINTER(structs[owner])
    return structs


def kernel_struct(name: str, **fields):
    """The kernel's ``struct name`` with every field set from ``fields``.

    The names must be exactly the struct's fields: one it lacks or one
    left out is a :class:`TypeError` naming it, so a ``NULL`` is an
    explicit ``None``.  A pointer field takes a C-contiguous numpy array
    of its element type (or a ctypes pointer).  The struct keeps what it
    points into alive; a copy of it does not.
    """
    lib = load_native()
    if lib is None:
        raise RuntimeError(f"struct {name} needs the compiled kernel")
    cls = lib.structs[name]
    names = {field for field, _ in cls._fields_}
    if fields.keys() != names:
        problems = [f"no field {f}" for f in sorted(fields.keys() - names)]
        problems += [f"{f} left unset" for f in sorted(names - fields.keys())]
        raise TypeError(f"struct {name}: " + "; ".join(problems))
    st = cls()
    st.keepalive = fields
    for field, ctype in cls._fields_:
        value = fields[field]
        if isinstance(value, np.ndarray):
            want = _DTYPES.get(ctype._type_)
            if value.dtype != want or not value.flags.c_contiguous:
                raise TypeError(
                    f"struct {name}: field {field} takes a contiguous "
                    f"{want} array, not {value.dtype}"
                )
            value = value.ctypes.data_as(ctype)
        setattr(st, field, value)
    return st


def _find_cc() -> Optional[List[str]]:
    """The compiler's argv prefix: ``CC`` split like a shell word list
    (``CC="ccache gcc"`` keeps its arguments), else the first of
    ``cc``/``gcc``/``clang`` on ``PATH``."""
    env = os.environ.get("CC", "")
    try:
        argv = shlex.split(env)
    except ValueError:  # unbalanced quotes
        argv = []
    if argv and shutil.which(argv[0]):
        return argv
    if env.strip():
        _log.warning(
            "CC=%r names no program on PATH; trying cc, gcc, clang", env
        )
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return [cand]
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
#: serially, which is bit-identical anyway).  ``-O1``: see the module
#: doc.  The cache tag hashes the flags, so changing them rebuilds once.
_FLAG_SETS = (
    ["-O1", "-shared", "-fPIC", "-pthread", "-DREPRO_HAVE_PTHREADS"],
    ["-O1", "-shared", "-fPIC"],
)


def _build(cc: List[str], flags: List[str], out: Path) -> None:
    """Compile ``_simcore.c`` with ``cc + flags`` and move it to ``out``.

    The compile runs in a fresh directory beside ``out`` (same file
    system, so the final ``os.replace`` is atomic and concurrent
    builders race safely), and ``-save-temps=obj`` names every
    intermediate after the new ``k.so`` there: no file the toolchain
    writes exists before it opens it (see the module doc).  A failure
    raises :class:`RuntimeError` naming the command and the tail of its
    stderr; nothing of the attempt is left behind.
    """
    import subprocess  # only a build runs one

    out.parent.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(dir=out.parent)
    cmd = [*cc, *flags, "-save-temps=obj", str(_C_SOURCE), "-o", "k.so"]
    try:
        try:
            res = subprocess.run(
                cmd,
                cwd=work,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=120,
            )
            err = res.stderr.decode(errors="replace")
            failed = res.returncode != 0
        except (OSError, subprocess.SubprocessError) as exc:
            err, failed = str(exc), True
        if failed:
            tail = "\n".join(err.strip().splitlines()[-20:])
            raise RuntimeError(f"{shlex.join(cmd)} failed:\n{tail}")
        os.replace(os.path.join(work, "k.so"), out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _compile_library() -> Optional[Path]:
    """Compile ``_simcore.c`` into the cache, reusing prior builds.

    When every flag set fails it logs one warning with the last
    failure: the caller then falls back to the much slower reference
    core.
    """
    cc = _find_cc()
    if cc is None or not _C_SOURCE.is_file():
        return None
    source = _C_SOURCE.read_bytes()
    cache = _cache_dir()
    outs = [
        cache / "_simcore-{}.so".format(
            hashlib.sha256(
                source
                + " ".join(flags).encode()
                + sysconfig.get_platform().encode()
            ).hexdigest()[:16]
        )
        for flags in _FLAG_SETS
    ]
    # any cached set first: a toolchain that failed the preferred set
    # must not rerun that failing compile in every new process
    for out in outs:
        if out.is_file():
            return out
    failure = None
    for flags, out in zip(_FLAG_SETS, outs):
        try:
            _build(cc, flags, out)
            return out
        except (OSError, RuntimeError) as exc:
            failure = exc
    _log.warning(
        "native kernel build failed, using the reference core: %s",
        failure,
    )
    return None


_LIB = None
_LIB_TRIED = False

#: what Python calls in the kernel
_SYMBOLS = ("sim_layout", "sim_run", "sim_run_batch", "plane_resolve",
            "draw_pass")


def load_native():
    """Compile (once) and load the kernel; ``None`` if unavailable.
    A malformed layout table raises: that is a defect of ``_simcore.c``,
    not of the host."""
    global _LIB, _LIB_TRIED
    if not _LIB_TRIED:
        _LIB = _load(_compile_library())
        _LIB_TRIED = True
    return _LIB


def _load(path: Optional[Path]):
    """The kernel at ``path`` with its structs and signatures set up;
    ``None`` (with a warning saying why) when it cannot be used."""
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        _log.warning("cannot load the native kernel %s: %s", path, exc)
        return None
    missing = [sym for sym in _SYMBOLS if not hasattr(lib, sym)]
    if missing:
        # a stale cached build: deleting it rebuilds
        _log.warning(
            "native kernel %s lacks %s; using the reference core",
            path, ", ".join(missing),
        )
        return None
    #: the kernel's structs by C name, built from its layout
    lib.structs = _layout_structs(lib)
    state_p = ctypes.POINTER(lib.structs["S"])
    lib.sim_run.argtypes = [state_p]
    lib.sim_run.restype = ctypes.c_int64
    lib.sim_run_batch.argtypes = [state_p, ctypes.c_int64, ctypes.c_int64]
    lib.sim_run_batch.restype = ctypes.c_int64
    # (plane, n, src, dst, via, off, hops, lv): see
    # repro.routing.plane.RoutePlane.resolve
    lib.plane_resolve.argtypes = (
        [ctypes.c_void_p, ctypes.c_int64] + [_i64p] * 6
    )
    lib.plane_resolve.restype = ctypes.c_int64
    # (state, dest, via, n, src, dst, via_out): see
    # repro.network.vecrandom.VecRandom.draw
    lib.draw_pass.argtypes = [
        ctypes.POINTER(ctypes.c_uint32), ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_int64, _i64p, _i64p, _i64p,
    ]
    lib.draw_pass.restype = ctypes.c_int64
    return lib


def native_available() -> bool:
    """True when the compiled kernel can be (or has been) loaded."""
    return load_native() is not None


def _unset(n: int) -> np.ndarray:
    """Like ``_zeros`` but uninitialised: for buffers read only below
    a count that starts at zero."""
    return np.empty(max(1, int(n)), dtype=np.int64)


#: the fields of ``struct S`` that hold a lane's kernel state, each in
#: the array attribute ``_n_<field>``: the flit rings and wheel slots,
#: then the state per ``(link, VC)``, per node and per wheel slot
_KERNEL_STATE = (
    "buf", "aw_f", "aw_lv", "cw_lv", "credits", "owner", "b_head", "b_len",
    "ne_arr", "ne_len", "sq_arena", "sq_off", "sq_head", "sq_len", "s_fidx",
    "aw_n", "cw_n", "rr_link", "rr_eject", "hot_a", "hot_b", "hot_flag",
    "sc_desc", "sc_key", "sc_cand", "sc_used",
)


class NativeCore(CoreBase):
    """Simulator core whose per-cycle loop runs in the compiled kernel.

    Construction, the packet front end and measurement are the shared
    :class:`~repro.network.corebase.CoreBase`; this class packs the
    pre-resolved packet table and the router state into the kernel's
    ``struct S`` and reads the counters back.  Results are
    bit-identical to the reference core.

    Probing (see :mod:`repro.metrics`) needs no kernel callbacks: the
    kernel already reports every delivered measured packet's latency,
    and alongside it writes the packet id (``pid_out``, probed runs
    only) — a bulk counter the probe layer decodes post-run.  Neither
    does a closed-loop plan: the struct points at the plan's own
    arrays, the kernel counts its phases down and stamps their cycles
    in place.
    Raises :class:`RuntimeError` when the kernel cannot be compiled —
    callers that want a fallback should check :func:`native_available`
    first (as :func:`~repro.network.simulator.resolve_core` does).
    """

    core_id = "native"
    packed_flits = True
    compiled_front_end = True

    def __init__(self, graph, routing, traffic, params) -> None:
        super().__init__(graph, routing, traffic, params)
        lib = load_native()
        if lib is None:
            raise RuntimeError(
                "native simulation core unavailable "
                "(no C compiler or compilation failed); leave core= and "
                "REPRO_SIM_CORE unset and resolve_core() falls back to "
                "the reference core"
            )
        self._lib = lib
        # what the kernel reports per ejected packet, kept as arrays
        self._latencies = self._hops = self._eject_pid = np.empty(
            0, dtype=np.int64
        )

        # Per-wheel-slot capacity.  Arrivals delivered in one cycle are
        # bounded by the sum of link capacities (one issuing cycle per
        # link and slot).  Credit returns fold *different* issuing
        # cycles into one slot when links have different latencies, but
        # per issuing cycle each of a link's num_vcs buffers pops at
        # most `capacity` flits, so num_vcs * sum(cap) bounds both.
        links = self._links
        slot_cap = self.num_vcs * int(links.cap.sum()) + graph.num_nodes * max(
            params.ejection_width, params.injection_width
        ) + 8
        self._slot_cap = slot_cap
        # the kernel state lives from the first _build_state to
        # _release: a lane a cutoff never runs holds none of it
        self._drop_state()
        self._n_hot_n = 0
        #: flits a released lane left in flight
        self._n_left = 0

    def _alloc_state(self) -> None:
        """Allocate the kernel state a run starts from (all idle)."""
        num_nodes = self.graph.num_nodes
        num_lv = self._num_lv
        links = self._links
        W = self._wheel_size
        self._n_credits = np.full(
            num_lv, self.params.vc_buffer_size, dtype=np.int64
        )
        self._n_owner = np.full(num_lv, -1, dtype=np.int64)
        self._n_b_head = _zeros(num_lv)
        self._n_b_len = _zeros(num_lv)
        self._n_ne_arr = _zeros(num_nodes * links.max_in)
        self._n_ne_len = _zeros(num_nodes)
        self._n_sq_arena = _zeros(0)
        self._n_sq_off = _zeros(num_nodes)
        self._n_sq_head = _zeros(num_nodes)
        self._n_sq_len = _zeros(num_nodes)
        self._n_s_fidx = _zeros(num_nodes)
        self._n_aw_n = _zeros(W)
        self._n_cw_n = _zeros(W)
        self._n_rr_link = _zeros(self.graph.num_links)
        self._n_rr_eject = _zeros(num_nodes)
        self._n_hot_a = _zeros(num_nodes)
        self._n_hot_b = _zeros(num_nodes)
        self._n_hot_flag = np.zeros(max(1, num_nodes), dtype=np.uint8)
        for name in ("sc_desc", "sc_key", "sc_cand", "sc_used"):
            setattr(self, "_n_" + name, _zeros(links.max_in + 1))

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
    def _build_state(self, ctx: RunCtx):
        """Pack the kernel's ``struct S`` for a prepared run; the
        kernel's outputs stay on ``ctx`` for :meth:`_finish`."""
        p = self.params
        links = self._links
        packets = self._packets
        plan = self._plan
        pid0 = ctx.pid0
        n_new = ctx.n_new
        if self._n_credits is None:
            self._alloc_state()
        if self._n_buf is None:
            # The flit rings and the wheel slots are nine tenths of a
            # lane's state, sized for the worst case and mostly never
            # touched.  The kernel reads a ring entry or a slot entry
            # only below its count (b_len, aw_n, cw_n) and writes it
            # before it counts it, so they need no zeroing — and must
            # not get it: zeroed memory is only free while the
            # allocator hands out fresh pages, and once a freed batch's
            # heap is recycled calloc clears every page of them
            # (measured: +14 MB peak RSS on a five-lane Valiant sweep).
            slots = self._wheel_size * self._slot_cap
            self._n_buf = _unset(self._num_lv * p.vc_buffer_size)
            self._n_aw_f, self._n_aw_lv, self._n_cw_lv = (
                _unset(slots) for _ in range(3)
            )
        self._rebuild_srcq_arena(packets.src[pid0:])
        # sized for every latency the kernel may report this run: new
        # packets plus measured leftovers still in flight from earlier
        # runs (each delivered packet reports exactly once)
        out_cap = len(packets) - len(self._latencies)
        lat_out = ctx.lat_out = _zeros(out_cap)
        hops_out = ctx.hops_out = _zeros(out_cap)
        # only the probe layer reads delivered packet ids: unprobed
        # runs pass NULL and the kernel skips the write
        pid_out = ctx.pid_out = (
            _zeros(out_cap) if self._probe_mode else None
        )
        plan_state = None
        if plan is not None:
            plan.start(ctx.t0, pid0)
            n_ph = plan.num_phases
            cur, act, queue = (_zeros(n_ph) for _ in range(3))
            # the plan's own arrays: the kernel's counters and stamps
            # are the plan's state when it returns
            plan_state = ctypes.pointer(kernel_struct(
                "Plan",
                n_ph=n_ph,
                pid0=pid0,
                act_n=0, q_head=0, q_tail=0, done_n=0,  # zero on entry
                ev_off=plan.tpl_off,
                ev_phase=plan.tpl_phase,
                ev0=plan.ph_ev0,
                compute=plan.ph_compute,
                dep_ptr=plan.dep_ptr,
                dep_idx=plan.dep_idx,
                indeg=plan.ph_indeg,
                rem=plan.ph_rem,
                release=plan.ph_release,
                comm_start=plan.ph_comm_start,
                done=plan.ph_done,
                cur=cur, act=act, queue=queue,
            ))
        return kernel_struct(
            "S",
            num_nodes=self.graph.num_nodes,
            num_links=self.graph.num_links,
            num_lv=self._num_lv,
            wheel_size=self._wheel_size,
            slot_cap=self._slot_cap,
            buf_cap=p.vc_buffer_size,
            max_in=links.max_in,
            pkt_len=p.packet_length,
            inj_w=p.injection_width,
            ej_w=p.ejection_width,
            warm=ctx.warm,
            meas_end=ctx.meas_end,
            t_end=ctx.t_end,
            t0=ctx.t0,
            n_ev=n_new,
            n_lat=0,
            tfi=self.total_flits_injected,
            tfe=self.total_flits_ejected,
            pm=self._packets_measured,
            few=self._flits_ejected_window,
            hot_n=self._n_hot_n,
            error=0,
            cap=links.cap,
            lv_dst=links.lv_dst,
            cap_lv=links.cap_lv,
            cdel_lv=links.cdel_lv,
            p_off=_as_i64(packets.off),
            p_hops=_as_i64(packets.hops),
            # views of the table's rows, not copies: plan mode stamps a
            # packet's creation cycle and measured flag at injection
            p_t0=_as_i64(packets.t0),
            p_meas=_as_i64(packets.meas),
            # taken only now: lanes of a batch share a routing's table,
            # which grows (and may move) until the last lane is prepared
            route_lv=_as_i64(self._routes.lv),
            lv_link=links.lv_link,
            lv_delay=links.lv_delay,
            # this run's events are the packet table's new rows (a
            # plan's have no cycle yet: the kernel decides)
            ev_cycle=_as_i64(packets.t0[pid0:]),
            ev_src=_as_i64(packets.src[pid0:]),
            ev_pid=_as_i64(np.arange(pid0, pid0 + n_new, dtype=np.int64)),
            lat_out=lat_out,
            hops_out=hops_out,
            pid_out=pid_out,
            plan=plan_state,
            **{name: getattr(self, "_n_" + name) for name in _KERNEL_STATE},
        )

    def _finish(self, ctx: RunCtx, st) -> SimResult:
        """Read the kernel's outputs back and build the result.

        ``st`` is the struct the kernel actually ran (for batches, the
        lane's slot in the packed array — not the template
        :meth:`_build_state` returned, which it was copied from).
        """
        self._n_hot_n = int(st.hot_n)
        self._clock = ctx.t_end
        self.total_flits_injected = int(st.tfi)
        self.total_flits_ejected = int(st.tfe)
        self._packets_measured = int(st.pm)
        self._flits_ejected_window = int(st.few)
        n_lat = int(st.n_lat)
        # the kernel's ejection records stay arrays, copied out of the
        # run's oversized output buffers
        self._latencies = np.concatenate(
            [self._latencies, ctx.lat_out[:n_lat]]
        )
        self._hops = np.concatenate([self._hops, ctx.hops_out[:n_lat]])
        if self._probe_mode:
            self._eject_pid = np.concatenate(
                [self._eject_pid, ctx.pid_out[:n_lat]]
            )

        return self._result(ctx)

    def run(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
        plan=None,
    ) -> SimResult:
        """Run the full warmup+measure+drain schedule at ``rate``, or
        the closed-loop ``plan`` paced at it."""
        ctx = self._begin(rate, schedule, plan)
        st = self._build_state(ctx)
        err = self._lib.sim_run(ctypes.byref(st))
        if err:
            raise RuntimeError(
                f"native simulation kernel failed (error code {err})"
            )
        return self._finish(ctx, st)

    def _drop_rings(self) -> None:
        """Free rings and wheel slots (``flits_in_flight`` reads counts)."""
        self._n_buf = self._n_aw_f = self._n_aw_lv = self._n_cw_lv = None

    def _drop_state(self) -> None:
        """Free the whole kernel state, rings included."""
        for name in _KERNEL_STATE:
            setattr(self, "_n_" + name, None)

    def _release(self) -> None:
        """Free everything a finished lane holds per packet, per
        ``(link, VC)`` and per node — packet table, route arena,
        ejection records, kernel state — keeping its counters:
        ``total_flits_*`` stay and ``flits_in_flight()`` reads what the
        lane left.  The lane can neither run nor be probed again."""
        self._n_left = self.flits_in_flight()
        self._packets = self._routes = self._table = None
        self._latencies = self._hops = self._eject_pid = None
        self._drop_state()

    # ------------------------------------------------------------------
    def flits_in_flight(self) -> int:
        """Flits currently buffered or on wires (conservation checks)."""
        if self._n_b_len is None:  # never ran, or released
            return self._n_left
        return int(self._n_b_len.sum()) + int(self._n_aw_n.sum())


class NativeBatch:
    """N replica lanes of one configuration, run as one kernel call.

    Each lane is an isolated :class:`NativeCore` (own seed-derived RNG
    streams, flit/VC/credit/latency state, and its own
    :class:`~repro.workload.driver.PhasePlan` when the lanes run
    closed-loop).  Routes come from the
    routing object — its closed-form plane, resolved per lane in one
    call, or else its shared route table — so nothing about routes is
    batch state; nor are the link constants, which every lane reads
    from the graph's shared :class:`~repro.network.corebase.LinkTables`.
    Each lane's packets are pre-resolved by the compiled front end
    (falling back to the scalar resolve for a pattern or routing that
    publishes no draw rows).  Lanes run in order, in waves of
    :func:`resolve_threads` lanes, each wave's ``struct S`` states
    packed into one ctypes array for one ``sim_run_batch`` call —
    threaded over workers pulling lanes from an atomic cursor, which is
    bit-identical to the serial loop because lanes share no mutable
    state.  One wave's rings and wheels are alive at a time; a lane
    holds no kernel state before its wave, and under ``run(release=
    True)`` (what :func:`~repro.network.simulator.run_batch` passes
    when nothing probes the lanes) none of its packets after it either.

    A batch is **one-shot**: lanes accumulate measurement state, so
    ``run()`` raises on reuse.  Build a fresh batch per lane set (as
    :func:`repro.network.simulator.run_batch` does).
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
        for seed in seeds:
            core = NativeCore(
                graph, routing, traffic, params.scaled(seed=int(seed))
            )
            if probes:
                core.enable_probes()
            self.lanes.append(core)
        # inert: bench/layers.py still passes route_donor= and reads
        # .route_donor; route sharing is the routing's table now
        self.route_donor: Optional[NativeCore] = None
        self._ran = False

    def __len__(self) -> int:
        return len(self.lanes)

    def run(
        self,
        rates,
        schedules=None,
        *,
        threads: Optional[int] = None,
        plans=None,
        stop_after: Optional[int] = None,
        release: bool = False,
    ) -> List[SimResult]:
        """Run lane ``i`` at ``rates[i]`` (optionally pinning
        ``schedules[i]``, or closed-loop under ``plans[i]``); returns
        per-lane results in lane order.

        With ``stop_after`` = k the lanes are a curve's rates, cut by
        :func:`~repro.network.stats.cutoff_walk`: lanes past the wave
        holding the k-th saturated one never run, and the results end
        at that lane.  With ``release`` each lane is released
        (:meth:`NativeCore._release`) as soon as its wave is read back,
        so a batch holds one wave's packets at a time; its lanes then
        keep only their counters and cannot be probed."""
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
        for name, per_lane in (("schedules", schedules), ("plans", plans)):
            if per_lane is not None and len(per_lane) != n:
                raise ValueError(f"{len(per_lane)} {name} for {n} lanes")
        runs = [
            (
                rates[i],
                schedules[i] if schedules is not None else None,
                plans[i] if plans is not None else None,
            )
            for i in range(n)
        ]
        wave = resolve_threads(n, threads)
        results: List[SimResult] = []
        for lo in range(0, n, wave):
            results += self._run_wave(lo, runs[lo:lo + wave], release)
            cut, kept = cutoff_walk(
                n, dict(enumerate(results)), stop_after or n + 1
            )
            if cut:
                return results[:kept]
        return results

    def _run_wave(self, lo: int, runs, release: bool) -> List[SimResult]:
        """Run lanes ``lo, lo + 1, ...`` under ``runs`` (their ``(rate,
        schedule, plan)``) in one kernel call.  The wave's staging —
        contexts, packed states, output buffers — dies on return."""
        cores = self.lanes[lo:lo + len(runs)]
        ctxs = [core._begin(*run) for core, run in zip(cores, runs)]
        # the wave is resolved before any state is packed: a shared
        # route table is final for these lanes only now
        # the templates keep alive what the packed copies point into,
        # until the kernel returns
        templates = [
            core._build_state(ctx) for core, ctx in zip(cores, ctxs)
        ]
        states = (type(templates[0]) * len(cores))(*templates)
        err = cores[0]._lib.sim_run_batch(states, len(cores), len(cores))
        del templates
        if err:
            # earlier waves all returned 0
            codes = [0] * lo + [int(st.error) for st in states]
            raise RuntimeError(
                "native batch kernel failed "
                f"(first error {err}; per-lane codes {codes})"
            )
        results = []
        for core, ctx, st in zip(cores, ctxs, states):
            results.append(core._finish(ctx, st))
            core._drop_rings()
            if release:
                core._release()
        return results
