"""Closed-form route plane: bulk route resolution from labels.

Algorithm 1 (and the Kim-style Dragonfly baseline) makes a route a pure
function of the (W-group, C-group, node/port) labels of its endpoints
and, for Valiant routing, the intermediate W-group.  A
:class:`RoutePlane` keeps only the small tables that function needs —
node labels, one template of intra-C-group mesh segments with its
per-C-group link translation, the gateway matrix and the local/global
channel tables: O(C-groups * mesh^2 + W^2 + W * C^2) integers, never
O(N^2) — and :meth:`RoutePlane.resolve` composes the routes of whole
arrays of (src, dst[, via]) triples at once.

One table layout serves both architectures: a switch of the
switch-based Dragonfly is a C-group whose "mesh" is the star of its
terminals, a group is a W-group.  What differs is the VC rule.

The scalar ``route()`` / ``_route_via()`` of each routing stays the
executable specification (the reference cores, ``enumerate_routes`` and
the deadlock verifier use it); ``tests/routing/test_plane.py`` checks
the plane against it exhaustively on every small preset.

``resolve`` is the compiled kernel's ``plane_resolve`` (``_simcore.c``,
well under 0.1 us per route; a numpy walker over the same tables made
a warm sweep, which re-resolves every packet, 47 % slower).  Its only
consumer is the native core, which exists only when the kernel is
loaded; the reference core resolves through the scalar
``route()`` (into the routing's :mod:`~repro.routing.table`) on every
host, which keeps it an independent check of the plane.
"""

from __future__ import annotations

import ctypes
from typing import NamedTuple

import numpy as np

from ..network.vecrandom import KernelTables

__all__ = ["ResolvedRoutes", "RoutePlane", "switchless_plane", "dragonfly_plane"]

#: segment kinds of a C-group (first axis of :attr:`RoutePlane.seg`).
_XY, _WALK, _DELIVERY = 0, 1, 2

_i64p = ctypes.POINTER(ctypes.c_int64)


class ResolvedRoutes(NamedTuple):
    """Routes of ``n`` pairs, flattened pair after pair.

    Pair ``i`` owns ``lv[off[i]: off[i] + hops[i]]``, ``link * num_vcs +
    vc`` per hop — the route arena the simulator cores consume.
    """

    off: np.ndarray
    hops: np.ndarray
    lv: np.ndarray


def _ptr(arr: np.ndarray):
    return arr.ctypes.data_as(_i64p)


class RoutePlane(KernelTables):
    """Label tables of one routing object plus the bulk resolver.

    Positions are ``(w, c, l)``: W-group, C-group index inside it and
    the node's local index inside the C-group.  Tables (all int64):

    ``node_w``, ``node_c``, ``node_l``
        node id -> its position.
    ``seg[kind, a * L + b]``
        template link indices of the intra-C-group segment ``a -> b``
        (``-1``-padded to ``seg_w``); ``cg_links[w * C + c]``
        translates them to the C-group's link ids.
    ``loc_link / loc_src / loc_dst [w, i, j]``
        local channel ``i -> j`` of W-group ``w``: link id and the
        local indices of its exit and entry attach nodes.
    ``gateway / glob_link / glob_src / glob_dst / glob_dst_c [w, x]``
        global channel ``w -> x``: owning C-group, link id, exit and
        entry attach nodes and the C-group it lands in.

    VC rule of the ordinal walker: a route starts on ``dst %
    vc_spread``; a local channel and everything behind it ride
    ``vc_local`` higher, a global channel ``vc_global`` higher, and
    what follows a global channel another ``vc_landed`` higher.
    ``reduced`` selects the Sec. IV-B walker instead.  These are the
    fields of ``struct Plane`` (``_simcore.c``), all given by name.
    """

    c_name = "Plane"

    def max_hops(self, detours: bool = True) -> int:
        """Upper bound on a route's hops: per W-group crossed at most
        two segments and two channels, plus a local channel and the
        final segment."""
        groups = 2 if detours else 1
        return (2 + 2 * groups) * self.seg_w + 1 + 2 * groups

    # ------------------------------------------------------------------
    def resolve(self, srcs, dsts, via=None) -> ResolvedRoutes:
        """Routes of the aligned pairs ``srcs[i] -> dsts[i]``.

        ``via[i]`` is the intermediate W-group (group) of a Valiant
        route, ``-1`` for none; like the scalar ``_route_via`` it is
        ignored when it equals either endpoint's group.  (It is also
        ignored for pairs inside one group, which ``draw_via`` never
        misroutes.)  The returned ``lv`` is exactly ``hops.sum()``
        long and owns its memory, so an empty arena adopts it as is.
        """
        srcs = np.ascontiguousarray(srcs, dtype=np.int64)
        dsts = np.ascontiguousarray(dsts, dtype=np.int64)
        n = srcs.size
        if dsts.shape != srcs.shape or srcs.ndim != 1:
            raise ValueError("srcs and dsts must be aligned 1-d arrays")
        if via is not None:
            via = np.ascontiguousarray(via, dtype=np.int64)
            if via.shape != srcs.shape:
                raise ValueError("via must align with srcs")
            if n and not (-1 <= via.min() and via.max() < self.W):
                raise ValueError("via outside [-1, groups)")
        nn = self.node_w.size
        if n and not (
            0 <= min(srcs.min(), dsts.min())
            and max(srcs.max(), dsts.max()) < nn
        ):
            raise ValueError("node id outside the plane's graph")
        from ..network.native import load_native  # lazy: import cycle

        lib = load_native()
        if lib is None:
            raise RuntimeError(
                "RoutePlane.resolve needs the compiled kernel; without "
                "one, routes come from the routing's scalar route()"
            )
        off = np.empty(n, dtype=np.int64)
        hops = np.empty(n, dtype=np.int64)
        # room for the longest route n times over, which the walker
        # fills front to back and which is then shrunk in place to the
        # routes' exact size (a realloc: no copy, the tail goes back to
        # the allocator), so the arena is never held twice.  Pages past
        # the routes are never written, so they are never committed
        # where the OS commits lazily (Linux, macOS defaults); under
        # strict commit accounting the full size is charged until the
        # shrink.  The price: above glibc's mmap threshold the scratch
        # is a fresh mapping each time, so the pages the routes fill
        # fault in (~3 % of a closed-loop allreduce unit on a 2-vCPU
        # Xeon).  Copying small arenas out instead reuses heap pages,
        # but it cost ~4 MB (7 %) more peak RSS in the warm service
        # benchmark.
        lv = np.empty(
            n * self.max_hops(detours=via is not None), dtype=np.int64
        )
        total = lib.plane_resolve(
            ctypes.byref(self._struct), n, _ptr(srcs), _ptr(dsts),
            _ptr(via) if via is not None else None,
            _ptr(off), _ptr(hops), _ptr(lv),
        )
        lv.resize(total, refcheck=False)
        return ResolvedRoutes(off, hops, lv)


def _node_positions(num_nodes: int, cg_nodes: np.ndarray, C: int):
    """``(node_w, node_c, node_l)`` from the node ids of every C-group,
    ``cg_nodes[w * C + c, l]``."""
    tables = np.zeros((3, num_nodes), dtype=np.int64)
    flat = np.arange(cg_nodes.shape[0])[:, None]
    tables[0][cg_nodes] = flat // C
    tables[1][cg_nodes] = flat % C
    tables[2][cg_nodes] = np.arange(cg_nodes.shape[1])[None, :]
    return tables


def _padded(rows: dict, shape) -> np.ndarray:
    """``rows[index] = [values]`` as a ``-1``-padded array of ``shape +
    (longest row,)``."""
    width = max(1, max(map(len, rows.values())))
    out = np.full(tuple(shape) + (width,), -1, dtype=np.int64)
    for index, row in rows.items():
        out[index][: len(row)] = row
    return out


# ----------------------------------------------------------------------
# switch-less Dragonfly (Algorithm 1)
# ----------------------------------------------------------------------
def switchless_plane(routing) -> RoutePlane:
    """Plane of a :class:`~repro.routing.switchless.SwitchlessRouting`.

    Every C-group of a system is the same mesh (or IO-router star) with
    the same port positions, so one segment template — built by calling
    the first C-group's ``route_links`` / ``transit_links`` /
    ``delivery_links`` — serves all of them through ``cg_links``.
    """
    system = routing.system
    graph = system.graph
    W = system.num_wgroups
    C = system.cfg.cgroups_per_wgroup
    reduced = routing.policy == "reduced"
    cgs = [cg for row in system.cgroups for cg in row]

    cg_nodes = np.array([cg.nodes for cg in cgs], dtype=np.int64)
    L = cg_nodes.shape[1]
    node_w, node_c, node_l = _node_positions(graph.num_nodes, cg_nodes, C)

    nodes0 = cgs[0].nodes
    pairs = [
        (a, b)
        for a in range(L)
        for b in range(L)
        if graph.has_link(nodes0[a], nodes0[b])
    ]
    cg_links = np.array(
        [
            [graph.link_between(nodes[a], nodes[b]) for a, b in pairs]
            for nodes in cg_nodes.tolist()
        ],
        dtype=np.int64,
    )
    template = {l: k for k, l in enumerate(cg_links[0].tolist())}

    cg0 = cgs[0]
    attach = sorted(
        {int(node_l[p.attach]) for cg in system.cgroups[0] for p in cg.ports}
    )
    every = range(L)
    kinds = [(_XY, cg0.route_links, every, every)]
    if reduced:
        kinds += [
            (_WALK, cg0.transit_links, attach, attach),
            (_DELIVERY, cg0.delivery_links, attach, every),
        ]
    seg = _padded(
        {
            (kind, a * L + b): [template[l] for l in fn(nodes0[a], nodes0[b])]
            for kind, fn, froms, tos in kinds
            for a in froms
            for b in tos
        },
        (len(kinds), L * L),
    )

    local = node_l.tolist()
    loc = np.zeros((3, W, C, C), dtype=np.int64)
    for w in range(W):
        for i in range(C):
            for j in range(C):
                if i != j:
                    ch = system.local_channel(w, i, j)
                    loc[:, w, i, j] = (
                        ch.link,
                        local[ch.src_port.attach],
                        local[ch.dst_port.attach],
                    )
    glob = np.zeros((5, W, W), dtype=np.int64)
    for w in range(W):
        for x in range(W):
            if w != x:
                ch = system.global_channel(w, x)
                glob[:, w, x] = (
                    system.gateway_cgroup(w, x),
                    ch.link,
                    local[ch.src_port.attach],
                    local[ch.dst_port.attach],
                    node_c[ch.dst_port.attach],
                )
    return RoutePlane(
        num_vcs=routing.num_vcs, C=C, L=L, W=W,
        seg_w=seg.shape[2], cg_w=cg_links.shape[1],
        reduced=reduced, merged_vcs=routing.misroute_scope == "lower",
        # Sec. IV-A: the VC is the ordinal of the C-group on the path
        vc_spread=1, vc_local=1, vc_global=1, vc_landed=0,
        node_w=node_w, node_c=node_c, node_l=node_l,
        cg_links=cg_links, seg=seg,
        loc_link=loc[0], loc_src=loc[1], loc_dst=loc[2],
        gateway=glob[0], glob_link=glob[1], glob_src=glob[2],
        glob_dst=glob[3], glob_dst_c=glob[4],
    )


# ----------------------------------------------------------------------
# switch-based Dragonfly (Kim et al.)
# ----------------------------------------------------------------------
def dragonfly_plane(routing) -> RoutePlane:
    """Plane of a :class:`~repro.routing.dragonfly.DragonflyRouting`.

    A switch is a C-group: local index 0 is the switch itself (where
    every channel attaches), ``1..p`` its terminals; a segment is the
    terminal's injection link, its ejection link, or both.
    """
    system = routing.system
    graph = system.graph
    G, A, P = system.num_groups, system.cfg.a, system.cfg.p
    L = P + 1
    cg_nodes = np.array(
        [
            [system.switches[g][s]] + system.terminals[g][s]
            for g in range(G)
            for s in range(A)
        ],
        dtype=np.int64,
    )
    node_w, node_c, node_l = _node_positions(graph.num_nodes, cg_nodes, A)
    # template link 2t-2: terminal t -> switch, 2t-1: switch -> terminal t
    cg_links = np.array(
        [
            [
                lid
                for t in nodes[1:]
                for lid in (
                    graph.link_between(t, nodes[0]),
                    graph.link_between(nodes[0], t),
                )
            ]
            for nodes in cg_nodes.tolist()
        ],
        dtype=np.int64,
    )
    seg = _padded(
        {
            (0, a * L + b): [2 * a - 2] * (a > 0) + [2 * b - 1] * (b > 0)
            for a in range(L)
            for b in range(L)
        },
        (1, L * L),
    )
    loc_link = np.zeros((G, A, A), dtype=np.int64)
    for g in range(G):
        sw = system.switches[g]
        for i in range(A):
            for j in range(A):
                if i != j:
                    loc_link[g, i, j] = graph.link_between(sw[i], sw[j])
    gateway = np.zeros((G, G), dtype=np.int64)
    glob_link = np.zeros((G, G), dtype=np.int64)
    for g in range(G):
        for x in range(G):
            if g != x:
                gateway[g, x] = system.gateway_switch(g, x)
                glob_link[g, x] = system.global_link(g, x)
    at_switch = np.zeros((G, G), dtype=np.int64)
    return RoutePlane(
        num_vcs=routing.num_vcs, C=A, L=L, W=G,
        seg_w=seg.shape[2], cg_w=cg_links.shape[1],
        reduced=False, merged_vcs=False,
        # Kim et al.: VC class = global hops already taken, spread by
        # destination
        vc_spread=routing.vc_spread, vc_local=0, vc_global=0,
        vc_landed=routing.vc_spread,
        node_w=node_w, node_c=node_c, node_l=node_l,
        cg_links=cg_links, seg=seg,
        loc_link=loc_link, loc_src=np.zeros_like(loc_link),
        loc_dst=np.zeros_like(loc_link),
        gateway=gateway, glob_link=glob_link, glob_src=at_switch,
        glob_dst=at_switch, glob_dst_c=gateway.T,
    )
