"""Routing for the switch-less Dragonfly (paper Sec. IV, Algorithm 1).

Minimal routing performs the seven steps of Algorithm 1: route within the
source C-group to the node holding the right local channel, cross to the
gateway C-group, route to its global port, cross to the destination
W-group, route to the local port toward the destination C-group, cross,
and deliver.  Non-minimal (Valiant) routing inserts a random intermediate
W-group, adding two inter-C-group and two intra-C-group steps.

Two virtual-channel policies are provided:

``baseline``
    Sec. IV-A: the VC index is the ordinal of the C-group along the path
    (incremented at every C-group boundary).  Four VCs suffice for
    minimal routing (source, two intermediates, destination C-group) and
    six for non-minimal.  All intra-C-group segments use XY routing.
    Provably deadlock free: within one VC, inter-C-group links only
    *feed* mesh segments (the next link is already on the next VC), and
    XY unions are acyclic.

``reduced``
    Sec. IV-B: VC-0 carries *mesh-only* segments (source C-group exit
    and final delivery), VC-1 the source-W-group transit, VC-2 the
    destination-W-group transit — 3 VCs for minimal routing, one more
    than the traditional Dragonfly's two, exactly the paper's headline.
    Non-minimal routing with ``misroute_scope="any"`` gives the
    intermediate W-group its own VC-2 (destination shifts to VC-3):
    4 VCs, again one more than the traditional Dragonfly's three.
    Transit segments walk the C-group boundary monotonically in label
    order (Property 1(c2)/Property 2), which keeps up- and down-typed
    mesh channels disjoint inside merged W-groups; delivery (port->core)
    segments share the destination VC and use *dive-first* paths
    (:meth:`repro.core.cgroup.CGroup.delivery_links`) that leave the
    boundary ring immediately, so they are link-disjoint from transit
    walks except at corner destinations.  This is the closest provable
    approximation of the paper's Property 1(c1), which no strict total
    node order can fully satisfy on a mesh (see
    :mod:`repro.core.labeling`), so the reduced policy's CDG is checked
    explicitly: acyclic on IO-router C-groups, cyclic on mesh ones
    (``TestDeadlock`` in ``tests/routing/test_switchless_routing.py``).
    ``misroute_scope="lower"``
    implements the paper's 3-VC non-minimal variant (misroute only
    through W-groups with a label-monotone continuation; falls back to
    minimal when none qualifies).  For a configuration where the 3-VC
    reduction is provably safe by construction, see the IO-router
    C-group variant (Fig. 8(a)) in :mod:`repro.core`.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Iterable, List, Optional

from ..core.system import SwitchlessSystem
from ..network.packet import Hop
from ..network.vecrandom import ViaRows, csr
from .base import RoutingAlgorithm, draw_other_group
from .plane import RoutePlane, switchless_plane

__all__ = ["SwitchlessRouting"]


class SwitchlessRouting(RoutingAlgorithm):
    """Oblivious minimal / Valiant routing on a :class:`SwitchlessSystem`.

    Parameters
    ----------
    system:
        The built switch-less Dragonfly.
    mode:
        ``"minimal"`` or ``"valiant"``.
    policy:
        ``"baseline"`` (ordinal VCs, XY everywhere) or ``"reduced"``
        (paper Sec. IV-B VC reduction).
    misroute_scope:
        Only with ``policy="reduced", mode="valiant"``: ``"any"`` (extra
        VC for the intermediate W-group) or ``"lower"`` (no extra VC,
        intermediates restricted to label-monotone continuations; falls
        back to minimal when no intermediate qualifies —
        :attr:`fallback_count` tracks how often).
    """

    def __init__(
        self,
        system: SwitchlessSystem,
        mode: str = "minimal",
        *,
        policy: str = "baseline",
        misroute_scope: str = "any",
    ) -> None:
        if mode not in ("minimal", "valiant"):
            raise ValueError(f"unknown mode {mode!r}")
        if policy not in ("baseline", "reduced"):
            raise ValueError(f"unknown policy {policy!r}")
        if misroute_scope not in ("any", "lower"):
            raise ValueError(f"unknown misroute_scope {misroute_scope!r}")
        self.system = system
        self.mode = mode
        self.policy = policy
        self.misroute_scope = misroute_scope
        self.fallback_count = 0
        # minimal routes never consult the RNG (Valiant draws the
        # intermediate W-group from it)
        self.is_deterministic = mode == "minimal"
        if policy == "baseline":
            self.num_vcs = 4 if mode == "minimal" else 6
        else:
            if mode == "minimal":
                self.num_vcs = 3
            else:
                self.num_vcs = 4 if misroute_scope == "any" else 3
        self._plane: Optional[RoutePlane] = None

    # ------------------------------------------------------------------
    # segment helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _mesh_xy(hops: List[Hop], cg, a: int, b: int, vc: int) -> None:
        for lid in cg.route_links(a, b):
            hops.append((lid, vc))

    @staticmethod
    def _mesh_walk(hops: List[Hop], cg, a: int, b: int, vc: int) -> None:
        for lid in cg.transit_links(a, b):
            hops.append((lid, vc))

    @staticmethod
    def _mesh_delivery(hops: List[Hop], cg, a: int, b: int, vc: int) -> None:
        for lid in cg.delivery_links(a, b):
            hops.append((lid, vc))

    # ------------------------------------------------------------------
    # baseline policy: ordinal VCs, XY everywhere
    # ------------------------------------------------------------------
    def _route_baseline(
        self, src: int, dst: int, wseq: List[int]
    ) -> List[Hop]:
        """Route through the W-group sequence ``wseq`` (src W first)."""
        sys = self.system
        ws, cs = sys.location_of(src)
        wd, cd = sys.location_of(dst)
        hops: List[Hop] = []
        ordinal = 0
        cur_node = src
        cur_w, cur_c = ws, cs

        for nxt_w in wseq[1:]:
            gw = sys.gateway_cgroup(cur_w, nxt_w)
            if gw != cur_c:
                ch = sys.local_channel(cur_w, cur_c, gw)
                self._mesh_xy(
                    hops, sys.cgroup(cur_w, cur_c), cur_node,
                    ch.src_port.attach, ordinal,
                )
                ordinal += 1
                hops.append((ch.link, ordinal))
                cur_node = ch.dst_port.attach
                cur_c = gw
            gch = sys.global_channel(cur_w, nxt_w)
            self._mesh_xy(
                hops, sys.cgroup(cur_w, cur_c), cur_node,
                gch.src_port.attach, ordinal,
            )
            ordinal += 1
            hops.append((gch.link, ordinal))
            cur_node = gch.dst_port.attach
            cur_w = nxt_w
            cur_c = sys.location_of(cur_node)[1]

        if cur_c != cd:
            ch = sys.local_channel(cur_w, cur_c, cd)
            self._mesh_xy(
                hops, sys.cgroup(cur_w, cur_c), cur_node,
                ch.src_port.attach, ordinal,
            )
            ordinal += 1
            hops.append((ch.link, ordinal))
            cur_node = ch.dst_port.attach
            cur_c = cd
        self._mesh_xy(hops, sys.cgroup(cur_w, cur_c), cur_node, dst, ordinal)
        return hops

    # ------------------------------------------------------------------
    # reduced policy: Sec. IV-B VC reduction
    # ------------------------------------------------------------------
    def _route_reduced(
        self, src: int, dst: int, wseq: List[int], merged_vcs: bool
    ) -> List[Hop]:
        """Reduced-VC route through W-group sequence ``wseq``.

        ``merged_vcs`` merges intermediate and destination W-groups on
        VC-2 (the "lower" scope); otherwise the intermediate W-group uses
        VC-2 and the destination W-group VC-3 when a misroute happens.
        """
        sys = self.system
        ws, cs = sys.location_of(src)
        wd, cd = sys.location_of(dst)
        hops: List[Hop] = []
        cur_node = src
        cur_w, cur_c = ws, cs
        misrouted = len(wseq) > 2

        # ---- source W-group: VC-0 mesh exit, VC-1 transit -------------
        if len(wseq) > 1:
            nxt_w = wseq[1]
            gw = sys.gateway_cgroup(cur_w, nxt_w)
            if gw != cur_c:
                ch = sys.local_channel(cur_w, cur_c, gw)
                self._mesh_xy(
                    hops, sys.cgroup(cur_w, cur_c), cur_node,
                    ch.src_port.attach, 0,
                )
                hops.append((ch.link, 1))
                cur_node = ch.dst_port.attach
                cur_c = gw
                gch = sys.global_channel(cur_w, nxt_w)
                self._mesh_xy(
                    hops, sys.cgroup(cur_w, cur_c), cur_node,
                    gch.src_port.attach, 1,
                )
            else:
                gch = sys.global_channel(cur_w, nxt_w)
                self._mesh_xy(
                    hops, sys.cgroup(cur_w, cur_c), cur_node,
                    gch.src_port.attach, 0,
                )
            # the global channel enters the next W-group's transit VC
            hops.append((gch.link, 2))
            cur_node = gch.dst_port.attach
            cur_w = nxt_w
            cur_c = sys.location_of(cur_node)[1]

            # ---- intermediate W-group (valiant only): VC-2 transit ----
            if misrouted:
                dest_vc = 2 if merged_vcs else 3
                nxt_w = wseq[2]
                gw = sys.gateway_cgroup(cur_w, nxt_w)
                if gw != cur_c:
                    ch = sys.local_channel(cur_w, cur_c, gw)
                    self._mesh_walk(
                        hops, sys.cgroup(cur_w, cur_c), cur_node,
                        ch.src_port.attach, 2,
                    )
                    hops.append((ch.link, 2))
                    cur_node = ch.dst_port.attach
                    cur_c = gw
                gch = sys.global_channel(cur_w, nxt_w)
                self._mesh_walk(
                    hops, sys.cgroup(cur_w, cur_c), cur_node,
                    gch.src_port.attach, 2,
                )
                hops.append((gch.link, dest_vc))
                cur_node = gch.dst_port.attach
                cur_w = nxt_w
                cur_c = sys.location_of(cur_node)[1]
            else:
                dest_vc = 2
        else:
            dest_vc = 2  # intra-W-group traffic enters the dest VC directly

        # ---- destination W-group: transit + dive-first delivery -------
        if cur_c != cd:
            ch = sys.local_channel(cur_w, cur_c, cd)
            if cur_w == ws and cur_c == cs:
                # intra-W-group: exit the source C-group on VC-0/XY
                self._mesh_xy(
                    hops, sys.cgroup(cur_w, cur_c), cur_node,
                    ch.src_port.attach, 0,
                )
            else:
                self._mesh_walk(
                    hops, sys.cgroup(cur_w, cur_c), cur_node,
                    ch.src_port.attach, dest_vc,
                )
            hops.append((ch.link, dest_vc))
            cur_node = ch.dst_port.attach
            cur_c = cd
        self._mesh_delivery(
            hops, sys.cgroup(cur_w, cur_c), cur_node, dst, dest_vc
        )
        return hops

    # ------------------------------------------------------------------
    # "lower"-scope legality (paper Fig. 7 restriction)
    # ------------------------------------------------------------------
    def _lower_scope_legal(self, ws: int, wi: int, wd: int, cd: int) -> bool:
        """Whether misrouting via ``wi`` yields a label-monotone transit.

        The merged-VC variant requires each packet's whole VC-2 channel
        sequence to be up*-then-down* in (W-group, C-group, label) order:

        * all-up transit: ``ws < wi < wd`` and entry C-group <= exit
          C-group inside ``wi`` (the destination segment may then turn
          down — up*down* remains legal);
        * all-down transit: ``ws > wi > wd``, entry >= exit inside
          ``wi``, and the destination-W-group segment must stay down,
          i.e. the destination C-group must not be above the entry
          C-group there.
        """
        sys = self.system
        entry_c = sys.location_of(sys.global_channel(ws, wi).dst_port.attach)[1]
        exit_c = sys.gateway_cgroup(wi, wd)
        if ws < wi < wd:
            return entry_c <= exit_c
        if ws > wi > wd:
            if entry_c < exit_c:
                return False
            entry_cd = sys.location_of(
                sys.global_channel(wi, wd).dst_port.attach
            )[1]
            return cd <= entry_cd
        return False

    def _legal_intermediates(self, ws: int, wd: int, cd: int) -> List[int]:
        g = self.system.num_wgroups
        if self.misroute_scope == "any":
            return [w for w in range(g) if w not in (ws, wd)]
        return [
            w
            for w in range(g)
            if w not in (ws, wd) and self._lower_scope_legal(ws, w, wd, cd)
        ]

    # ------------------------------------------------------------------
    def _wseq(self, ws: int, wd: int, wi: Optional[int]) -> List[int]:
        seq = [ws]
        if wi is not None and wi not in (ws, wd):
            seq.append(wi)
        if wd != ws:
            seq.append(wd)
        return seq

    def _route_via(self, src: int, dst: int, wi: Optional[int]) -> List[Hop]:
        sys = self.system
        ws, cs = sys.location_of(src)
        wd, cd = sys.location_of(dst)
        if ws == wd and cs == cd:
            cg = sys.cgroup(ws, cs)
            return [(lid, 0) for lid in cg.route_links(src, dst)]
        wseq = self._wseq(ws, wd, wi)
        if self.policy == "baseline":
            return self._route_baseline(src, dst, wseq)
        return self._route_reduced(
            src, dst, wseq, merged_vcs=self.misroute_scope == "lower"
        )

    def draw_via(self, src: int, dst: int, rng: random.Random) -> Optional[int]:
        """The random part of :meth:`route`: Valiant's intermediate
        W-group, ``None`` when the pair is routed minimally."""
        if self.mode != "valiant":
            return None
        sys = self.system
        ws = sys.location_of(src)[0]
        wd, cd = sys.location_of(dst)
        g = sys.num_wgroups
        if ws == wd or g <= 2:
            return None
        if self.misroute_scope == "any":
            return draw_other_group(rng, g, ws, wd)
        choices = self._legal_intermediates(ws, wd, cd)
        if choices:
            return choices[rng.randrange(len(choices))]
        if self.policy == "reduced":
            self.fallback_count += 1
        return None

    def route(self, src: int, dst: int, rng: random.Random) -> List[Hop]:
        return self._route_via(src, dst, self.draw_via(src, dst, rng))

    def route_plane(self) -> RoutePlane:
        if self._plane is None:
            self._plane = switchless_plane(self)
        return self._plane

    @cached_property
    def via_rows(self) -> Optional[ViaRows]:
        """Scope "any": any W-group but the pair's own two; "lower": the
        materialised :meth:`_legal_intermediates` row of ``(ws, wd,
        cd)``."""
        if self.mode != "valiant":
            return None
        plane = self.route_plane()
        g, subs = plane.W, plane.C
        if self.misroute_scope == "any":
            return ViaRows.other_group(plane.node_w, g)
        ptr, val = csr([
            self._legal_intermediates(ws, wd, cd) if ws != wd else ()
            for ws in range(g)
            for wd in range(g)
            for cd in range(subs)
        ])
        return ViaRows(
            groups=g, subs=subs, count_fallback=self.policy == "reduced",
            ptr=ptr, val=val, group=plane.node_w, sub=plane.node_c,
        )

    def enumerate_routes(self, src: int, dst: int) -> Iterable[List[Hop]]:
        sys = self.system
        ws, _ = sys.location_of(src)
        wd, _ = sys.location_of(dst)
        yield self._route_via(src, dst, None)
        if self.mode == "valiant" and ws != wd:
            cd = sys.location_of(dst)[1]
            for wi in self._legal_intermediates(ws, wd, cd):
                yield self._route_via(src, dst, wi)
