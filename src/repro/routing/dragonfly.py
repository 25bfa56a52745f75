"""Minimal and Valiant routing for the switch-based Dragonfly baseline.

Virtual channel assignment follows Kim et al. [3]: every channel on the
path is assigned ``VC = number of global hops already taken``.  Minimal
routes take at most one global hop (2 VCs); Valiant non-minimal routes at
most two (3 VCs).  The resulting channel dependency graph is acyclic
because VC indices never decrease along a path and, within one VC, the
hop sequence terminal -> local -> global is acyclic per group.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Iterable, List, Optional

from ..network.packet import Hop
from ..network.vecrandom import ViaRows
from ..topology.dragonfly import DragonflySystem
from .base import RoutingAlgorithm, draw_other_group
from .plane import RoutePlane, dragonfly_plane

__all__ = ["DragonflyRouting"]


class DragonflyRouting(RoutingAlgorithm):
    """Oblivious routing on a :class:`DragonflySystem`.

    Parameters
    ----------
    system:
        The built Dragonfly.
    mode:
        ``"minimal"`` (``t-l-g-l-t`` worst case) or ``"valiant"``
        (random intermediate group, ``t-l-g-l-g-l-t`` worst case).

    ``vc_spread`` gives each VC *class* (``ghops`` value) that many
    physical VCs, with packets spread across them by destination.  This
    emulates the paper's "ideal high-radix router" baseline by removing
    most FIFO head-of-line blocking; deadlock freedom is preserved because
    a path's VC class never decreases, so the flattened VC index
    ``ghops * spread + hash`` never re-enters an earlier class.
    """

    def __init__(
        self,
        system: DragonflySystem,
        mode: str = "minimal",
        *,
        vc_spread: int = 1,
    ):
        if mode not in ("minimal", "valiant"):
            raise ValueError(f"unknown mode {mode!r}")
        if vc_spread < 1:
            raise ValueError("vc_spread must be >= 1")
        self.system = system
        self.mode = mode
        self.vc_spread = vc_spread
        self.num_classes = 2 if mode == "minimal" else 3
        # minimal routes never consult the RNG (Valiant draws the
        # intermediate group from it)
        self.is_deterministic = mode == "minimal"
        self.num_vcs = self.num_classes * vc_spread
        self._plane: Optional[RoutePlane] = None

    # ------------------------------------------------------------------
    def _route_via(
        self, src: int, dst: int, intermediate: Optional[int]
    ) -> List[Hop]:
        sys = self.system
        g = sys.graph
        gs = sys.group_of(src)
        gd = sys.group_of(dst)
        ss = sys.switch_index_of(src)
        sd = sys.switch_index_of(dst)

        hops: List[Hop] = []
        ghops = 0
        spread = self.vc_spread
        salt = dst % spread

        def vc() -> int:
            return ghops * spread + salt

        # injection: terminal -> its switch
        cur_group, cur_sw = gs, ss
        hops.append((g.link_between(src, sys.switches[gs][ss]), vc()))

        group_seq = [gs]
        if intermediate is not None and intermediate not in (gs, gd):
            group_seq.append(intermediate)
        if gd != gs:
            group_seq.append(gd)

        prev_group = gs
        for nxt in group_seq[1:]:
            gw = sys.gateway_switch(cur_group, nxt)
            if gw != cur_sw:
                hops.append((
                    g.link_between(
                        sys.switches[cur_group][cur_sw],
                        sys.switches[cur_group][gw],
                    ),
                    vc(),
                ))
                cur_sw = gw
            hops.append((sys.global_link(cur_group, nxt), vc()))
            ghops += 1
            prev_group = cur_group
            cur_group = nxt
            cur_sw = sys.gateway_switch(cur_group, prev_group)

        if cur_sw != sd:
            hops.append((
                g.link_between(
                    sys.switches[cur_group][cur_sw],
                    sys.switches[cur_group][sd],
                ),
                vc(),
            ))
            cur_sw = sd

        # ejection: switch -> destination terminal
        hops.append((g.link_between(sys.switches[gd][sd], dst), vc()))
        return hops

    def draw_via(self, src: int, dst: int, rng: random.Random) -> Optional[int]:
        """The random part of :meth:`route`: Valiant's intermediate
        group, ``None`` when the pair is routed minimally."""
        if self.mode != "valiant":
            return None
        gs = self.system.group_of(src)
        gd = self.system.group_of(dst)
        if gs == gd or self.system.num_groups <= 2:
            return None
        return draw_other_group(rng, self.system.num_groups, gs, gd)

    def route(self, src: int, dst: int, rng: random.Random) -> List[Hop]:
        return self._route_via(src, dst, self.draw_via(src, dst, rng))

    def route_plane(self) -> RoutePlane:
        if self._plane is None:
            self._plane = dragonfly_plane(self)
        return self._plane

    @cached_property
    def via_rows(self) -> Optional[ViaRows]:
        if self.mode != "valiant":
            return None
        plane = self.route_plane()
        return ViaRows.other_group(plane.node_w, plane.W)

    def enumerate_routes(self, src: int, dst: int) -> Iterable[List[Hop]]:
        gs = self.system.group_of(src)
        gd = self.system.group_of(dst)
        yield self._route_via(src, dst, None)
        if self.mode == "valiant" and gs != gd:
            for gi in range(self.system.num_groups):
                if gi not in (gs, gd):
                    yield self._route_via(src, dst, gi)
