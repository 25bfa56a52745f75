"""Fault-aware routing: reroute around failed links, provably deadlock-free.

:class:`FaultAwareRouting` wraps any base
:class:`~repro.routing.base.RoutingAlgorithm` (the switch-less or
Dragonfly routers included) against a
:class:`~repro.faults.degraded.DegradedTopology`:

* pairs whose base route survives keep it unchanged — same links, same
  virtual channels, so the healthy traffic keeps the base policy's
  VC-minimal behaviour and its deadlock-freedom proof;
* pairs whose base route crosses a failure are *repaired*: the packet
  takes a shortest **up*/down*** path over the whole surviving graph
  (not just a spanning tree, so the architecture's path diversity keeps
  working for rerouted flows), entirely on one extra **repair VC**.

Up*/down* direction comes from a deterministic BFS ordering per
surviving component: link ``u -> v`` is *up* iff ``(depth[v], v) <
(depth[u], u)``.  A legal repair path climbs up-links first and then
descends down-links, never turning down->up; a legal path always exists
within a component (climb the BFS tree to the common ancestor, descend).

Deadlock freedom of the union is compositional.  Base routes use VCs
``0..V-1`` and repair routes only VC ``V``, so the channel dependency
graph splits into two vertex-disjoint parts: the base CDG (acyclic per
the base policy) and the repair CDG.  In the repair CDG, up->up
dependencies strictly decrease the ordering potential, down->down
dependencies strictly increase it, up->down crossings exist but
down->up never does — so any cycle would have to be all-up or all-down,
both impossible: the repair CDG is acyclic.  The
:mod:`repro.routing.deadlock` verifier re-checks this on every degraded
instance in the test suite and the resilience CLI.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from ..network.packet import Hop
from ..routing.base import RoutingAlgorithm
from .degraded import DegradedTopology

__all__ = ["FaultRoutingError", "FaultAwareRouting"]


class FaultRoutingError(ValueError):
    """A route was requested between disconnected or dead endpoints."""


class FaultAwareRouting(RoutingAlgorithm):
    """Wrap ``base`` so every produced route avoids failed hardware.

    Parameters
    ----------
    base:
        The healthy-topology routing algorithm.
    degraded:
        The degraded view routes must respect.

    Attributes
    ----------
    repair_vc:
        The extra virtual channel repair paths ride on (``base.num_vcs``).
    repaired_routes:
        How many route computations fell back to the repair tree.
    """

    def __init__(
        self, base: RoutingAlgorithm, degraded: DegradedTopology
    ) -> None:
        self.base = base
        self.degraded = degraded
        self.num_vcs = base.num_vcs + 1
        self.repair_vc = base.num_vcs
        self.is_deterministic = base.is_deterministic
        self.repaired_routes = 0
        # component id -> BFS depth per node (the up*/down* ordering)
        self._depths: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # up*/down* repair over the surviving graph
    # ------------------------------------------------------------------
    def _depth_map(self, comp: int) -> Dict[int, int]:
        depths = self._depths.get(comp)
        if depths is not None:
            return depths
        deg = self.degraded
        root = deg.component_members(comp)[0]
        depths = {root: 0}
        frontier = [root]
        while frontier:
            nxt: List[int] = []
            for cur in frontier:
                d = depths[cur] + 1
                for peer, _lid in deg.neighbors(cur):
                    if peer not in depths:
                        depths[peer] = d
                        nxt.append(peer)
            frontier = nxt
        self._depths[comp] = depths
        return depths

    def _repair(self, src: int, dst: int) -> List[Hop]:
        """Shortest up*/down* path src -> dst on the repair VC.

        BFS over ``(node, phase)`` states: phase 0 may still climb
        up-links, phase 1 has turned downward and may only descend.
        Expansion order is deterministic (sorted adjacency), so the
        route of a pair is a pure function of the fault instance.
        """
        deg = self.degraded
        depths = self._depth_map(deg.component_of(src))
        vc = self.repair_vc

        def is_up(u: int, v: int) -> bool:
            return (depths[v], v) < (depths[u], u)

        start = (src, 0)
        parent: Dict[Tuple[int, int], Tuple[Tuple[int, int], int]] = {
            start: (start, -1)
        }
        frontier = [start]
        goal: Optional[Tuple[int, int]] = None
        while frontier and goal is None:
            nxt: List[Tuple[int, int]] = []
            for state in frontier:
                u, phase = state
                for v, lid in deg.neighbors(u):
                    if is_up(u, v):
                        if phase == 1:  # down->up turns are illegal
                            continue
                        nstate = (v, 0)
                    else:
                        nstate = (v, 1)
                    if nstate in parent:
                        continue
                    parent[nstate] = (state, lid)
                    if v == dst:
                        goal = nstate
                        break
                    nxt.append(nstate)
                if goal is not None:
                    break
            frontier = nxt
        if goal is None:  # pragma: no cover - reachable pairs always have one
            raise FaultRoutingError(
                f"no up*/down* repair path {src}->{dst}"
            )
        hops: List[Hop] = []
        state = goal
        while state != start:
            state, lid = parent[state]
            hops.append((lid, vc))
        hops.reverse()
        return hops

    # ------------------------------------------------------------------
    # RoutingAlgorithm interface
    # ------------------------------------------------------------------
    def _check_pair(self, src: int, dst: int) -> None:
        deg = self.degraded
        if not deg.alive(src) or not deg.alive(dst):
            raise FaultRoutingError(
                f"route {src}->{dst} touches a failed die; mask traffic "
                "with FaultMaskedTraffic"
            )
        if not deg.reachable(src, dst):
            raise FaultRoutingError(
                f"nodes {src} and {dst} are in different surviving "
                "partitions; mask traffic with FaultMaskedTraffic"
            )

    def route(self, src: int, dst: int, rng: random.Random) -> List[Hop]:
        self._check_pair(src, dst)
        if src == dst:
            return []
        path = self.base.route(src, dst, rng)
        if self.degraded.path_ok(path):
            return path
        self.repaired_routes += 1
        return self._repair(src, dst)

    def enumerate_routes(self, src: int, dst: int) -> Iterable[List[Hop]]:
        """Surviving base routes, plus the repair path when any base
        candidate (or all of them) is severed.

        Dead or partitioned pairs yield nothing — the deadlock verifier
        enumerates all terminal pairs and must skip pairs the masked
        traffic would never generate.
        """
        deg = self.degraded
        if not deg.alive(src) or not deg.alive(dst):
            return
        if not deg.reachable(src, dst):
            return
        any_severed = False
        any_ok = False
        for path in self.base.enumerate_routes(src, dst):
            if deg.path_ok(path):
                any_ok = True
                yield path
            else:
                any_severed = True
        if any_severed or not any_ok:
            yield self._repair(src, dst)
