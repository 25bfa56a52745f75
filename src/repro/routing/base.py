"""Routing interface and path validation helpers."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, Sequence, Tuple

from ..network.packet import Hop
from ..topology.graph import NetworkGraph
from .table import RouteTable

__all__ = [
    "RoutingAlgorithm",
    "draw_other_group",
    "validate_path",
    "path_latency",
]


def draw_other_group(rng: random.Random, num_groups: int, a: int, b: int) -> int:
    """Uniform draw of a group other than ``a`` and ``b`` (``a != b``,
    ``num_groups > 2``): one ``randrange(num_groups - 2)``, then skip
    the two excluded labels in increasing order."""
    pick = rng.randrange(num_groups - 2)
    for skip in sorted((a, b)):
        if pick >= skip:
            pick += 1
    return pick


class RoutingAlgorithm(ABC):
    """Produces source routes ``[(link id, vc), ...]`` for packets.

    ``num_vcs`` is the number of virtual channels the simulator must
    provision on every link; it is the quantity the paper's Sec. IV
    minimises.
    """

    #: virtual channels required for deadlock freedom.
    num_vcs: int = 1

    #: True when :meth:`route` never consults the RNG, i.e. the route of
    #: a (src, dst) pair is a pure function of the pair.  The simulator
    #: then holds each pair's route once in :meth:`route_table` — a
    #: large win for oblivious minimal routing, where every packet of a
    #: pair shares one path.
    is_deterministic: bool = False

    #: pair cap of :meth:`route_table`; beyond it routes are computed
    #: without being stored, bounding memory on full-scale systems
    #: (100k+ nodes -> billions of pairs) where the routing object
    #: lives across every point of a sweep.
    route_memo_max: int = 1 << 19

    @abstractmethod
    def route(self, src: int, dst: int, rng: random.Random) -> List[Hop]:
        """One (possibly randomised) route from ``src`` to ``dst``."""

    def route_flat(
        self, src: int, dst: int, rng: random.Random
    ) -> "Tuple[Tuple[Hop, ...], Tuple[int, ...]]":
        """``(path, path_lv)`` where ``path_lv[i] = link*num_vcs + vc``.

        The flat view is what the simulator's hot loop indexes with.
        It is computed on every call; a deterministic routing's
        :meth:`route_table` is what keeps resolved pairs.
        """
        path = tuple(self.route(src, dst, rng))
        V = self.num_vcs
        return path, tuple(l * V + v for l, v in path)

    def route_plane(self):
        """The routing's closed-form :class:`~repro.routing.plane.RoutePlane`,
        or ``None`` when routes are not a function of endpoint labels
        (the native core then reads :meth:`route_table`).

        A routing that offers a plane also offers ``draw_via(src, dst,
        rng)`` — the random part of :meth:`route`, consuming the RNG
        exactly as :meth:`route` does — such that ``route(s, d, rng)``
        equals the plane's route for ``(s, d, draw_via(s, d, rng))``;
        a randomised one also offers :attr:`via_rows`.
        """
        return None

    #: ``draw_via`` as data: the
    #: :class:`~repro.network.vecrandom.ViaRows` the compiled draw pass
    #: replays on the same stream, or ``None`` (no such draw, or not a
    #: pick from label-keyed rows).
    via_rows = None

    def route_table(self) -> Optional[RouteTable]:
        """The routing's :class:`~repro.routing.table.RouteTable`, built
        on first use, or ``None`` for a randomised routing.  Every
        simulator core of this object that does not resolve through
        :meth:`route_plane` reads it, so each pair is resolved once for
        as long as the routing lives."""
        if not self.is_deterministic:
            return None
        table = getattr(self, "_route_table", None)
        if table is None:
            table = self._route_table = RouteTable(self)
        return table

    def enumerate_routes(self, src: int, dst: int) -> Iterable[List[Hop]]:
        """All routes the algorithm may produce for this pair.

        Used by the deadlock verifier to build the full channel
        dependency graph.  Deterministic algorithms yield one path; the
        default draws a fixed sample of randomised routes, which
        subclasses with enumerable choice sets should override.
        """
        rng = random.Random(0xC0FFEE ^ (src * 1_000_003) ^ dst)
        seen = set()
        for _ in range(16):
            path = tuple(self.route(src, dst, rng))
            if path not in seen:
                seen.add(path)
                yield list(path)


def validate_path(
    graph: NetworkGraph,
    src: int,
    dst: int,
    path: Sequence[Hop],
    *,
    num_vcs: Optional[int] = None,
) -> None:
    """Raise ValueError unless ``path`` is a connected src->dst walk.

    Checks: consecutive links share endpoints, the walk starts at ``src``
    and ends at ``dst``, and VC indices are within range.
    """
    cur = src
    for i, (lid, vc) in enumerate(path):
        if not 0 <= lid < graph.num_links:
            raise ValueError(f"hop {i}: link {lid} out of range")
        link = graph.links[lid]
        if link.src != cur:
            raise ValueError(
                f"hop {i}: link {lid} starts at {link.src}, expected {cur}"
            )
        if vc < 0 or (num_vcs is not None and vc >= num_vcs):
            raise ValueError(f"hop {i}: vc {vc} out of range")
        cur = link.dst
    if cur != dst:
        raise ValueError(f"path ends at {cur}, expected {dst}")


def path_latency(graph: NetworkGraph, path: Sequence[Hop], router_latency: int = 1) -> int:
    """Zero-load wire+pipeline latency of a head flit along ``path``."""
    return sum(graph.links[lid].latency + router_latency for lid, _ in path)
