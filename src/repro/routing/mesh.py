"""Intra-mesh routing: dimension-order (XY) paths.

XY routing is deadlock free on a mesh with a single VC (all turns from X
to Y, never back), which is why the paper can spend its virtual channels
exclusively on breaking *cross-C-group* dependencies (Sec. IV-A).
"""

from __future__ import annotations

import random
from typing import Iterable, List

from ..network.packet import Hop
from ..topology.mesh import MeshBlock, SwitchBlock, xy_links
from .base import RoutingAlgorithm

__all__ = ["xy_links", "XYMeshRouting", "SwitchStarRouting"]


class XYMeshRouting(RoutingAlgorithm):
    """Standalone XY routing for a single mesh block (Fig. 10(a))."""

    num_vcs = 1

    is_deterministic = True

    def __init__(self, block: MeshBlock):
        self.block = block

    def route(self, src: int, dst: int, rng: random.Random) -> List[Hop]:
        return [(lid, 0) for lid in xy_links(self.block, src, dst)]

    def enumerate_routes(self, src: int, dst: int) -> Iterable[List[Hop]]:
        yield self.route(src, dst, random.Random(0))


class SwitchStarRouting(RoutingAlgorithm):
    """Terminal -> switch -> terminal, for the single-switch baseline.

    ``voq_vcs > 1`` spreads packets over input VCs by destination,
    emulating the virtual-output-queueing of a non-blocking switch — the
    paper models its baseline switches as *ideal* high-radix routers
    (Sec. V-A4), so without this the baseline would be unfairly
    handicapped by FIFO head-of-line blocking.
    """

    is_deterministic = True

    def __init__(self, block: SwitchBlock, *, voq_vcs: int = 4):
        if voq_vcs < 1:
            raise ValueError("voq_vcs must be >= 1")
        self.block = block
        self.num_vcs = min(voq_vcs, len(block.terminals))
        self._term_index = {t: i for i, t in enumerate(block.terminals)}

    def route(self, src: int, dst: int, rng: random.Random) -> List[Hop]:
        g = self.block.graph
        sw = self.block.switch
        vc = self._term_index[dst] % self.num_vcs
        return [
            (g.link_between(src, sw), vc),
            (g.link_between(sw, dst), 0),
        ]

    def enumerate_routes(self, src: int, dst: int) -> Iterable[List[Hop]]:
        yield self.route(src, dst, random.Random(0))
