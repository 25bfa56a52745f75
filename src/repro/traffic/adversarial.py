"""Adversarial traffic (Sec. V-A3b): hotspot and worst-case patterns.

Both patterns are defined at *group* granularity (W-groups for the
switch-less architecture, Dragonfly groups for the switch-based baseline),
so they take a ``group_nodes`` mapping rather than a raw scope:

* **hotspot** — all communication confined within ``num_hot`` groups; with
  minimal routing only the few global channels among those groups carry
  traffic (3 of 40 per group for the paper's radix-16 setup);
* **worst-case (WC)** — every node of group ``i`` sends to a random node
  of group ``i+1``; minimal routing then funnels each group's traffic
  through a single global channel.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Callable, List, Optional, Sequence

from ..network.vecrandom import DestRows
from ..topology.graph import NetworkGraph
from .base import TrafficPattern

__all__ = ["HotspotTraffic", "WorstCaseTraffic"]


class HotspotTraffic(TrafficPattern):
    """Uniform traffic confined to the first ``num_hot`` groups."""

    name = "hotspot"

    def __init__(
        self,
        graph: NetworkGraph,
        group_nodes: Callable[[int], Sequence[int]],
        num_groups: int,
        num_hot: int = 4,
    ):
        if num_hot < 2:
            raise ValueError("hotspot needs at least 2 groups")
        if num_hot > num_groups:
            raise ValueError(
                f"num_hot={num_hot} exceeds available groups {num_groups}"
            )
        scope: List[int] = []
        for gi in range(num_hot):
            scope.extend(group_nodes(gi))
        super().__init__(graph, scope)
        self.num_hot = num_hot

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        idx = self.index
        src_chip, _ = idx.node_pos[src]
        nchips = idx.num_chips
        d = rng.randrange(nchips - 1)
        if d >= src_chip:
            d += 1
        nodes = idx.chip_nodes[idx.chips[d]]
        return nodes[rng.randrange(len(nodes))]

    @cached_property
    def dest_rows(self) -> DestRows:
        return self.index.other_chip_rows(self.graph.num_nodes)


class WorstCaseTraffic(TrafficPattern):
    """Group ``i`` sends to random nodes of group ``(i+1) mod g``."""

    name = "worst-case"

    def __init__(
        self,
        graph: NetworkGraph,
        group_nodes: Callable[[int], Sequence[int]],
        num_groups: int,
    ):
        if num_groups < 2:
            raise ValueError("worst-case traffic needs >= 2 groups")
        self._groups: List[List[int]] = [
            list(group_nodes(gi)) for gi in range(num_groups)
        ]
        scope = [nid for grp in self._groups for nid in grp]
        super().__init__(graph, scope)
        self._target_group: dict = {}
        for gi, grp in enumerate(self._groups):
            tgt = (gi + 1) % num_groups
            for nid in grp:
                self._target_group[nid] = tgt

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        tgt = self._groups[self._target_group[src]]
        return tgt[rng.randrange(len(tgt))]

    @cached_property
    def dest_rows(self) -> DestRows:
        # one row per group; a source draws from its target group's
        nodes = self.index.nodes
        return DestRows.build(
            self.graph.num_nodes, self._groups, nodes,
            [self._target_group[nid] for nid in nodes],
        )
