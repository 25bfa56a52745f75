"""Degraded-topology construction: graph surgery plus health reporting.

A :class:`DegradedTopology` is a *view* over the healthy
:class:`~repro.topology.graph.NetworkGraph`: node and link ids are
unchanged (routes, simulator arrays and caches keep working), failed
links and nodes are simply excluded from adjacency, reachability and
route legality.  On top of the view it recomputes the properties the
paper's resilience argument rests on — connectivity, partitioning,
diameter and path-diversity loss — and exposes the BFS machinery the
fault-aware repair routing uses.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..topology.graph import NetworkGraph
from ..topology.properties import (
    component_summary,
    pair_path_diversity,
    surviving_networkx,
)
from .inject import FaultSet, sample_faults
from .spec import FaultSpec

__all__ = ["DegradedTopology", "degrade"]


class DegradedTopology:
    """A healthy graph minus a :class:`~repro.faults.inject.FaultSet`."""

    def __init__(self, graph: NetworkGraph, faults: FaultSet) -> None:
        self.graph = graph
        self.faults = faults
        self.failed_links = faults.failed_links
        self.failed_nodes = faults.failed_nodes

        # surviving directed adjacency: node -> [(peer, link id)], one
        # entry per adjacent peer carrying the lowest-id surviving
        # channel (parallel channels between the same pair — none in the
        # shipped topologies, which scale bandwidth via link *capacity*
        # — would collapse onto that one for repair routing), peers in
        # ascending order for deterministic BFS trees
        adj: Dict[int, List[Tuple[int, int]]] = {
            n.id: [] for n in graph.nodes if n.id not in self.failed_nodes
        }
        for link in graph.links:
            if link.id in self.failed_links:
                continue
            if link.src in self.failed_nodes or link.dst in self.failed_nodes:
                continue
            entries = adj[link.src]
            if not any(peer == link.dst for peer, _ in entries):
                entries.append((link.dst, link.id))
        for entries in adj.values():
            entries.sort()
        self._adj = adj

        # connected components over surviving channels
        self._component: Dict[int, int] = {}
        self._comp_members: List[List[int]] = []
        for nid in sorted(adj):
            if nid in self._component:
                continue
            comp = len(self._comp_members)
            members = [nid]
            self._component[nid] = comp
            queue = deque([nid])
            while queue:
                cur = queue.popleft()
                for peer, _lid in adj[cur]:
                    if peer not in self._component:
                        self._component[peer] = comp
                        members.append(peer)
                        queue.append(peer)
            self._comp_members.append(sorted(members))

    # ------------------------------------------------------------------
    # the view
    # ------------------------------------------------------------------
    def alive(self, nid: int) -> bool:
        return nid not in self.failed_nodes

    def link_ok(self, lid: int) -> bool:
        return lid not in self.failed_links

    def path_ok(self, path: Sequence[Tuple[int, int]]) -> bool:
        """Whether a ``[(link, vc), ...]`` route avoids every failure."""
        failed = self.failed_links
        return all(lid not in failed for lid, _vc in path)

    def reachable(self, a: int, b: int) -> bool:
        ca = self._component.get(a)
        return ca is not None and ca == self._component.get(b)

    def component_of(self, nid: int) -> Optional[int]:
        return self._component.get(nid)

    @cached_property
    def component_labels(self) -> np.ndarray:
        """The view as one int64 vector over the graph's nodes: a node's
        component, ``-1`` for a failed node.  ``alive(a)`` is ``lab[a] >=
        0`` and ``reachable(a, b)`` is ``lab[a] >= 0 and lab[a] ==
        lab[b]``."""
        lab = np.full(self.graph.num_nodes, -1, dtype=np.int64)
        lab[list(self._component)] = list(self._component.values())
        return lab

    def component_members(self, comp: int) -> List[int]:
        return self._comp_members[comp]

    @property
    def num_components(self) -> int:
        return len(self._comp_members)

    def neighbors(self, nid: int) -> List[Tuple[int, int]]:
        """Surviving ``(peer, link id)`` adjacency of ``nid`` (sorted)."""
        return self._adj.get(nid, [])

    def alive_terminals(self) -> List[int]:
        return [t for t in self.graph.terminals() if self.alive(t)]

    # ------------------------------------------------------------------
    # recomputed properties
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Undirected surviving channel graph (for analysis)."""
        return surviving_networkx(
            self.graph,
            failed_links=self.failed_links,
            failed_nodes=self.failed_nodes,
        )

    def properties(
        self,
        *,
        diameter_limit: int = 4096,
        diversity_pairs: int = 12,
        seed: int = 0,
    ) -> Dict[str, object]:
        """Connectivity / partition / diameter / diversity report.

        ``diameter_limit`` bounds the exact-diameter computation (it is
        O(V*E)); larger graphs report ``None``.  Path-diversity loss is
        the mean link-disjoint path count over sampled alive terminal
        pairs, healthy vs degraded.
        """
        graph = self.graph
        num_channels = graph.num_links // 2
        failed_channels = len(self.failed_links) // 2
        g = self.to_networkx()
        summary = component_summary(g, graph.terminals())

        diameter = avg_path = None
        comps = self._comp_members
        if comps:
            largest = max(comps, key=len)
            if len(largest) <= diameter_limit:
                import networkx as nx

                sub = g.subgraph(largest)
                diameter = nx.diameter(sub) if len(sub) > 1 else 0
                avg_path = (
                    nx.average_shortest_path_length(sub)
                    if len(sub) > 1
                    else 0.0
                )

        terms = self.alive_terminals()
        pairs = [
            (terms[i], terms[(i + len(terms) // 2) % len(terms)])
            for i in range(min(len(terms), diversity_pairs))
            if terms[i] != terms[(i + len(terms) // 2) % len(terms)]
        ]
        healthy = surviving_networkx(graph)
        diversity = pair_path_diversity(
            g, pairs, max_pairs=diversity_pairs, seed=seed
        )
        diversity_healthy = pair_path_diversity(
            healthy, pairs, max_pairs=diversity_pairs, seed=seed
        )

        return {
            "failed_channels": failed_channels,
            "failed_channel_fraction": (
                failed_channels / num_channels if num_channels else 0.0
            ),
            "failed_nodes": len(self.failed_nodes),
            "failed_chips": len(self.faults.failed_chips),
            "diameter": diameter,
            "average_shortest_path": avg_path,
            "path_diversity": diversity,
            "path_diversity_healthy": diversity_healthy,
            "path_diversity_loss": (
                1.0 - diversity / diversity_healthy
                if diversity_healthy
                else 0.0
            ),
            **summary,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DegradedTopology({self.graph.name!r}, "
            f"{self.faults.describe()}, "
            f"{self.num_components} component(s))"
        )


# ----------------------------------------------------------------------
# memoised construction (one degraded instance per (system, spec) pair)
# ----------------------------------------------------------------------
#: (id(system), spec) -> (system, DegradedTopology).  The strong system
#: reference keeps the id stable while the entry lives; bounded LRU-ish
#: eviction keeps the memo tiny (the executor holds at most 4 systems).
_MEMO: Dict[Tuple[int, FaultSpec], Tuple[object, DegradedTopology]] = {}
_MEMO_MAX = 8


def degrade(system, spec: FaultSpec) -> DegradedTopology:
    """Sample ``spec`` on ``system`` and build the degraded view.

    Memoised per ``(system instance, spec)`` so the engine's per-point
    rebuilds share one BFS/component computation per fault instance.
    """
    key = (id(system), spec)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit[1]
    graph = getattr(system, "graph", system)
    degraded = DegradedTopology(graph, sample_faults(system, spec))
    if len(_MEMO) >= _MEMO_MAX:
        _MEMO.pop(next(iter(_MEMO)))
    _MEMO[key] = (system, degraded)
    return degraded
