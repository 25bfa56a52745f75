"""Channel-dependency-graph (CDG) deadlock verification.

Dally & Seitz: a routing function is deadlock free on a network with
credit-based flow control if the directed graph whose vertices are
``(link, virtual channel)`` pairs and whose edges connect consecutive
channels used by some packet is acyclic.  The switch-less Dragonfly's
whole Sec. IV is about making this graph acyclic with few VCs, so the
reproduction ships an explicit checker used throughout the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # imported by the functions that need it (~0.1 s)
    import networkx as nx

from ..topology.graph import NetworkGraph
from .base import RoutingAlgorithm, validate_path

__all__ = ["DeadlockReport", "channel_dependency_graph", "verify_deadlock_free"]


@dataclass
class DeadlockReport:
    """Outcome of a CDG acyclicity check."""

    acyclic: bool
    num_channels: int
    num_dependencies: int
    pairs_checked: int
    #: one dependency cycle as [(link, vc), ...] when not acyclic.
    cycle: Optional[List[Tuple[int, int]]] = None

    def __bool__(self) -> bool:
        return self.acyclic

    def describe(self, graph: Optional[NetworkGraph] = None) -> str:
        if self.acyclic:
            return (
                f"deadlock-free: {self.num_channels} channels, "
                f"{self.num_dependencies} dependencies, "
                f"{self.pairs_checked} pairs"
            )
        lines = [f"DEADLOCK RISK: cycle of {len(self.cycle or [])} channels"]
        if self.cycle and graph is not None:
            for lid, vc in self.cycle:
                link = graph.links[lid]
                lines.append(
                    f"  link {lid} vc {vc}: {link.src}->{link.dst} "
                    f"({link.klass})"
                )
        return "\n".join(lines)


def _iter_pairs(
    graph: NetworkGraph,
    pairs: Optional[Iterable[Tuple[int, int]]],
    max_pairs: Optional[int],
    rng: random.Random,
) -> List[Tuple[int, int]]:
    if max_pairs is not None and max_pairs < 1:
        raise ValueError(
            f"max_pairs must be a positive integer, got {max_pairs}"
        )
    if pairs is None:
        terms = graph.terminals()
        all_pairs = [
            (s, d) for s in terms for d in terms if s != d
        ]
    else:
        all_pairs = list(pairs)
    if max_pairs is not None and len(all_pairs) > max_pairs:
        all_pairs = rng.sample(all_pairs, max_pairs)
    return all_pairs


def channel_dependency_graph(
    graph: NetworkGraph,
    routing: RoutingAlgorithm,
    *,
    pairs: Optional[Iterable[Tuple[int, int]]] = None,
    max_pairs: Optional[int] = None,
    validate: bool = True,
    seed: int = 0,
) -> Tuple[nx.DiGraph, int]:
    """Build the CDG over all (sampled) source/destination pairs.

    Returns ``(cdg, pairs_checked)``.  Every route produced by
    ``routing.enumerate_routes`` contributes its consecutive-hop edges.
    """
    import networkx as nx

    rng = random.Random(seed)
    cdg = nx.DiGraph()
    checked = _iter_pairs(graph, pairs, max_pairs, rng)
    for src, dst in checked:
        for path in routing.enumerate_routes(src, dst):
            if validate:
                validate_path(graph, src, dst, path, num_vcs=routing.num_vcs)
            for a, b in zip(path, islice(path, 1, None)):
                cdg.add_edge(a, b)
            for hop in path:
                cdg.add_node(hop)
    return cdg, len(checked)


def verify_deadlock_free(
    graph: NetworkGraph,
    routing: RoutingAlgorithm,
    *,
    pairs: Optional[Iterable[Tuple[int, int]]] = None,
    max_pairs: Optional[int] = None,
    seed: int = 0,
) -> DeadlockReport:
    """Check the routing function's CDG for cycles.

    With ``pairs=None`` every ordered terminal pair is enumerated —
    exhaustive and exact for deterministic routings; use ``max_pairs`` to
    sample on very large systems.
    """
    import networkx as nx

    cdg, checked = channel_dependency_graph(
        graph, routing, pairs=pairs, max_pairs=max_pairs, seed=seed
    )
    try:
        cycle_edges = nx.find_cycle(cdg, orientation="original")
        cycle = [edge[0] for edge in cycle_edges]
        acyclic = False
    except nx.NetworkXNoCycle:
        cycle = None
        acyclic = True
    return DeadlockReport(
        acyclic=acyclic,
        num_channels=cdg.number_of_nodes(),
        num_dependencies=cdg.number_of_edges(),
        pairs_checked=checked,
        cycle=cycle,
    )
