"""Graph-level topology properties: diameter, path length, bisection.

Used to cross-check the analytical models (Eqs. 2-7) against the actual
built router graphs via networkx.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # imported by the functions that need it (~0.1 s)
    import networkx as nx

from .graph import NetworkGraph

__all__ = [
    "hop_diameter",
    "average_shortest_path",
    "terminal_diameter",
    "bisection_channels",
    "degree_histogram",
    "surviving_networkx",
    "component_summary",
    "pair_path_diversity",
]


def hop_diameter(graph: NetworkGraph) -> int:
    """Diameter in router hops of the undirected channel graph."""
    import networkx as nx

    return nx.diameter(graph.to_networkx())


def average_shortest_path(graph: NetworkGraph) -> float:
    import networkx as nx

    return nx.average_shortest_path_length(graph.to_networkx())


def terminal_diameter(graph: NetworkGraph) -> int:
    """Max shortest-path hops between any two terminals."""
    import networkx as nx

    g = graph.to_networkx()
    terms = graph.terminals()
    best = 0
    for src in terms:
        lengths = nx.single_source_shortest_path_length(g, src)
        best = max(best, max(lengths[t] for t in terms))
    return best


def bisection_channels(
    graph: NetworkGraph, partition_a: list, partition_b: list
) -> int:
    """Directed channels crossing a given node bipartition."""
    in_a = set(partition_a)
    in_b = set(partition_b)
    count = 0
    for link in graph.links:
        if link.src in in_a and link.dst in in_b:
            count += link.capacity
        elif link.src in in_b and link.dst in in_a:
            count += link.capacity
    return count


def degree_histogram(graph: NetworkGraph) -> Dict[int, int]:
    """Out-degree histogram of the router graph."""
    hist: Dict[int, int] = {}
    for node in graph.nodes:
        d = graph.degree_out(node.id)
        hist[d] = hist.get(d, 0) + 1
    return hist


# ----------------------------------------------------------------------
# degraded-graph views (used by repro.faults)
# ----------------------------------------------------------------------
def surviving_networkx(
    graph: NetworkGraph,
    *,
    failed_links: Iterable[int] = (),
    failed_nodes: Iterable[int] = (),
) -> nx.Graph:
    """Undirected channel graph with the given failures removed.

    A channel survives only if *some* directed link between its endpoint
    pair survives in each direction; the full-duplex failure closure of
    :mod:`repro.faults.inject` keeps both directions in sync, so the
    forward direction alone decides.
    """
    import networkx as nx

    dead_links = set(failed_links)
    dead_nodes = set(failed_nodes)
    g = nx.Graph()
    for node in graph.nodes:
        if node.id not in dead_nodes:
            g.add_node(node.id, kind=node.kind, chip=node.chip)
    for link in graph.links:
        if link.id in dead_links or link.src > link.dst:
            continue
        if link.src in dead_nodes or link.dst in dead_nodes:
            continue
        g.add_edge(link.src, link.dst, klass=link.klass)
    return g


def component_summary(
    g: nx.Graph, terminals: Sequence[int]
) -> Dict[str, object]:
    """Connectivity summary of a (possibly degraded) undirected graph."""
    import networkx as nx

    terms = [t for t in terminals if t in g]
    comps = [set(c) for c in nx.connected_components(g)] if len(g) else []
    comps.sort(key=len, reverse=True)
    term_comps = [c for c in comps if any(t in c for t in terms)]
    largest_terms = (
        max((sum(1 for t in terms if t in c) for c in term_comps), default=0)
    )
    isolated = sum(
        1 for t in terms if t in g and g.degree(t) == 0
    )
    return {
        "num_components": len(comps),
        "num_terminal_components": len(term_comps),
        "connected": len(term_comps) <= 1,
        "largest_component_terminals": largest_terms,
        "terminal_reach_fraction": (
            largest_terms / len(terms) if terms else 0.0
        ),
        "isolated_terminals": isolated,
    }


def pair_path_diversity(
    g: nx.Graph,
    pairs: Sequence[Tuple[int, int]],
    *,
    max_pairs: int = 16,
    seed: int = 0,
) -> float:
    """Mean edge connectivity (link-disjoint path count) over sampled pairs.

    Unreachable or missing-node pairs count as zero diversity, so the
    metric degrades smoothly as failures partition the network.
    """
    import networkx as nx

    pairs = list(pairs)
    if not pairs:
        return 0.0
    if len(pairs) > max_pairs:
        pairs = random.Random(seed).sample(pairs, max_pairs)
    total = 0.0
    for a, b in pairs:
        if a in g and b in g and nx.has_path(g, a, b):
            total += nx.edge_connectivity(g, a, b)
    return total / len(pairs)
