"""Trace-based transmission energy accounting (Sec. V-C, Fig. 15).

The paper evaluates energy "based on the energy per physical channel
rather than directly comparing the chip power": run uniform traffic,
collect each packet's hop trace, and charge every hop its Table II class
energy.  Because routes are oblivious, the trace does not require the
cycle simulator — sampling source/destination pairs and walking the
routes gives the exact expectation.

Energy tables are pJ/bit by link class, read off
:data:`~repro.topology.graph.HOP_COSTS`.  ``TABLE_II_ENERGY`` holds the
raw Table II values; ``FIG15_ENERGY`` follows the paper's simplification
"an intra-C-group hop takes 1 pJ/bit on average".
The paper also notes the baseline's switches are themselves NoC-based
and thus underestimated — we follow that convention (switch traversal
costs nothing beyond its channels).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Sequence

from ..network.packet import Hop
from ..topology.graph import HOP_COSTS, NetworkGraph

__all__ = [
    "TABLE_II_ENERGY",
    "FIG15_ENERGY",
    "EnergyBreakdown",
    "path_energy",
    "average_energy",
]

#: raw Table II per-bit energies by link class.
TABLE_II_ENERGY: Dict[str, float] = {
    k: c.energy_pj_per_bit for k, c in HOP_COSTS.items()
}

#: Fig. 15 simplification: intra-C-group hops lumped at 1 pJ/bit.
FIG15_ENERGY: Dict[str, float] = {
    k: 1.0 if c.intra_cgroup else c.energy_pj_per_bit
    for k, c in HOP_COSTS.items()
}

#: link classes counted as intra-C-group transport.
INTRA_CLASSES = tuple(k for k, c in HOP_COSTS.items() if c.intra_cgroup)


@dataclass
class EnergyBreakdown:
    """Average per-bit transmission energy split as in Fig. 15."""

    #: pJ/bit spent on long-reach channels (local/global/terminal).
    inter_cgroup_pj: float
    #: pJ/bit spent on on-wafer hops (on-chip + short-reach).
    intra_cgroup_pj: float
    #: average hop count per class.
    hops_per_class: Dict[str, float]
    #: number of sampled packets.
    samples: int

    @property
    def total_pj(self) -> float:
        return self.inter_cgroup_pj + self.intra_cgroup_pj


def path_energy(
    graph: NetworkGraph,
    path: Sequence[Hop],
    table: Dict[str, float] = FIG15_ENERGY,
) -> Dict[str, float]:
    """Energy per class (pJ/bit) of one route."""
    out: Dict[str, float] = {}
    for lid, _vc in path:
        klass = graph.links[lid].klass
        out[klass] = out.get(klass, 0.0) + table[klass]
    return out


def average_energy(
    graph: NetworkGraph,
    routing,
    traffic,
    *,
    table: Dict[str, float] = FIG15_ENERGY,
    samples: int = 2000,
    seed: int = 0,
) -> EnergyBreakdown:
    """Average per-bit energy under a traffic pattern.

    Draws ``samples`` (source, destination) pairs from the pattern and
    averages route energy; with oblivious routing this converges to the
    true expectation without cycle simulation.
    """
    rng = random.Random(seed)
    nodes = list(traffic.active_nodes())
    if not nodes:
        raise ValueError("traffic pattern has no active nodes")
    intra = 0.0
    inter = 0.0
    hop_counts: Dict[str, float] = {}
    done = 0
    attempts = 0
    while done < samples and attempts < samples * 20:
        attempts += 1
        src = nodes[rng.randrange(len(nodes))]
        dst = traffic.dest(src, rng)
        if dst is None or dst == src:
            continue
        path = routing.route(src, dst, rng)
        for lid, _vc in path:
            klass = graph.links[lid].klass
            hop_counts[klass] = hop_counts.get(klass, 0.0) + 1.0
            if klass in INTRA_CLASSES:
                intra += table[klass]
            else:
                inter += table[klass]
        done += 1
    if done == 0:
        raise ValueError("could not sample any packets")
    return EnergyBreakdown(
        inter_cgroup_pj=inter / done,
        intra_cgroup_pj=intra / done,
        hops_per_class={k: v / done for k, v in hop_counts.items()},
        samples=done,
    )
