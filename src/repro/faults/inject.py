"""Realise a :class:`~repro.faults.spec.FaultSpec` against a built system.

Sampling is deterministic: a dedicated ``random.Random(spec.seed)``
stream is consumed in a fixed iteration order (channels by ascending
forward-link id, chips by ascending id, wafers by ascending id), so the
same ``(system, spec)`` pair always yields the same :class:`FaultSet` —
in this process, in a pool worker, or in a later session replaying the
cache.

Failure closure: a failed *channel* takes both directed links with it
(full-duplex PHYs share the physical medium), and a failed *die* takes
every node of the chip plus every channel attached to those nodes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Set, Tuple

from ..layout import WaferMap
from ..topology.graph import NetworkGraph
from .spec import FaultSpec

__all__ = ["DefectCluster", "FaultSet", "channel_reverse", "sample_faults"]


@dataclass(frozen=True)
class DefectCluster:
    """One spatial defect cluster sampled by the yield model."""

    wafer: int
    x_mm: float
    y_mm: float
    radius_mm: float


@dataclass(frozen=True)
class FaultSet:
    """Concrete failures on one system instance (closure already applied)."""

    #: failed *directed* link ids (both directions of each dead channel).
    failed_links: FrozenSet[int]
    #: dead node ids (nodes of failed dies).
    failed_nodes: FrozenSet[int]
    #: failed chip (die) ids.
    failed_chips: FrozenSet[int]
    #: defect clusters that produced the failures (yield model only).
    defects: Tuple[DefectCluster, ...] = ()

    @classmethod
    def empty(cls) -> "FaultSet":
        return cls(frozenset(), frozenset(), frozenset())

    @property
    def is_empty(self) -> bool:
        return not (self.failed_links or self.failed_nodes)

    def describe(self) -> str:
        return (
            f"{len(self.failed_links) // 2} channel(s), "
            f"{len(self.failed_chips)} die(s), "
            f"{len(self.failed_nodes)} node(s) failed"
        )


def channel_reverse(graph: NetworkGraph, lid: int) -> int:
    """The reverse directed link of ``lid``'s full-duplex channel.

    Parallel channels between the same node pair are paired by index:
    the ``i``-th forward link corresponds to the ``i``-th reverse link,
    which holds for every builder because channels are added via
    :meth:`~repro.topology.graph.NetworkGraph.add_channel`.
    """
    link = graph.links[lid]
    fwd = graph.links_between(link.src, link.dst)
    rev = graph.links_between(link.dst, link.src)
    idx = fwd.index(lid)
    if idx >= len(rev):
        raise ValueError(f"link {lid} has no reverse channel half")
    return rev[idx]


def _fail_channel(graph: NetworkGraph, lid: int, failed: Set[int]) -> None:
    failed.add(lid)
    failed.add(channel_reverse(graph, lid))


def _fail_chips(
    graph: NetworkGraph,
    chips: Iterable[int],
    failed_links: Set[int],
    failed_nodes: Set[int],
    failed_chips: Set[int],
) -> None:
    """Die-failure closure: kill the chip's nodes and attached channels."""
    chip_nodes = graph.chips()
    for chip in chips:
        if chip not in chip_nodes:
            raise ValueError(f"chip {chip} does not exist in {graph.name}")
        failed_chips.add(chip)
        for nid in chip_nodes[chip]:
            failed_nodes.add(nid)
    for link in graph.links:
        if link.src in failed_nodes or link.dst in failed_nodes:
            failed_links.add(link.id)


def _forward_links(graph: NetworkGraph, classes: Tuple[str, ...]) -> List[int]:
    """Canonical (one-per-channel) link ids of the eligible classes.

    The canonical half is the one whose id is smaller than its
    reverse's, so every channel is considered exactly once, in a stable
    order.
    """
    out = []
    for link in graph.links:
        if link.klass not in classes:
            continue
        if link.id < channel_reverse(graph, link.id):
            out.append(link.id)
    return out


def _sample_random(
    graph: NetworkGraph, spec: FaultSpec, rng: random.Random
) -> FaultSet:
    failed_links: Set[int] = set()
    failed_nodes: Set[int] = set()
    failed_chips: Set[int] = set()
    if spec.link_rate > 0:
        for lid in _forward_links(graph, spec.link_classes):
            if rng.random() < spec.link_rate:
                _fail_channel(graph, lid, failed_links)
    if spec.die_rate > 0:
        dead = [
            chip
            for chip in sorted(graph.chips())
            if rng.random() < spec.die_rate
        ]
        _fail_chips(graph, dead, failed_links, failed_nodes, failed_chips)
    return FaultSet(
        frozenset(failed_links), frozenset(failed_nodes),
        frozenset(failed_chips),
    )


def _sample_fixed(graph: NetworkGraph, spec: FaultSpec) -> FaultSet:
    failed_links: Set[int] = set()
    failed_nodes: Set[int] = set()
    failed_chips: Set[int] = set()
    for a, b in spec.failed_channels:
        lids = graph.links_between(a, b)
        if not lids:
            raise ValueError(
                f"fixed fault names channel ({a}, {b}) but "
                f"{graph.name} has no link there"
            )
        for lid in lids:
            _fail_channel(graph, lid, failed_links)
    _fail_chips(
        graph, spec.failed_chips, failed_links, failed_nodes, failed_chips
    )
    return FaultSet(
        frozenset(failed_links), frozenset(failed_nodes),
        frozenset(failed_chips),
    )


def _disk_in_wafer(
    rng: random.Random, wafer_radius: float
) -> Tuple[float, float]:
    """Uniform defect centre within the wafer circle (rejection sampled)."""
    while True:
        x = rng.uniform(0.0, 2.0 * wafer_radius)
        y = rng.uniform(0.0, 2.0 * wafer_radius)
        if math.hypot(x - wafer_radius, y - wafer_radius) <= wafer_radius:
            return x, y


def _poisson(mean: float, rng: random.Random) -> int:
    """Knuth's product method; defect counts per wafer are tiny."""
    if mean <= 0:
        return 0
    limit = math.exp(-mean)
    n, prod = 0, rng.random()
    while prod > limit:
        n += 1
        prod *= rng.random()
    return n


def _sample_yield(
    system, spec: FaultSpec, rng: random.Random
) -> FaultSet:
    # defects map through the paper's Fig. 9 floorplan (WaferMap's
    # default CGroupLayoutSpec); custom floorplans would need a layout
    # axis on FaultSpec itself to stay cache-hashable
    graph: NetworkGraph = system.graph
    wmap = WaferMap(system)
    defects: List[DefectCluster] = []
    for wafer in range(wmap.num_wafers):
        for _ in range(_poisson(spec.defects_per_wafer, rng)):
            x, y = _disk_in_wafer(rng, wmap.wafer_radius_mm)
            defects.append(
                DefectCluster(wafer, x, y, spec.defect_radius_mm)
            )

    failed_links: Set[int] = set()
    failed_nodes: Set[int] = set()
    failed_chips: Set[int] = set()
    hit_nodes: Set[int] = set()
    dead_chips: Set[int] = set()
    for d in defects:
        hit_nodes.update(wmap.nodes_within(d.wafer, d.x_mm, d.y_mm, d.radius_mm))
        dead_chips.update(wmap.chips_within(d.wafer, d.x_mm, d.y_mm, d.radius_mm))
    # a defect over a node's site severs the PHYs there: every eligible
    # channel with an endpoint at a hit node dies
    for link in graph.links:
        if link.klass not in spec.link_classes:
            continue
        if link.src in hit_nodes or link.dst in hit_nodes:
            _fail_channel(graph, link.id, failed_links)
    _fail_chips(
        graph, sorted(dead_chips), failed_links, failed_nodes, failed_chips
    )
    return FaultSet(
        frozenset(failed_links), frozenset(failed_nodes),
        frozenset(failed_chips), tuple(defects),
    )


def sample_faults(system, spec: FaultSpec) -> FaultSet:
    """Sample the concrete :class:`FaultSet` of ``spec`` on ``system``.

    ``system`` is any built system object exposing ``.graph``; the
    ``yield`` model additionally needs the wafer-integrated switch-less
    system (it maps defects through :class:`repro.layout.WaferMap`).
    """
    graph: NetworkGraph = getattr(system, "graph", None) or system
    if not isinstance(graph, NetworkGraph):
        raise TypeError(f"cannot sample faults on {type(system).__name__}")
    if spec.is_null:
        return FaultSet.empty()
    rng = random.Random(spec.seed)
    if spec.model == "random":
        return _sample_random(graph, spec, rng)
    if spec.model == "fixed":
        return _sample_fixed(graph, spec)
    return _sample_yield(system, spec, rng)
