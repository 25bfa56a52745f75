"""Directed-multigraph network substrate shared by every topology.

Every simulated topology (the switch-based Dragonfly, the 2D mesh and the
single switch of this package, and the switch-less Dragonfly-on-wafers of
:mod:`repro.core`) is lowered to the same representation: a
:class:`NetworkGraph` of :class:`Node` routers connected by *directed*
:class:`Link` channels.  A full-duplex physical channel is represented as
two directed links (see :meth:`NetworkGraph.add_channel`).

Every link carries the attributes the paper's evaluation depends on:

``latency``
    cycles a flit spends in flight on the link (by default its class's
    Table IV delay).
``capacity``
    flits accepted per cycle; the paper's "2B"/"4B" configurations double or
    quadruple the intra-C-group capacity (Sec. V-B).
``klass``
    one of :data:`LINK_CLASSES`; its :data:`HOP_COSTS` row is what the
    Table II hop model, the Fig. 15 energy accounting and the builders'
    default delays read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Tuple,
)

if TYPE_CHECKING:  # networkx costs ~0.1 s to import; only analysis needs it
    import networkx as nx

__all__ = [
    "HOP_COSTS",
    "HopCost",
    "LINK_CLASSES",
    "Node",
    "Link",
    "NetworkGraph",
]


@dataclass(frozen=True)
class HopCost:
    """What one hop over a link class costs."""

    #: Table II hop name.
    name: str
    medium: str
    #: Table II latency; long-reach hops add time-of-flight to it.
    latency_ns: float
    #: Table II transport energy.
    energy_pj_per_bit: float
    #: whether the hop stays inside a C-group (Fig. 15's split).
    intra_cgroup: bool
    #: default link delay in cycles (Table IV).
    cycles: int


_HL = HopCost("Hl", "Copper Cable", 150.0, 20.0, False, 8)

#: Per-hop cost of each link class, the one source of the paper's
#: per-class numbers:
#:
#: ``onchip``    hop inside a chiplet's NoC
#: ``sr``        on-wafer short-reach hop, incl. SR-LR conversion
#: ``local``     long-reach intra-group channel
#: ``global``    long-reach inter-group channel (Hl's cost, optical)
#: ``terminal``  processor-to-switch channel (H*_l, costed as Hl)
HOP_COSTS: Dict[str, HopCost] = {
    "onchip": HopCost("Hon-chip", "Metal Layer", 1.0, 0.1, True, 1),
    "sr": HopCost("Hsr", "RDL", 5.0, 2.0, True, 1),
    "local": _HL,
    "global": replace(_HL, name="Hg", medium="Optical Cable"),
    "terminal": _HL,
}

#: Recognised link classes.
LINK_CLASSES = tuple(HOP_COSTS)


@dataclass(frozen=True)
class Node:
    """A router (switch, on-chip router, or terminal adapter).

    Parameters
    ----------
    id:
        Dense integer id, index into :attr:`NetworkGraph.nodes`.
    kind:
        Free-form role tag, e.g. ``"switch"``, ``"core"``, ``"terminal"``.
    chip:
        Chip id this node belongs to.  Injection rates in the paper are
        normalised per *chip* (flits/cycle/chip); several on-chip nodes may
        share a chip in the switch-less architecture.
    is_terminal:
        Whether traffic may be injected at / ejected to this node.
    coords:
        Optional structured coordinates (e.g. ``(wgroup, cgroup, y, x)``).
    """

    id: int
    kind: str
    chip: int
    is_terminal: bool
    coords: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Link:
    """A directed channel between two routers."""

    id: int
    src: int
    dst: int
    latency: int
    capacity: int
    klass: str

    def __post_init__(self) -> None:
        if self.klass not in LINK_CLASSES:
            raise ValueError(f"unknown link class {self.klass!r}")
        if self.latency < 1:
            raise ValueError("link latency must be >= 1 cycle")
        if self.capacity < 1:
            raise ValueError("link capacity must be >= 1 flit/cycle")


class NetworkGraph:
    """Mutable builder + immutable-ish container for a router network.

    The graph is a directed multigraph: parallel links between the same
    (src, dst) pair are allowed and kept in insertion order (used e.g. when a
    C-group exposes several ports toward the same peer C-group).
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self.nodes: List[Node] = []
        self.links: List[Link] = []
        # src -> dst -> [link ids] (insertion order preserved)
        self._adj: Dict[int, Dict[int, List[int]]] = {}
        # chip id -> [node ids]
        self._chips: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        kind: str,
        chip: int,
        *,
        is_terminal: bool = True,
        coords: Tuple[int, ...] = (),
    ) -> int:
        """Add a router and return its dense id."""
        nid = len(self.nodes)
        node = Node(nid, kind, chip, is_terminal, coords)
        self.nodes.append(node)
        self._adj[nid] = {}
        if is_terminal:
            self._chips.setdefault(chip, []).append(nid)
        return nid

    def add_link(
        self,
        src: int,
        dst: int,
        *,
        latency: int,
        capacity: int = 1,
        klass: str = "sr",
    ) -> int:
        """Add one directed link and return its id."""
        if src == dst:
            raise ValueError("self-links are not allowed")
        for nid in (src, dst):
            if not 0 <= nid < len(self.nodes):
                raise KeyError(f"node {nid} does not exist")
        lid = len(self.links)
        self.links.append(
            Link(lid, src, dst, latency, capacity, klass)
        )
        self._adj[src].setdefault(dst, []).append(lid)
        return lid

    def add_channel(
        self,
        a: int,
        b: int,
        *,
        latency: int,
        capacity: int = 1,
        klass: str = "sr",
    ) -> Tuple[int, int]:
        """Add a full-duplex channel (two directed links a->b and b->a)."""
        fwd = self.add_link(
            a, b, latency=latency, capacity=capacity, klass=klass
        )
        rev = self.add_link(
            b, a, latency=latency, capacity=capacity, klass=klass
        )
        return fwd, rev

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def num_chips(self) -> int:
        return len(self._chips)

    def chips(self) -> Dict[int, List[int]]:
        """chip id -> terminal node ids (do not mutate)."""
        return self._chips

    def terminals(self) -> List[int]:
        """All node ids that can inject/eject traffic."""
        return [n.id for n in self.nodes if n.is_terminal]

    def links_between(self, src: int, dst: int) -> List[int]:
        """Link ids of all directed links src -> dst ([] if none)."""
        return list(self._adj.get(src, {}).get(dst, []))

    def link_between(self, src: int, dst: int, index: int = 0) -> int:
        """The ``index``-th directed link src -> dst; KeyError if missing."""
        lids = self._adj.get(src, {}).get(dst, [])
        if index >= len(lids):
            raise KeyError(f"no link #{index} from {src} to {dst}")
        return lids[index]

    def has_link(self, src: int, dst: int) -> bool:
        return bool(self._adj.get(src, {}).get(dst))

    def neighbors_out(self, src: int) -> List[int]:
        return list(self._adj.get(src, {}).keys())

    def out_links(self, src: int) -> Iterator[Link]:
        for lids in self._adj.get(src, {}).values():
            for lid in lids:
                yield self.links[lid]

    def in_links(self, dst: int) -> List[Link]:
        """All links ending at ``dst`` (O(E); cached by the simulator)."""
        return [l for l in self.links if l.dst == dst]

    def degree_out(self, src: int) -> int:
        return sum(len(v) for v in self._adj.get(src, {}).values())

    # ------------------------------------------------------------------
    # validation and export
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        for link in self.links:
            rev = self._adj.get(link.dst, {}).get(link.src, [])
            if not rev:
                raise ValueError(
                    f"link {link.id} ({link.src}->{link.dst}) has no "
                    "reverse: all channels must be full-duplex"
                )
        if not any(n.is_terminal for n in self.nodes):
            raise ValueError("network has no terminals")

    def to_networkx(self, *, multigraph: bool = False) -> nx.Graph:
        """Export the undirected channel graph for analysis.

        Each full-duplex channel becomes one undirected edge with the
        forward link's attributes.  With ``multigraph=True`` parallel
        channels are preserved (needed for exact bisection counts).
        """
        import networkx as nx

        g: nx.Graph = nx.MultiGraph() if multigraph else nx.Graph()
        for node in self.nodes:
            g.add_node(node.id, kind=node.kind, chip=node.chip)
        seen = set()
        for link in self.links:
            key = (min(link.src, link.dst), max(link.src, link.dst))
            if not multigraph and key in seen:
                continue
            if multigraph:
                # add one undirected edge per directed pair; skip reverse dir
                if link.src > link.dst:
                    continue
            seen.add(key)
            g.add_edge(
                link.src,
                link.dst,
                latency=link.latency,
                capacity=link.capacity,
                klass=link.klass,
            )
        return g

    def link_class_counts(self) -> Dict[str, int]:
        """Directed link count per class (for cost accounting)."""
        counts: Dict[str, int] = {}
        for link in self.links:
            counts[link.klass] = counts.get(link.klass, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkGraph({self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links}, chips={self.num_chips})"
        )
