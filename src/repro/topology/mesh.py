"""2D-mesh building blocks and switch-attached baselines.

Two roles:

* the on-wafer 2D-mesh of chiplets used inside every C-group of the
  switch-less Dragonfly (Fig. 3(b)), where nodes are on-chip routers and
  chips are ``chiplet_dim x chiplet_dim`` blocks of nodes;
* the standalone baseline of Fig. 10(a) — a non-blocking switch with
  directly attached terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graph import HOP_COSTS, NetworkGraph

__all__ = [
    "MeshSpec",
    "MeshBlock",
    "build_mesh",
    "xy_links",
    "SwitchBlock",
    "build_switch_with_terminals",
]


@dataclass(frozen=True)
class MeshSpec:
    """Geometry and link parameters of one square 2D mesh.

    ``dim`` is the number of on-chip routers (nodes) per side;
    ``chiplet_dim`` the number of nodes per chiplet side (must divide
    ``dim``).  Links between nodes of the same chiplet are ``onchip``
    class; links crossing a chiplet boundary are on-wafer short-reach
    (``sr``).  ``capacity`` is the paper's intra-C-group bandwidth knob
    (1 = base, 2 = "2B", 4 = "4B").
    """

    dim: int
    chiplet_dim: int = 1
    sr_latency: int = HOP_COSTS["sr"].cycles
    onchip_latency: int = HOP_COSTS["onchip"].cycles
    capacity: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("mesh dim must be >= 1")
        if self.chiplet_dim < 1 or self.dim % self.chiplet_dim != 0:
            raise ValueError(
                f"chiplet_dim {self.chiplet_dim} must divide dim {self.dim}"
            )
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")

    @property
    def num_nodes(self) -> int:
        return self.dim * self.dim

    @property
    def chips_per_side(self) -> int:
        return self.dim // self.chiplet_dim

    @property
    def num_chips(self) -> int:
        return self.chips_per_side ** 2


@dataclass
class MeshBlock:
    """A mesh instantiated inside a :class:`NetworkGraph`.

    Provides coordinate lookups used by routing (XY paths need grid
    coordinates) and by the C-group port machinery (perimeter walk).
    """

    spec: MeshSpec
    graph: NetworkGraph
    #: node id at grid position [y][x].
    grid: List[List[int]]
    #: (y, x) of each node id local to this block.
    coords: Dict[int, Tuple[int, int]]
    #: chip ids used by this block, row-major over chiplet blocks.
    chips: List[int]

    @property
    def num_nodes(self) -> int:
        return self.spec.num_nodes

    def node_at(self, y: int, x: int) -> int:
        return self.grid[y][x]

    def snake_chip_nodes(self) -> List[int]:
        """Node ids chip-by-chip in boustrophedon (snake) chip order.

        Consecutive chips in this order are mesh-adjacent, which is the
        chip ring the paper's collective analysis assumes (Fig. 4(b)):
        ring neighbours exchange over direct on-wafer links instead of
        diagonals.  Nodes within a chip stay row-major.
        """
        cps = self.spec.chips_per_side
        cd = self.spec.chiplet_dim
        out: List[int] = []
        for r in range(cps):
            cols = range(cps) if r % 2 == 0 else range(cps - 1, -1, -1)
            for c in cols:
                for y in range(r * cd, (r + 1) * cd):
                    for x in range(c * cd, (c + 1) * cd):
                        out.append(self.grid[y][x])
        return out

    def perimeter_nodes(self) -> List[int]:
        """Perimeter node ids in clockwise order from the top-left corner.

        For ``dim == 1`` this is the single node.  The order matters: the
        C-group port machinery assigns external ports along this walk.
        """
        d = self.spec.dim
        if d == 1:
            return [self.grid[0][0]]
        out: List[int] = []
        for x in range(d):  # top edge, left->right
            out.append(self.grid[0][x])
        for y in range(1, d):  # right edge, top->bottom
            out.append(self.grid[y][d - 1])
        for x in range(d - 2, -1, -1):  # bottom edge, right->left
            out.append(self.grid[d - 1][x])
        for y in range(d - 2, 0, -1):  # left edge, bottom->top
            out.append(self.grid[y][0])
        return out


def build_mesh(
    spec: MeshSpec,
    graph: Optional[NetworkGraph] = None,
    *,
    chip_base: int = 0,
    coord_prefix: Tuple[int, ...] = (),
    node_kind: str = "core",
) -> MeshBlock:
    """Instantiate a mesh into ``graph`` (a fresh one if None).

    Chips are ``chiplet_dim``-square blocks of nodes numbered row-major
    starting at ``chip_base``.  Node coords are ``coord_prefix + (y, x)``.
    """
    if graph is None:
        graph = NetworkGraph(f"mesh{spec.dim}x{spec.dim}")
    d = spec.dim
    cd = spec.chiplet_dim
    grid: List[List[int]] = []
    coords: Dict[int, Tuple[int, int]] = {}
    chips_seen: List[int] = []
    for y in range(d):
        row = []
        for x in range(d):
            chip = chip_base + (y // cd) * spec.chips_per_side + (x // cd)
            nid = graph.add_node(
                node_kind, chip, is_terminal=True,
                coords=coord_prefix + (y, x),
            )
            row.append(nid)
            coords[nid] = (y, x)
            if chip not in chips_seen:
                chips_seen.append(chip)
        grid.append(row)
    # grid channels
    for y in range(d):
        for x in range(d):
            if x + 1 < d:
                same_chip = (x // cd) == ((x + 1) // cd)
                graph.add_channel(
                    grid[y][x], grid[y][x + 1],
                    latency=spec.onchip_latency if same_chip else spec.sr_latency,
                    capacity=spec.capacity,
                    klass="onchip" if same_chip else "sr",
                )
            if y + 1 < d:
                same_chip = (y // cd) == ((y + 1) // cd)
                graph.add_channel(
                    grid[y][x], grid[y + 1][x],
                    latency=spec.onchip_latency if same_chip else spec.sr_latency,
                    capacity=spec.capacity,
                    klass="onchip" if same_chip else "sr",
                )
    return MeshBlock(spec, graph, grid, coords, chips_seen)


def xy_links(block: "MeshBlock", src: int, dst: int) -> List[int]:
    """Link ids of the XY (X first, then Y) dimension-order path.

    XY routing is deadlock free on a mesh with a single VC; it is the
    intra-C-group routing of the paper's baseline VC scheme (Sec. IV-A).
    """
    graph = block.graph
    sy, sx = block.coords[src]
    dy, dx = block.coords[dst]
    links: List[int] = []
    y, x = sy, sx
    step = 1 if dx > x else -1
    while x != dx:
        nxt = block.grid[y][x + step]
        links.append(graph.link_between(block.grid[y][x], nxt))
        x += step
    step = 1 if dy > y else -1
    while y != dy:
        nxt = block.grid[y + step][x]
        links.append(graph.link_between(block.grid[y][x], nxt))
        y += step
    return links


# ----------------------------------------------------------------------
# switch-with-terminals baseline
# ----------------------------------------------------------------------
@dataclass
class SwitchBlock:
    """A single crossbar switch with directly attached terminals."""

    graph: NetworkGraph
    switch: int
    terminals: List[int]


def build_switch_with_terminals(
    num_terminals: int,
    *,
    graph: Optional[NetworkGraph] = None,
    terminal_latency: int = 1,
    terminal_klass: str = "terminal",
    capacity: int = 1,
    chip_base: int = 0,
) -> SwitchBlock:
    """The Fig. 10(a) "Switch" baseline: one chip per switch port.

    The switch node itself is not a terminal; its radix for simulation
    purposes is ``num_terminals`` (every port non-blocking, arbitration
    still applies per output link, which is what makes the single
    injection/ejection channel per chip the bottleneck — the paper's
    point).
    """
    if graph is None:
        graph = NetworkGraph(f"switch{num_terminals}")
    switch = graph.add_node("switch", chip=-1, is_terminal=False)
    terms: List[int] = []
    for i in range(num_terminals):
        t = graph.add_node("terminal", chip=chip_base + i, is_terminal=True)
        graph.add_channel(
            t, switch,
            latency=terminal_latency,
            capacity=capacity,
            klass=terminal_klass,
        )
        terms.append(t)
    return SwitchBlock(graph, switch, terms)
