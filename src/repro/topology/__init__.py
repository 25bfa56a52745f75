"""Network topologies lowered to the shared router-graph substrate."""

from .dragonfly import DragonflyConfig, DragonflySystem, build_dragonfly
from .graph import HOP_COSTS, LINK_CLASSES, HopCost, Link, NetworkGraph, Node
from .mesh import (
    MeshBlock,
    MeshSpec,
    SwitchBlock,
    build_mesh,
    build_switch_with_terminals,
)
from .properties import (
    average_shortest_path,
    bisection_channels,
    degree_histogram,
    hop_diameter,
    terminal_diameter,
)

__all__ = [
    "HOP_COSTS", "HopCost", "LINK_CLASSES", "Link", "NetworkGraph", "Node",
    "DragonflyConfig", "DragonflySystem", "build_dragonfly",
    "MeshBlock", "MeshSpec", "SwitchBlock", "build_mesh",
    "build_switch_with_terminals",
    "average_shortest_path", "bisection_channels", "degree_histogram",
    "hop_diameter", "terminal_diameter",
]
