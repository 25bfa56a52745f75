"""Network topologies lowered to the shared router-graph substrate."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".graph": [
        "HOP_COSTS", "HopCost", "LINK_CLASSES", "Link", "NetworkGraph",
        "Node",
    ],
    ".dragonfly": ["DragonflyConfig", "DragonflySystem", "build_dragonfly"],
    ".mesh": [
        "MeshBlock", "MeshSpec", "SwitchBlock", "build_mesh",
        "build_switch_with_terminals",
    ],
    ".properties": [
        "average_shortest_path", "bisection_channels", "degree_histogram",
        "hop_diameter", "terminal_diameter",
    ],
})
