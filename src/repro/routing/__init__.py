"""Routing algorithms and deadlock verification."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ["RoutingAlgorithm", "path_latency", "validate_path"],
    ".deadlock": [
        "DeadlockReport", "channel_dependency_graph", "verify_deadlock_free",
    ],
    ".dragonfly": ["DragonflyRouting"],
    ".plane": ["ResolvedRoutes", "RoutePlane"],
    ".table": ["RouteArena", "RouteTable"],
    ".mesh": ["SwitchStarRouting", "XYMeshRouting", "xy_links"],
    ".switchless": ["SwitchlessRouting"],
})
