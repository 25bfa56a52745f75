"""Routing algorithms and deadlock verification."""

from .base import RoutingAlgorithm, path_latency, validate_path
from .deadlock import DeadlockReport, channel_dependency_graph, verify_deadlock_free
from .dragonfly import DragonflyRouting
from .mesh import SwitchStarRouting, XYMeshRouting, xy_links
from .plane import ResolvedRoutes, RoutePlane
from .switchless import SwitchlessRouting
from .table import RouteArena, RouteTable

__all__ = [
    "RoutingAlgorithm",
    "path_latency",
    "validate_path",
    "DeadlockReport",
    "channel_dependency_graph",
    "verify_deadlock_free",
    "DragonflyRouting",
    "ResolvedRoutes",
    "RouteArena",
    "RoutePlane",
    "RouteTable",
    "SwitchStarRouting",
    "XYMeshRouting",
    "xy_links",
]
