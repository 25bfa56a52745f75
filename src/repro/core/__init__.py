"""The paper's contribution: wafer-based switch-less Dragonfly."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cgroup": ["CGroup", "PortInfo"],
    ".config": ["SwitchlessConfig"],
    ".labeling": [
        "CGroupLabeling", "downonly_reachable_fraction", "ring_peel_labels",
    ],
    ".system": ["Channel", "SwitchlessSystem", "build_switchless"],
})
