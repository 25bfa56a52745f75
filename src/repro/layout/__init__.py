"""Physical layout models: wafer floorplanning and PHY bandwidth (Fig. 9)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".wafermap": ["NodeSite", "WaferMap"],
    ".cgroup_layout": [
        "WAFER_DIAMETER_MM", "CGroupLayout", "CGroupLayoutSpec",
        "plan_cgroup_layout",
    ],
    ".geometry": ["Rect", "fits_in_circle", "no_overlaps"],
    ".phy": [
        "OPTICAL_CONNECTOR", "SERDES_112G_LR", "UCIE_X64", "ConnectorSpec",
        "PhySpec",
    ],
})
