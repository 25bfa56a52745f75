"""C-group floorplan on the wafer (Fig. 9, Sec. V-A1).

Places chiplets, SR-LR conversion modules and off-wafer IO pad fields for
one C-group and recomputes the paper's feasibility numbers:

* 16 chiplets of ~12 mm x 12 mm with 6 channels per edge;
* 128 UCIe lanes (two x64 PHYs) per on-wafer channel -> 4096 Gb/s/port;
* 8 lanes of 112G SerDes per off-C-group channel -> 896 Gb/s/port;
* a ~60 mm x 60 mm C-group leading out 1536 differential pairs;
* 12 TB/s mesh bisection and ~21 TB/s aggregate off-C-group bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from .geometry import Rect, no_overlaps
from .phy import (
    OPTICAL_CONNECTOR,
    SERDES_112G_LR,
    UCIE_X64,
    ConnectorSpec,
    PhySpec,
)

__all__ = ["CGroupLayoutSpec", "CGroupLayout", "plan_cgroup_layout"]

#: wafer diameter (mm).
WAFER_DIAMETER_MM = 300.0


@dataclass(frozen=True)
class CGroupLayoutSpec:
    """Physical parameters of one C-group (defaults = Fig. 9)."""

    #: chiplets per C-group side.
    chiplets_per_side: int = 4
    #: chiplet dimensions (mm).
    chiplet_mm: float = 12.0
    #: spacing between chiplets (mm) for PHY shoreline + routing.
    spacing_mm: float = 3.0
    #: interconnection channels per chiplet edge.
    channels_per_edge: int = 6
    #: UCIe x64 modules per on-wafer channel (2 -> 128 lanes).
    ucie_modules_per_channel: int = 2
    #: SR-LR conversion module dimensions (mm).
    conv_module_mm: tuple = (2.0, 3.0)
    onwafer_phy: PhySpec = UCIE_X64
    offwafer_phy: PhySpec = SERDES_112G_LR
    connector: ConnectorSpec = OPTICAL_CONNECTOR

    @property
    def num_chiplets(self) -> int:
        return self.chiplets_per_side ** 2

    @property
    def onwafer_channel_gbps(self) -> float:
        return self.ucie_modules_per_channel * self.onwafer_phy.bandwidth_gbps

    @property
    def offwafer_channel_gbps(self) -> float:
        return self.offwafer_phy.bandwidth_gbps


@dataclass
class CGroupLayout:
    """A placed-and-checked C-group floorplan."""

    spec: CGroupLayoutSpec
    chiplets: List[Rect]
    conversion_modules: List[Rect]
    io_field: Rect
    #: C-group bounding box edge (mm).
    edge_mm: float
    #: perimeter chiplet-edge count (off-C-group channel positions).
    perimeter_edges: int

    # -- derived bandwidth/IO figures -----------------------------------
    @property
    def offwafer_channels(self) -> int:
        return self.perimeter_edges * self.spec.channels_per_edge

    @property
    def offwafer_diff_pairs(self) -> int:
        """TX+RX differential pairs led off-wafer."""
        return self.offwafer_channels * self.spec.offwafer_phy.lanes * 2

    @property
    def bisection_tbps(self) -> float:
        """Full-duplex mesh bisection bandwidth (TB/s, one direction
        counted per the paper: channels crossing the cut x port rate)."""
        s = self.spec
        cut_channels = s.chiplets_per_side * s.channels_per_edge
        return cut_channels * s.onwafer_channel_gbps / 8e3

    @property
    def aggregate_tbps(self) -> float:
        """Aggregate off-C-group bandwidth, both directions (TB/s)."""
        return self.offwafer_channels * self.spec.offwafer_channel_gbps * 2 / 8e3

    @property
    def io_pads(self) -> int:
        """Total off-wafer IOs incl. ~75% power/ground overhead (the
        paper quotes ~5500 IOs for 1536 signal pairs)."""
        signals = self.offwafer_diff_pairs * 2
        return int(signals * 1.8)

    def feasible(self) -> bool:
        """All placement rules hold and the C-group fits the wafer."""
        rects = self.chiplets + self.conversion_modules
        if not no_overlaps(rects):
            return False
        if self.edge_mm > WAFER_DIAMETER_MM / math.sqrt(2):
            return False  # a C-group must fit a quarter-ish of the wafer
        # IO pad field must have room for all pads at connector pitch
        pads_possible = self.io_field.area * self.spec.connector.pads_per_mm2()
        return pads_possible >= self.offwafer_diff_pairs

    def summary(self) -> Dict[str, float]:
        return {
            "edge_mm": self.edge_mm,
            "chiplets": len(self.chiplets),
            "offwafer_channels": self.offwafer_channels,
            "offwafer_diff_pairs": self.offwafer_diff_pairs,
            "onwafer_channel_gbps": self.spec.onwafer_channel_gbps,
            "offwafer_channel_gbps": self.spec.offwafer_channel_gbps,
            "bisection_tbps": self.bisection_tbps,
            "aggregate_tbps": self.aggregate_tbps,
            "io_pads": self.io_pads,
        }


def plan_cgroup_layout(spec: CGroupLayoutSpec = CGroupLayoutSpec()) -> CGroupLayout:
    """Place one C-group: chiplet grid, SR-LR converters, IO pad field."""
    n = spec.chiplets_per_side
    pitch = spec.chiplet_mm + spec.spacing_mm
    edge = n * pitch + spec.spacing_mm

    chiplets: List[Rect] = []
    for r in range(n):
        for c in range(n):
            chiplets.append(Rect(
                f"chiplet-{r}-{c}",
                spec.spacing_mm + c * pitch,
                spec.spacing_mm + r * pitch,
                spec.chiplet_mm,
                spec.chiplet_mm,
            ))

    # SR-LR conversion modules ring the boundary: one per off-C-group
    # channel, packed along each side in the spacing band.
    conv_w, conv_h = spec.conv_module_mm
    per_side = n * spec.channels_per_edge
    modules: List[Rect] = []
    for side in range(4):
        for i in range(per_side):
            offset = spec.spacing_mm + i * (edge - 2 * spec.spacing_mm) / per_side
            if side == 0:  # top band
                modules.append(Rect(f"conv-t{i}", offset, 0.0, conv_w, conv_h))
            elif side == 1:  # bottom band
                modules.append(Rect(
                    f"conv-b{i}", offset, edge - conv_h, conv_w, conv_h
                ))
            elif side == 2:  # left band
                modules.append(Rect(f"conv-l{i}", 0.0, offset, conv_h, conv_w))
            else:  # right band
                modules.append(Rect(
                    f"conv-r{i}", edge - conv_h, offset, conv_h, conv_w
                ))

    # off-wafer IO pad field: the whole C-group footprint is available
    # for area-array pads (pads sit under/over the RDL per Fig. 5).
    io_field = Rect("io-field", 0.0, 0.0, edge, edge)

    layout = CGroupLayout(
        spec=spec,
        chiplets=chiplets,
        conversion_modules=modules,
        io_field=io_field,
        edge_mm=edge,
        perimeter_edges=4 * n,
    )
    return layout
