"""Datacenter cost model of Sec. III-C3: switches, cabinets, cables.

Packaging constants follow the paper's cited assumptions:

* a Slingshot cabinet hosts 64 blades x 2 nodes = 128 nodes plus 8
  top-of-rack switches [56];
* Fat-Tree core/aggregation switches pack 32 per cabinet;
* HammingMesh boards (short-reach 2D-mesh-on-PCB) and PolarFly
  co-packages double the per-cabinet chip density (256 chips);
* wafer-scale integration increases density at least 4x: one cabinet
  hosts a full W-group (8 wafers, 512 chips for the Sec. III-C system).

Cable-length model (documented substitution — the paper does not give
its exact estimator): cabinets are laid out on an ``E x E`` floor; a
cable between two unrelated cabinets has expected length ``E/2``;
intra-cabinet cables contribute zero.  The paper reports 154K*E for the
Slingshot and 73K*E for the switch-less Dragonfly; our estimator yields
the same switch-less value (global cables only: 148240/2 ~ 74K) and a
somewhat larger Slingshot value (it also charges the 270K inter-cabinet
local cables at E/2).  The claim under test — "less than half the cable
length" — holds under both estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.config import SwitchlessConfig
from ..topology.dragonfly import DragonflyConfig

__all__ = [
    "CABINET_NODES",
    "CostSummary",
    "dragonfly_cost",
    "switchless_cost",
    "fattree_cost",
]

#: compute nodes per standard cabinet (64 blades x 2 nodes [56]).
CABINET_NODES = 128
#: ToR switches per standard cabinet.
CABINET_TOR_SWITCHES = 8
#: non-ToR (core/aggregation) switches per cabinet.
CABINET_CORE_SWITCHES = 32
#: wafers per cabinet for wafer-scale systems (conservative 4x density).
CABINET_WAFERS = 8


@dataclass
class CostSummary:
    """Cost metrics of one interconnection network (Table III columns)."""

    name: str
    num_processors: int
    num_switches: int
    num_cabinets: int
    #: total cable count (all long-reach channels, incl. terminal links).
    cable_count: int
    #: coefficient c in the total-cable-length estimate c * E.
    cable_length_coeff: float
    notes: str = ""

    def row(self) -> str:
        return (
            f"{self.name:28s} {self.num_switches:8d} {self.num_cabinets:6d} "
            f"{self.num_processors:9d} {self.cable_count / 1e3:7.0f}K "
            f"{self.cable_length_coeff / 1e3:6.0f}K*E"
        )


def dragonfly_cost(cfg: DragonflyConfig, name: str = "Dragonfly (Slingshot)") -> CostSummary:
    """Switch-based Dragonfly cost (Slingshot row of Table III)."""
    g, a, p, h = cfg.num_groups, cfg.a, cfg.p, cfg.h
    switches = g * a
    processors = switches * p
    cabinets = -(-processors // CABINET_NODES)
    terminal_cables = processors
    local_cables = g * (a * (a - 1) // 2)
    global_cables = switches * h // 2
    cable_count = terminal_cables + local_cables + global_cables
    # terminals stay in-cabinet; locals and globals cross cabinets
    coeff = (local_cables + global_cables) * 0.5
    return CostSummary(
        name=name,
        num_processors=processors,
        num_switches=switches,
        num_cabinets=cabinets,
        cable_count=cable_count,
        cable_length_coeff=coeff,
        notes=f"{CABINET_TOR_SWITCHES} ToR switches per cabinet",
    )


def switchless_cost(
    cfg: SwitchlessConfig, name: str = "Switch-less Dragonfly"
) -> CostSummary:
    """Wafer-based switch-less Dragonfly cost (last row of Table III).

    No switches; one cabinet hosts a full W-group (b wafers).  Local
    channels are intra-cabinet (zero length contribution); only global
    channels cross the floor.
    """
    g = cfg.num_wgroups_effective
    ab = cfg.cgroups_per_wgroup
    processors = cfg.num_chips
    cabinets = g * max(1, cfg.wafers_per_wgroup // CABINET_WAFERS)
    local_cables = g * (ab * (ab - 1) // 2)
    global_cables = g * ab * cfg.num_global // 2
    cable_count = local_cables + global_cables
    coeff = global_cables * 0.5
    return CostSummary(
        name=name,
        num_processors=processors,
        num_switches=0,
        num_cabinets=cabinets,
        cable_count=cable_count,
        cable_length_coeff=coeff,
        notes=f"{CABINET_WAFERS} wafers per cabinet; locals intra-cabinet",
    )


def fattree_cost(
    *,
    radix: int = 64,
    num_processors: int = 65536,
    planes: int = 1,
    taper: int = 1,
    name: Optional[str] = None,
) -> CostSummary:
    """Three-stage folded-Clos cost (Fat-Tree rows of Table III).

    ``taper`` is the edge over-subscription (1 = full bisection, 3 =
    3:1 taper: 3/4 of edge ports face down).  ``planes`` replicates the
    whole fabric (multi-rail injection).
    """
    if name is None:
        tag = f"{planes}-plane" if taper == 1 else f"{taper}:1 taper"
        name = f"Three-Stage Fat-Tree ({tag})"
    half = radix // 2
    down = half if taper == 1 else radix * taper // (taper + 1)
    up = radix - down
    edge = -(-num_processors // down)
    # aggregation fills pods of `half` edge switches; cores connect pods
    agg = edge * up // half
    core = agg // 2
    per_plane = edge + agg + core
    switches = per_plane * planes
    # edge switches are ToR; agg+core pack CABINET_CORE_SWITCHES per cabinet
    node_cabinets = -(-num_processors // CABINET_NODES)
    core_cabinets = -(-(agg + core) * planes // CABINET_CORE_SWITCHES)
    terminal_cables = num_processors * planes
    # only the edge stage is tapered; aggregation keeps `half` up-links
    fabric_cables = (edge * up + agg * half) * planes
    coeff = fabric_cables * 0.5
    return CostSummary(
        name=name,
        num_processors=num_processors,
        num_switches=switches,
        num_cabinets=node_cabinets + core_cabinets,
        cable_count=terminal_cables + fabric_cables,
        cable_length_coeff=coeff,
        notes=f"radix {radix}, {planes} plane(s), {taper}:1 taper",
    )
