"""Configuration of the wafer-based switch-less Dragonfly (Sec. III).

Bridging the paper's symbols to this implementation:

===========  ==============================================================
paper        here
===========  ==============================================================
``n``        external interfaces per chiplet = ``k * chiplet_dim**2 /
             mesh_dim**2`` (derived; the builder works at node granularity)
``m``        chiplets per C-group side = ``mesh_dim / chiplet_dim``
``k``        external ports per C-group = ``num_local + num_global``
``a``        C-groups per wafer (``cgroups_per_wafer``)
``b``        wafers per W-group (``wafers_per_wgroup``)
``a*b``      C-groups per W-group = ``num_local + 1`` (full local connect)
``h``        global ports per C-group = ``num_global``
``g``        W-groups = ``num_wgroups`` (default ``a*b*h + 1``)
``N``        total chips = ``g * a*b * chips_per_cgroup``
===========  ==============================================================

A C-group is an ``mesh_dim x mesh_dim`` grid of on-chip routers (nodes);
chiplets are ``chiplet_dim``-square node blocks.  External ports attach to
perimeter nodes, spread evenly clockwise, and are ordered per Property 2:
local ports toward lower C-groups, then global ports, then local ports
toward higher C-groups.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..topology.graph import HOP_COSTS

__all__ = ["SwitchlessConfig"]


@dataclass(frozen=True)
class SwitchlessConfig:
    """Parameters of one switch-less Dragonfly system."""

    #: nodes (on-chip routers) per C-group side.
    mesh_dim: int
    #: nodes per chiplet side (must divide mesh_dim).
    chiplet_dim: int
    #: local ports per C-group; C-groups per W-group = num_local + 1.
    num_local: int
    #: global ports per C-group (0 allowed for single-W-group systems).
    num_global: int
    #: W-groups in the system; default = a*b*h + 1 (maximum).
    num_wgroups: Optional[int] = None
    #: C-groups per wafer (cost/layout metadata only).
    cgroups_per_wafer: int = 1
    #: on-wafer short-reach link latency (cycles).
    sr_latency: int = HOP_COSTS["sr"].cycles
    #: long-reach (local/global channel) latency (cycles).
    lr_latency: int = HOP_COSTS["global"].cycles
    #: on-chip hop latency (cycles).
    onchip_latency: int = HOP_COSTS["onchip"].cycles
    #: intra-C-group link capacity multiplier: 1 = base, 2 = "2B", 4 = "4B".
    mesh_capacity: int = 1
    #: local/global channel capacity (kept 1 to match the baseline).
    lr_capacity: int = 1
    #: intra-C-group architecture: "mesh" (Fig. 8(b)) or "io-router"
    #: (Fig. 8(a), all external ports on one hub router).
    cgroup_style: str = "mesh"

    def __post_init__(self) -> None:
        if self.mesh_dim < 1:
            raise ValueError("mesh_dim must be >= 1")
        if self.chiplet_dim < 1 or self.mesh_dim % self.chiplet_dim:
            raise ValueError("chiplet_dim must divide mesh_dim")
        if self.num_local < 1:
            raise ValueError("num_local must be >= 1 (at least 2 C-groups)")
        if self.num_global < 0:
            raise ValueError("num_global must be >= 0")
        if self.mesh_capacity < 1 or self.lr_capacity < 1:
            raise ValueError("capacities must be >= 1")
        if self.cgroup_style not in ("mesh", "io-router"):
            raise ValueError(f"unknown cgroup_style {self.cgroup_style!r}")
        g = self.num_wgroups_effective
        if g < 1:
            raise ValueError("need at least one W-group")
        if g > 1 and self.num_global < 1:
            raise ValueError("multi-W-group systems need num_global >= 1")
        if g > self.max_wgroups:
            raise ValueError(
                f"num_wgroups={g} exceeds a*b*h+1={self.max_wgroups}"
            )
        if self.cgroups_per_wafer < 1 or (
            self.cgroups_per_wgroup % self.cgroups_per_wafer
        ):
            raise ValueError(
                "cgroups_per_wafer must divide C-groups per W-group "
                f"({self.cgroups_per_wgroup})"
            )

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    @property
    def cgroups_per_wgroup(self) -> int:
        """a*b: full local connectivity needs num_local + 1 C-groups."""
        return self.num_local + 1

    @property
    def wafers_per_wgroup(self) -> int:
        """b in the paper's notation."""
        return self.cgroups_per_wgroup // self.cgroups_per_wafer

    @property
    def max_wgroups(self) -> int:
        """g_max = a*b*h + 1 (Sec. III-A4)."""
        if self.num_global == 0:
            return 1
        return self.cgroups_per_wgroup * self.num_global + 1

    @property
    def num_wgroups_effective(self) -> int:
        return (
            self.num_wgroups if self.num_wgroups is not None else self.max_wgroups
        )

    @property
    def num_ports(self) -> int:
        """k: external ports per C-group."""
        return self.num_local + self.num_global

    @property
    def nodes_per_cgroup(self) -> int:
        return self.mesh_dim * self.mesh_dim

    @property
    def chips_per_cgroup(self) -> int:
        return (self.mesh_dim // self.chiplet_dim) ** 2

    @property
    def nodes_per_chip(self) -> int:
        return self.chiplet_dim * self.chiplet_dim

    @property
    def num_cgroups(self) -> int:
        return self.num_wgroups_effective * self.cgroups_per_wgroup

    @property
    def num_chips(self) -> int:
        """N at chip granularity."""
        return self.num_cgroups * self.chips_per_cgroup

    @property
    def num_nodes(self) -> int:
        return self.num_cgroups * self.nodes_per_cgroup

    # -- paper-notation views ------------------------------------------
    @property
    def paper_m(self) -> int:
        """m: chiplets per C-group side."""
        return self.mesh_dim // self.chiplet_dim

    @property
    def paper_n(self) -> float:
        """n: external interfaces per chiplet = k / m."""
        return self.num_ports / self.paper_m

    def with_bandwidth(self, multiplier: int) -> "SwitchlessConfig":
        """The paper's 2B/4B variants: scale intra-C-group capacity."""
        return replace(self, mesh_capacity=multiplier)

    # ------------------------------------------------------------------
    # paper configurations
    # ------------------------------------------------------------------
    @classmethod
    def radix16_equiv(cls, **kw) -> "SwitchlessConfig":
        """Sec. V-B1: C-group of 2x2 chiplets with 2x2 on-chip routers,
        12 external ports (7 local + 5 global), 41 W-groups, 1312 chips.
        Equivalent to the radix-16 switch-based Dragonfly, and identical
        to the (a, b, m, n) = (2, 4, 2, 6) configuration of Sec. III-B1.
        """
        kw.setdefault("cgroups_per_wafer", 2)
        return cls(
            mesh_dim=4, chiplet_dim=2, num_local=7, num_global=5, **kw
        )

    @classmethod
    def radix32_equiv(cls, **kw) -> "SwitchlessConfig":
        """Sec. V-B3 large-scale system: 7x7 C-group mesh (Fig. 15(b)),
        24 external ports (15 local + 9 global), 145 W-groups.

        Substitution note: the paper reports 18560 chips for the radix-32
        *switch-based* baseline; the equivalent C-group needs a 7x7 node
        mesh whose 49 nodes do not tile into the baseline's 8-node chips,
        so we model one node per chip here and normalise rates per chip
        as everywhere else.
        """
        kw.setdefault("cgroups_per_wafer", 4)
        return cls(
            mesh_dim=7, chiplet_dim=1, num_local=15, num_global=9, **kw
        )

    @classmethod
    def radix8_equiv(cls, **kw) -> "SwitchlessConfig":
        """Tiny 3x3-mesh config (5 ports: 3 local + 2 global, 9 W-groups,
        324 nodes).  Used by fast tests; note that 3x3 C-groups have no
        usable mesh interior, so the *reduced* VC policy is knowingly
        cyclic here, as on every mesh C-group with corner chips
        (``test_reduced_cyclic_on_mesh_cgroups`` in
        ``tests/routing/test_switchless_routing.py``) — use the baseline
        policy."""
        return cls(
            mesh_dim=3, chiplet_dim=1, num_local=3, num_global=2, **kw
        )

    @classmethod
    def small_equiv(cls, **kw) -> "SwitchlessConfig":
        """CI-scale counterpart of :meth:`DragonflyConfig.small_equiv`:
        4x4 C-group of 2x2 chiplets (4 chips, like the baseline's p=4),
        3 local + 2 global ports, 9 W-groups, 144 chips / 576 nodes.
        Keeps the radix-16 experiment's per-chip global bandwidth ratio
        at a simulatable size."""
        return cls(
            mesh_dim=4, chiplet_dim=2, num_local=3, num_global=2, **kw
        )

    @classmethod
    def case_study(cls, **kw) -> "SwitchlessConfig":
        """Sec. III-C flagship: n=12, m=4 (so a 4x4 chiplet C-group),
        a=4 C-groups per wafer, b=8 wafers per W-group, k=48 ports
        (31 local + 17 global), g=545, N=279040 chips.

        Far too large to simulate cycle-accurately; used by the analytical
        cost/scalability models (Table III).
        """
        kw.setdefault("cgroups_per_wafer", 4)
        kw.setdefault("chiplet_dim", 1)
        return cls(
            mesh_dim=4, num_local=31, num_global=17, **kw
        )
