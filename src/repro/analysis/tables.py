"""Reference data tables of the paper (Tables I, II and IV).

These are published hardware specifications the paper cites; we keep them
as structured data with derived-value checks (e.g. throughput = lanes x
data-rate) so the reproduction can regenerate the tables and validate the
arithmetic rather than just restate numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.config import SwitchlessConfig
from ..network.params import SimParams
from ..topology.graph import HOP_COSTS
from .latency_model import TABLE_II

__all__ = ["ChipSpec", "TABLE_I", "format_table_i", "format_table_ii",
           "format_table_iv"]


@dataclass(frozen=True)
class ChipSpec:
    """One column of Table I."""

    name: str
    category: str
    physical_lanes: int
    data_rate_gbps: float

    @property
    def throughput_tbps(self) -> float:
        """Aggregate external bandwidth = lanes x rate (Tb/s)."""
        return self.physical_lanes * self.data_rate_gbps / 1000.0


#: Table I: external communication and switching capability.
TABLE_I: List[ChipSpec] = [
    ChipSpec("NVSwitch", "Switching Chip", 128, 100.0),
    ChipSpec("Tofino2", "Switching Chip", 256, 50.0),
    ChipSpec("Rosetta", "Switching Chip", 256, 50.0),
    ChipSpec("H100", "Computing Chip", 36, 100.0),
    ChipSpec("EPYC", "Computing Chip", 128, 32.0),
    ChipSpec("DOJO D1", "Computing Chip", 576, 112.0),
]


def format_table_i() -> str:
    lines = [
        "Table I: external communication and switching capability",
        f"{'chip':10s} {'category':15s} {'lanes':>6s} {'Gbps':>6s} {'Tb/s':>6s}",
    ]
    for spec in TABLE_I:
        lines.append(
            f"{spec.name:10s} {spec.category:15s} {spec.physical_lanes:6d} "
            f"{spec.data_rate_gbps:6.0f} {spec.throughput_tbps:6.1f}"
        )
    return "\n".join(lines)


def format_table_ii() -> str:
    lines = [
        "Table II: comparison of hop cost",
        f"{'hop':9s} {'medium':15s} {'latency(ns)':>12s} {'pJ/bit':>7s}",
    ]
    for cost in TABLE_II.values():
        lat = (
            f"~{cost.latency_ns:.0f}"
            if cost.intra_cgroup
            else f"{cost.latency_ns:.0f}+ToF"
        )
        lines.append(
            f"{cost.name:9s} {cost.medium:15s} {lat:>12s} "
            f"{cost.energy_pj_per_bit:7.1f}"
        )
    return "\n".join(lines)


def format_table_iv(params: SimParams = SimParams()) -> str:
    rows = [
        ("Packet Length", f"{params.packet_length} flits"),
        ("Input Buffer Size", f"{params.vc_buffer_size} flits"),
        (
            "Base Link Bandwidth",
            f"{SwitchlessConfig.mesh_capacity} flit/cycle",
        ),
        ("Short-Reach Link Delay", f"{HOP_COSTS['sr'].cycles} cycle"),
        ("Long-Reach Link Delay", f"{HOP_COSTS['global'].cycles} cycles"),
        (
            "Simulation Time",
            f"{params.measure_cycles} cycles after "
            f"{params.warmup_cycles} cycles warming up",
        ),
    ]
    width = max(len(k) for k, _ in rows)
    lines = ["Table IV: default parameters"]
    lines += [f"{k:<{width}s}  {v}" for k, v in rows]
    return "\n".join(lines)
