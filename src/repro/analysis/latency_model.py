"""Hop-cost and diameter models of Sec. III-B3 (Table II, Equation 7)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.config import SwitchlessConfig
from ..topology.graph import HOP_COSTS, HopCost

__all__ = ["HopCost", "TABLE_II", "switchless_diameter", "DiameterModel"]

#: Table II: comparison of hop cost, keyed by hop name in the paper's
#: row order (the reverse of the link classes'; ``terminal`` shares
#: ``Hl``).  ``Hg``/``Hl`` latency excludes time-of-flight, exactly as
#: the paper's "+ ToF" entries.
TABLE_II: Dict[str, HopCost] = dict(
    reversed({c.name: c for c in HOP_COSTS.values()}.items())
)

#: (hop-count field, link class, label) of a :class:`DiameterModel`.
_HOPS = (
    ("global_hops", "global", "Hg"),
    ("local_hops", "local", "Hl"),
    ("terminal_hops", "terminal", "Hl*"),
    ("sr_hops", "sr", "Hsr"),
    ("onchip_hops", "onchip", "Hoc"),
)


@dataclass(frozen=True)
class DiameterModel:
    """Hop-count decomposition of a worst-case route."""

    global_hops: int
    local_hops: int
    terminal_hops: int
    sr_hops: int
    onchip_hops: int = 0

    def _total(self, attr: str) -> float:
        """Sum of a :class:`HopCost` attribute over the route's hops."""
        return sum(
            getattr(self, field) * getattr(HOP_COSTS[klass], attr)
            for field, klass, _ in _HOPS
        )

    def latency_ns(self) -> float:
        return self._total("latency_ns")

    def energy_pj_per_bit(self) -> float:
        return self._total("energy_pj_per_bit")

    def describe(self) -> str:
        parts = [
            f"{getattr(self, field)}{label}"
            for field, _, label in _HOPS
            if getattr(self, field)
        ]
        return " + ".join(parts) if parts else "0"


def switchless_diameter(cfg: SwitchlessConfig) -> DiameterModel:
    """Equation (7): D = Hg + 2*Hl + (8m - 2)*Hsr.

    A worst-case minimal route visits four C-groups (source, two
    intermediates, destination); each 2D-mesh C-group contributes up to
    ``2(m-1)`` chiplet hops, and every one of the three inter-C-group
    hops costs two extra SR-LR conversion hops: ``4 * 2(m-1) + 3 * 2 =
    8m - 2`` short-reach hops in total.

    For single-W-group systems (Sec. III-D1) the diameter is
    ``Hl + (4m - 2) Hsr``.
    """
    m = cfg.paper_m
    if cfg.num_wgroups_effective == 1:
        return DiameterModel(
            global_hops=0, local_hops=1, terminal_hops=0,
            sr_hops=4 * m - 2,
        )
    return DiameterModel(
        global_hops=1, local_hops=2, terminal_hops=0,
        sr_hops=8 * m - 2,
    )
