"""Switch-based Dragonfly (Kim et al., ISCA'08) — the paper's baseline.

A Dragonfly has ``g`` groups of ``a`` switches; switches within a group are
fully connected (local channels); each switch has ``p`` terminals and ``h``
global channels; groups are fully connected through the global channels
(``g <= a*h + 1``).

The paper's experiment configurations (Sec. V-A4):

* radix-16: terminal/local/global ports = 4:7:5  → ``p=4, a=8, h=5``,
  41 groups, 1312 chips;
* radix-32: 8:15:9 → ``p=8, a=16, h=9``, 145 groups, 18560 chips.

Global channels use the *absolute* arrangement: group ``G``'s channel
``c`` (``0 <= c < a*h``) connects to group ``c`` if ``c < G`` else
``c + 1``, attached to switch ``c // h`` port ``c % h``.  This is the
same arrangement the switch-less builder uses at C-group granularity, so
the two architectures are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graph import HOP_COSTS, NetworkGraph

__all__ = ["DragonflyConfig", "DragonflySystem", "build_dragonfly"]


@dataclass(frozen=True)
class DragonflyConfig:
    """Parameters of a switch-based Dragonfly."""

    #: terminals (processors/chips) per switch.
    p: int
    #: switches per group.
    a: int
    #: global channels per switch.
    h: int
    #: number of groups; defaults to the maximum a*h + 1.
    g: Optional[int] = None
    terminal_latency: int = HOP_COSTS["terminal"].cycles
    local_latency: int = HOP_COSTS["local"].cycles
    global_latency: int = HOP_COSTS["global"].cycles
    capacity: int = 1

    def __post_init__(self) -> None:
        if min(self.p, self.a, self.h) < 1:
            raise ValueError("p, a, h must all be >= 1")
        if self.num_groups < 2:
            raise ValueError("a Dragonfly needs at least 2 groups")
        if self.num_groups > self.a * self.h + 1:
            raise ValueError(
                f"g={self.num_groups} exceeds the a*h+1={self.a * self.h + 1} "
                "groups reachable with one global channel per pair"
            )

    @property
    def num_groups(self) -> int:
        return self.g if self.g is not None else self.a * self.h + 1

    @property
    def radix(self) -> int:
        """Switch radix: p terminals + (a-1) locals + h globals."""
        return self.p + (self.a - 1) + self.h

    @property
    def num_switches(self) -> int:
        return self.num_groups * self.a

    @property
    def num_chips(self) -> int:
        return self.num_switches * self.p

    # -- paper configurations ------------------------------------------
    @classmethod
    def radix16(cls, **kw) -> "DragonflyConfig":
        """4:7:5 split of a radix-16 switch (41 groups, 1312 chips)."""
        return cls(p=4, a=8, h=5, **kw)

    @classmethod
    def radix32(cls, **kw) -> "DragonflyConfig":
        """8:15:9 split of a radix-32 switch (145 groups, 18560 chips)."""
        return cls(p=8, a=16, h=9, **kw)

    @classmethod
    def radix8(cls, **kw) -> "DragonflyConfig":
        """2:3:2 split of a radix-8 switch (9 groups, 72 chips).

        Not in the paper; used as a CI-friendly scale-down with the same
        balanced local:global structure.
        """
        return cls(p=2, a=4, h=2, **kw)

    @classmethod
    def small_equiv(cls, **kw) -> "DragonflyConfig":
        """4:3:2 split (9 groups, 144 chips): the switch-based
        counterpart of :meth:`repro.core.SwitchlessConfig.small_equiv`,
        matching its chips per switch/C-group (4) and global channels
        per group so scaled-down global experiments stay comparable.
        """
        return cls(p=4, a=4, h=2, **kw)


class DragonflySystem:
    """Built switch-based Dragonfly plus the lookup tables routing needs."""

    def __init__(self, cfg: DragonflyConfig) -> None:
        self.cfg = cfg
        self.graph = NetworkGraph(
            f"dragonfly-p{cfg.p}a{cfg.a}h{cfg.h}g{cfg.num_groups}"
        )
        g, a, p, h = cfg.num_groups, cfg.a, cfg.p, cfg.h

        #: switch node id at [group][switch index].
        self.switches: List[List[int]] = []
        #: terminal node id at [group][switch index][terminal index].
        self.terminals: List[List[List[int]]] = []
        #: node id -> (group, switch index); terminals map to their switch.
        self._node_group: Dict[int, Tuple[int, int]] = {}

        chip = 0
        for gi in range(g):
            row: List[int] = []
            trow: List[List[int]] = []
            for si in range(a):
                sw = self.graph.add_node(
                    "switch", chip=-1, is_terminal=False, coords=(gi, si)
                )
                row.append(sw)
                self._node_group[sw] = (gi, si)
                terms: List[int] = []
                for ti in range(p):
                    t = self.graph.add_node(
                        "terminal", chip=chip, is_terminal=True,
                        coords=(gi, si, ti),
                    )
                    chip += 1
                    self.graph.add_channel(
                        t, sw,
                        latency=cfg.terminal_latency,
                        capacity=cfg.capacity,
                        klass="terminal",
                    )
                    terms.append(t)
                    self._node_group[t] = (gi, si)
                trow.append(terms)
            self.switches.append(row)
            self.terminals.append(trow)

        # local all-to-all within each group
        for gi in range(g):
            for i in range(a):
                for j in range(i + 1, a):
                    self.graph.add_channel(
                        self.switches[gi][i], self.switches[gi][j],
                        latency=cfg.local_latency,
                        capacity=cfg.capacity,
                        klass="local",
                    )

        # global channels, absolute arrangement
        for gi in range(g):
            for c in range(a * h):
                peer = c if c < gi else c + 1
                if peer >= g or peer < gi:
                    continue  # out of range, or already added from peer side
                si = c // h
                c_back = gi if gi < peer else gi - 1
                sj = c_back // h
                self.graph.add_channel(
                    self.switches[gi][si], self.switches[peer][sj],
                    latency=cfg.global_latency,
                    capacity=cfg.capacity,
                    klass="global",
                )
        self.graph.validate()

    # ------------------------------------------------------------------
    # lookups used by routing and traffic patterns
    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return self.cfg.num_groups

    def group_of(self, node: int) -> int:
        return self._node_group[node][0]

    def switch_index_of(self, node: int) -> int:
        return self._node_group[node][1]

    def group_nodes(self, gi: int) -> List[int]:
        """All terminal node ids of group ``gi``."""
        return [t for terms in self.terminals[gi] for t in terms]

    def switch_of_terminal(self, term: int) -> int:
        gi, si = self._node_group[term]
        return self.switches[gi][si]

    def gateway_switch(self, src_group: int, dst_group: int) -> int:
        """Switch index in ``src_group`` owning the channel to ``dst_group``."""
        if src_group == dst_group:
            raise ValueError("no gateway within the same group")
        c = dst_group if dst_group < src_group else dst_group - 1
        return c // self.cfg.h

    def global_link(self, src_group: int, dst_group: int) -> int:
        """Directed link id of the global channel src_group -> dst_group."""
        si = self.gateway_switch(src_group, dst_group)
        sj = self.gateway_switch(dst_group, src_group)
        return self.graph.link_between(
            self.switches[src_group][si], self.switches[dst_group][sj]
        )


def build_dragonfly(cfg: DragonflyConfig) -> DragonflySystem:
    """Construct the Dragonfly system for ``cfg``."""
    return DragonflySystem(cfg)
