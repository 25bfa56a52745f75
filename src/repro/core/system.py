"""The full switch-less Dragonfly system builder (Fig. 3 / Fig. 6).

Construction follows the paper's two steps (Sec. IV-A): (1) label ports
and fully connect C-groups into W-groups through their local ports;
(2) fully connect W-groups through the global ports, using the same
absolute arrangement as the switch-based Dragonfly builder — W-group
``W``'s global channel ``c`` (``0 <= c < a*b*h``) goes to W-group ``c``
if ``c < W`` else ``c + 1``, via C-group ``c // h`` port ``c % h``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..topology.graph import NetworkGraph
from .cgroup import CGroup, PortInfo
from .cgroup_io import IORouterCGroup
from .config import SwitchlessConfig

__all__ = ["SwitchlessSystem", "build_switchless"]


@dataclass(frozen=True)
class Channel:
    """One inter-C-group channel with its endpoint ports."""

    #: directed link id src -> dst.
    link: int
    #: exit port on the source C-group.
    src_port: PortInfo
    #: entry port on the destination C-group.
    dst_port: PortInfo


class SwitchlessSystem:
    """Built switch-less Dragonfly plus lookups for routing and traffic."""

    def __init__(self, cfg: SwitchlessConfig) -> None:
        self.cfg = cfg
        g = cfg.num_wgroups_effective
        ab = cfg.cgroups_per_wgroup
        h = cfg.num_global
        self.graph = NetworkGraph(
            f"switchless-M{cfg.mesh_dim}L{cfg.num_local}H{h}g{g}"
        )

        #: C-group object at [wgroup][index].
        self.cgroups: List[List[CGroup]] = []
        #: node id -> (wgroup, cgroup index).
        self._node_loc: Dict[int, Tuple[int, int]] = {}

        cg_cls = CGroup if cfg.cgroup_style == "mesh" else IORouterCGroup
        chip_base = 0
        for w in range(g):
            row: List[CGroup] = []
            for c in range(ab):
                cg = cg_cls(cfg, w, c, self.graph, chip_base)
                chip_base += cfg.chips_per_cgroup
                for nid in cg.nodes:
                    self._node_loc[nid] = (w, c)
                row.append(cg)
            self.cgroups.append(row)

        # ---- step 1: local all-to-all within each W-group -------------
        #: (w, i, j) -> Channel for the directed local channel i -> j.
        self._local: Dict[Tuple[int, int, int], Channel] = {}
        for w in range(g):
            for i in range(ab):
                for j in range(i + 1, ab):
                    pi = self.cgroups[w][i].local_port(j)
                    pj = self.cgroups[w][j].local_port(i)
                    fwd, rev = self.graph.add_channel(
                        pi.attach, pj.attach,
                        latency=cfg.lr_latency,
                        capacity=cfg.lr_capacity,
                        klass="local",
                    )
                    self._local[(w, i, j)] = Channel(fwd, pi, pj)
                    self._local[(w, j, i)] = Channel(rev, pj, pi)

        # ---- step 2: global all-to-all between W-groups ---------------
        #: (w1, w2) -> Channel for the directed global channel w1 -> w2.
        self._global: Dict[Tuple[int, int], Channel] = {}
        if g > 1:
            for w in range(g):
                for c in range(ab * h):
                    peer = c if c < w else c + 1
                    if peer >= g or peer < w:
                        continue
                    ci, pi_idx = c // h, c % h
                    c_back = w if w < peer else w - 1
                    cj, pj_idx = c_back // h, c_back % h
                    pi = self.cgroups[w][ci].global_port(pi_idx)
                    pj = self.cgroups[peer][cj].global_port(pj_idx)
                    fwd, rev = self.graph.add_channel(
                        pi.attach, pj.attach,
                        latency=cfg.lr_latency,
                        capacity=cfg.lr_capacity,
                        klass="global",
                    )
                    self._global[(w, peer)] = Channel(fwd, pi, pj)
                    self._global[(peer, w)] = Channel(rev, pj, pi)
        self.graph.validate()

    # ------------------------------------------------------------------
    @property
    def num_wgroups(self) -> int:
        return self.cfg.num_wgroups_effective

    def location_of(self, node: int) -> Tuple[int, int]:
        """(W-group, C-group index) of a node."""
        return self._node_loc[node]

    def group_of(self, node: int) -> int:
        """W-group of a node (traffic-pattern interface)."""
        return self._node_loc[node][0]

    def group_nodes(self, w: int) -> List[int]:
        """All node ids of W-group ``w``."""
        return [nid for cg in self.cgroups[w] for nid in cg.nodes]

    def cgroup(self, w: int, c: int) -> CGroup:
        return self.cgroups[w][c]

    def cgroup_of(self, node: int) -> CGroup:
        w, c = self._node_loc[node]
        return self.cgroups[w][c]

    def local_channel(self, w: int, i: int, j: int) -> Channel:
        """Directed local channel from C-group ``i`` to ``j`` in ``w``."""
        return self._local[(w, i, j)]

    def global_channel(self, w1: int, w2: int) -> Channel:
        """Directed global channel W-group ``w1`` -> ``w2``."""
        return self._global[(w1, w2)]

    def gateway_cgroup(self, w_src: int, w_dst: int) -> int:
        """C-group index in ``w_src`` owning the channel to ``w_dst``."""
        if w_src == w_dst:
            raise ValueError("no gateway within the same W-group")
        c = w_dst if w_dst < w_src else w_dst - 1
        return c // self.cfg.num_global


def build_switchless(cfg: SwitchlessConfig) -> SwitchlessSystem:
    """Construct the switch-less Dragonfly system for ``cfg``."""
    return SwitchlessSystem(cfg)
