"""IO-router-based C-group (paper Fig. 8(a)).

Instead of distributing external ports along a mesh boundary, every
external interface connects to one on-wafer IO router (as in EPYC, TofuD,
H100 and the TPU, Sec. IV-C).  Chips attach to the hub by individual
channels.

This variant *literally satisfies* Properties 1 and 2: all ports share the
hub as their attachment point, so port-to-port transit needs zero mesh
hops (c2 trivially), and every port-to-core delivery is the single down
hop hub -> core (c1 holds with cores below the hub).  The VC-reduced
3-VC routing is therefore provably deadlock free here — the constructive
existence proof for the paper's Sec. IV-B claim — at the cost the paper
itself names: "the IO router can become the bottleneck, and the
chip-to-chip bandwidth does not scale with the chip scale."
"""

from __future__ import annotations

from typing import Dict, List

from ..topology.graph import NetworkGraph
from .cgroup import PortInfo
from .config import SwitchlessConfig
from .labeling import CGroupLabeling

__all__ = ["IORouterCGroup"]


class IORouterCGroup:
    """One hub-based C-group: chips star-connected to an IO router."""

    def __init__(
        self,
        cfg: SwitchlessConfig,
        wgroup: int,
        index: int,
        graph: NetworkGraph,
        chip_base: int,
    ) -> None:
        self.cfg = cfg
        self.wgroup = wgroup
        self.index = index

        num_chips = cfg.chips_per_cgroup
        self.cores: List[int] = []
        for i in range(num_chips):
            nid = graph.add_node(
                "core", chip_base + i, is_terminal=True,
                coords=(wgroup, index, i),
            )
            self.cores.append(nid)
        self.hub: int = graph.add_node(
            "io-router", -1, is_terminal=False,
            coords=(wgroup, index, -1),
        )
        for nid in self.cores:
            graph.add_channel(
                nid, self.hub,
                latency=cfg.sr_latency,
                capacity=cfg.mesh_capacity,
                klass="sr",
            )
        self._graph = graph

        # ports: all attach at the hub, Property-2 rank order retained
        self.labeling = CGroupLabeling.build(1, cfg.num_ports)
        ab = cfg.cgroups_per_wgroup
        order = (
            [("local", p) for p in range(index)]
            + [("global", gp) for gp in range(cfg.num_global)]
            + [("local", p) for p in range(index + 1, ab)]
        )
        self.ports: List[PortInfo] = []
        self._local_by_peer: Dict[int, PortInfo] = {}
        self._global_by_idx: Dict[int, PortInfo] = {}
        for rank, (role, peer) in enumerate(order):
            port = PortInfo(
                rank=rank, role=role, peer=peer,
                attach=self.hub, position=0,
                label=self.labeling.port_labels[rank],
            )
            self.ports.append(port)
            if role == "local":
                self._local_by_peer[peer] = port
            else:
                self._global_by_idx[peer] = port

    # -- same lookup interface as the mesh CGroup -----------------------
    @property
    def nodes(self) -> List[int]:
        return list(self.cores) + [self.hub]

    def local_port(self, peer: int) -> PortInfo:
        return self._local_by_peer[peer]

    def global_port(self, idx: int) -> PortInfo:
        return self._global_by_idx[idx]

    # -- unified path interface ------------------------------------------
    def _star_path(self, src: int, dst: int) -> List[int]:
        if src == dst:
            return []
        g = self._graph
        if src == self.hub or dst == self.hub:
            return [g.link_between(src, dst)]
        return [
            g.link_between(src, self.hub),
            g.link_between(self.hub, dst),
        ]

    def route_links(self, src: int, dst: int) -> List[int]:
        return self._star_path(src, dst)

    def transit_links(self, src: int, dst: int) -> List[int]:
        """Port-to-port transit: both ports live on the hub (zero hops)."""
        if src != self.hub or dst != self.hub:
            return self._star_path(src, dst)
        return []

    def delivery_links(self, src: int, dst: int) -> List[int]:
        """Hub -> core: the literal down-only path of Property 1(c1)."""
        return self._star_path(src, dst)
