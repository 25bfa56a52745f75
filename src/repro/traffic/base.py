"""Traffic pattern interface and chip/node indexing helpers.

Patterns operate over a *scope*: an ordered list of terminal nodes (default:
every terminal in the graph).  The paper's injection rates are normalised
in flits/cycle/chip, so patterns also expose the number of chips in scope;
the simulator divides the per-chip rate across a chip's nodes.

Destination conventions:

* permutation patterns are defined over *node indices within the scope*
  (positions in the scope list).  Fixed points of the permutation do not
  generate traffic (their nodes are simply inactive); normalisation stays
  per total chips in scope, matching how offered load is usually reported;
* chip-granular patterns (rings, worst-case) map a source node ``(chip i,
  offset j)`` to the *same offset* on the destination chip, which models
  each on-chip node talking to its counterpart — the mapping the paper's
  collective analysis (Fig. 4, Sec. V-B5) assumes.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..network.vecrandom import DestRows
from ..topology.graph import NetworkGraph

__all__ = ["TrafficPattern", "ChipIndex", "ChipSources"]


class ChipIndex:
    """Chip/node bookkeeping over a scope of terminal nodes."""

    def __init__(self, graph: NetworkGraph, scope: Optional[Sequence[int]] = None):
        if scope is None:
            scope = graph.terminals()
        self.nodes: List[int] = list(scope)
        if not self.nodes:
            raise ValueError("traffic scope is empty")
        seen = set()
        for nid in self.nodes:
            if nid in seen:
                raise ValueError(f"node {nid} appears twice in scope")
            seen.add(nid)
            if not graph.nodes[nid].is_terminal:
                raise ValueError(f"node {nid} is not a terminal")
        # group scope nodes by chip, preserving scope order
        chip_order: List[int] = []
        chip_nodes: Dict[int, List[int]] = {}
        for nid in self.nodes:
            chip = graph.nodes[nid].chip
            if chip not in chip_nodes:
                chip_nodes[chip] = []
                chip_order.append(chip)
            chip_nodes[chip].append(nid)
        #: chip ids in scope order.
        self.chips: List[int] = chip_order
        #: chip id -> node ids (scope order).
        self.chip_nodes: Dict[int, List[int]] = chip_nodes
        #: node id -> (chip position in self.chips, offset within chip).
        self.node_pos: Dict[int, Tuple[int, int]] = {}
        for ci, chip in enumerate(chip_order):
            for off, nid in enumerate(chip_nodes[chip]):
                self.node_pos[nid] = (ci, off)
        #: node id -> index in self.nodes.
        self.node_index: Dict[int, int] = {
            nid: i for i, nid in enumerate(self.nodes)
        }

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_chips(self) -> int:
        return len(self.chips)

    def other_chip_rows(self, num_nodes: int) -> DestRows:
        """:class:`DestRows` of "a chip other
        than the source's, then a node on it": row 0 holds the row keys
        of the chips (rows ``1..``, their nodes), each source skips its
        own chip's position."""
        return DestRows.build(
            num_nodes,
            [range(1, self.num_chips + 1)]
            + [self.chip_nodes[chip] for chip in self.chips],
            self.nodes, 0, [self.node_pos[nid][0] for nid in self.nodes],
            chain=True,
        )

    def counterpart(self, src: int, dst_chip_pos: int, rng: random.Random) -> int:
        """Node on chip ``dst_chip_pos`` at the same offset as ``src``.

        Falls back to a random node of the chip when the offset does not
        exist there (heterogeneous chip sizes).
        """
        _, off = self.node_pos[src]
        nodes = self.chip_nodes[self.chips[dst_chip_pos]]
        if off < len(nodes):
            return nodes[off]
        return nodes[rng.randrange(len(nodes))]

    @cached_property
    def counterpart_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`counterpart` as data: ``(table, lengths)``, int64, where
        ``table[p, off]`` is the node at offset ``off`` of the chip at
        position ``p`` (``-1`` past the chip's ``lengths[p]`` nodes)."""
        rows = [self.chip_nodes[chip] for chip in self.chips]
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        table = np.full((len(rows), int(lengths.max())), -1, dtype=np.int64)
        for p, row in enumerate(rows):
            table[p, :len(row)] = row
        return table, lengths


class ChipSources(NamedTuple):
    """A pattern's active nodes grouped by chip, as int64 arrays.

    Chips come in first-appearance order of :meth:`active_nodes`
    (``positions``, :class:`ChipIndex` positions), nodes in active order
    within a chip: group ``g`` is ``nodes[bounds[g]:bounds[g + 1]]``,
    and ``rank`` / ``offset`` give each node's group and its offset on
    its chip (:attr:`ChipIndex.node_pos`).
    """

    positions: np.ndarray
    bounds: np.ndarray
    nodes: np.ndarray
    rank: np.ndarray
    offset: np.ndarray


class TrafficPattern(ABC):
    """Destination generator over a scope of terminal nodes."""

    name: str = "pattern"

    def __init__(self, graph: NetworkGraph, scope: Optional[Sequence[int]] = None):
        self.graph = graph
        self.index = ChipIndex(graph, scope)

    def active_nodes(self) -> Sequence[int]:
        """Nodes that generate traffic (default: the whole scope)."""
        return self.index.nodes

    def num_active_chips(self) -> int:
        """Chips used to normalise flits/cycle/chip (default: all in scope)."""
        return self.index.num_chips

    @cached_property
    def chip_sources(self) -> ChipSources:
        """:meth:`active_nodes` grouped by chip (see :class:`ChipSources`)."""
        active = np.asarray(self.active_nodes(), dtype=np.int64)
        node_pos = self.index.node_pos
        pos, offset = np.array(
            [node_pos[nid] for nid in active.tolist()], dtype=np.int64
        ).reshape(-1, 2).T
        chips, first = np.unique(pos, return_index=True)
        positions = chips[np.argsort(first)]
        rank_of = np.empty(self.index.num_chips, dtype=np.int64)
        rank_of[positions] = np.arange(len(positions))
        rank = rank_of[pos]
        order = np.argsort(rank, kind="stable")
        bounds = np.zeros(len(positions) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rank, minlength=len(positions)), out=bounds[1:])
        return ChipSources(
            positions, bounds, active[order], rank[order], offset[order]
        )

    @abstractmethod
    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        """Destination node for a packet from ``src`` (None = drop)."""

    #: :meth:`dest` as data: :class:`DestRows` the compiled draw pass
    #: replays exactly as the scalar calls would consume the RNG (the
    #: native core's batched pre-pass), or ``None`` when the draw is not
    #: a pick from label-keyed rows.  Patterns opt in with a cached
    #: property.
    dest_rows: Optional[DestRows] = None

    def dest_batch(self, srcs, vr):
        """Destinations of the events from ``srcs`` (int64, event
        order; ``-1`` encodes the scalar ``None`` drop), drawn through
        ``vr`` — a :class:`~repro.network.vecrandom.VecRandom` over the
        RNG :meth:`dest` would have been handed — from
        :attr:`dest_rows`; the caller commits ``vr`` afterwards.
        ``None`` declines, consuming nothing."""
        rows = self.dest_rows
        return None if rows is None else vr.draw(srcs, rows)[0]
