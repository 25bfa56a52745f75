"""Unicast traffic patterns: uniform and bit permutations (Sec. V-A3a).

Permutations follow Dally & Towles' standard definitions over ``b``-bit
node indices, applied to a node's position within the traffic scope:

* **bit-reverse**    ``d_i = s_{b-1-i}``
* **bit-shuffle**    (perfect shuffle) ``d_i = s_{(i-1) mod b}`` — rotate
  the source index left by one bit;
* **bit-transpose**  ``d_i = s_{(i + b/2) mod b}`` — swap index halves.

When the scope size is not a power of two, the permutation acts on the
largest ``2^b``-node prefix and remaining nodes send uniformly (documented
substitute: the paper's configs in Figs. 10(a-f) are powers of two, so
this only affects the full-system runs of Fig. 11).
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from ..network.vecrandom import DestRows
from ..topology.graph import NetworkGraph
from .base import TrafficPattern

__all__ = [
    "UniformTraffic",
    "PermutationTraffic",
    "BitReverseTraffic",
    "BitShuffleTraffic",
    "BitTransposeTraffic",
]


class UniformTraffic(TrafficPattern):
    """Uniform random traffic over the scope.

    ``exclude="node"`` (default) draws destinations uniformly over all
    *other nodes* — the textbook uniform pattern, and the one that makes
    a single-chip terminal and a multi-node chip directly comparable.
    ``exclude="chip"`` additionally forbids a node's own chip, removing
    the cheap on-chip destinations.
    """

    name = "uniform"

    def __init__(self, graph, scope=None, *, exclude: str = "node"):
        super().__init__(graph, scope)
        if exclude not in ("node", "chip"):
            raise ValueError(f"unknown exclude mode {exclude!r}")
        self.exclude = exclude

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        idx = self.index
        if self.exclude == "node":
            n = idx.num_nodes
            if n < 2:
                return None
            i = idx.node_index[src]
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            return idx.nodes[j]
        src_chip, _ = idx.node_pos[src]
        nchips = idx.num_chips
        if nchips < 2:
            return None
        d = rng.randrange(nchips - 1)
        if d >= src_chip:
            d += 1
        nodes = idx.chip_nodes[idx.chips[d]]
        return nodes[rng.randrange(len(nodes))]

    @cached_property
    def dest_rows(self) -> DestRows:
        idx = self.index
        if self.exclude == "chip":
            return idx.other_chip_rows(self.graph.num_nodes)
        # one row, the scope; each source skips its own position
        return DestRows.build(
            self.graph.num_nodes, [idx.nodes], idx.nodes, 0,
            np.arange(idx.num_nodes),
        )


def _bits_for(n: int) -> int:
    """Largest b with 2**b <= n (0 when n < 2)."""
    b = 0
    while (1 << (b + 1)) <= n:
        b += 1
    return b


class PermutationTraffic(TrafficPattern):
    """Base class for bit-permutation patterns over node positions."""

    name = "permutation"

    def __init__(self, graph: NetworkGraph, scope: Optional[Sequence[int]] = None):
        super().__init__(graph, scope)
        n = self.index.num_nodes
        self._bits = _bits_for(n)
        self._pow2 = 1 << self._bits
        # precompute destinations; None marks fixed points (inactive)
        self._dest_of: List[Optional[int]] = []
        for i, nid in enumerate(self.index.nodes):
            if i < self._pow2:
                j = self._permute(i, self._bits)
                self._dest_of.append(None if j == i else self.index.nodes[j])
            else:
                self._dest_of.append(nid)  # sentinel: uniform fallback
        # drop fixed points from the active set
        self._active = [
            nid
            for i, nid in enumerate(self.index.nodes)
            if not (i < self._pow2 and self._dest_of[i] is None)
        ]

    def _permute(self, i: int, bits: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def active_nodes(self) -> Sequence[int]:
        return self._active

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        i = self.index.node_index[src]
        d = self._dest_of[i]
        if i >= self._pow2:
            # uniform fallback for nodes beyond the power-of-two prefix
            n = self.index.num_nodes
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            return self.index.nodes[j]
        return d

    @cached_property
    def dest_rows(self) -> DestRows:
        # the power-of-two prefix is a table lookup (no draw); the tail
        # draws from the scope, skipping itself, as UniformTraffic does
        idx = self.index
        pow2 = self._pow2
        return DestRows.build(
            self.graph.num_nodes, [idx.nodes], idx.nodes[pow2:], 0,
            np.arange(pow2, idx.num_nodes),
            fixed={
                nid: -1 if d is None else d
                for nid, d in zip(idx.nodes[:pow2], self._dest_of)
            },
        )


class BitReverseTraffic(PermutationTraffic):
    """d = reverse of the b-bit source index."""

    name = "bit-reverse"

    def _permute(self, i: int, bits: int) -> int:
        out = 0
        for k in range(bits):
            if i & (1 << k):
                out |= 1 << (bits - 1 - k)
        return out


class BitShuffleTraffic(PermutationTraffic):
    """d = source index rotated left by one bit (perfect shuffle)."""

    name = "bit-shuffle"

    def _permute(self, i: int, bits: int) -> int:
        if bits == 0:
            return i
        msb = (i >> (bits - 1)) & 1
        return ((i << 1) & ((1 << bits) - 1)) | msb


class BitTransposeTraffic(PermutationTraffic):
    """d = source index rotated by b/2 bits (matrix transpose)."""

    name = "bit-transpose"

    def _permute(self, i: int, bits: int) -> int:
        half = bits // 2
        if half == 0:
            return i
        rot = bits - half
        mask = (1 << bits) - 1
        return ((i << half) | (i >> rot)) & mask
