"""Route storage the simulator cores index: arena and per-routing table.

A packet references its route as an ``(offset, hops)`` slice of one
int64 array holding ``link * num_vcs + vc`` per hop — a
:class:`RouteArena`.  Routings whose routes differ per packet
(randomised ones, and the closed-form plane, which re-resolves every
packet) fill a per-core arena.  A deterministic routing without a
plane instead owns one :class:`RouteTable`: an arena plus the ``(src,
dst) -> (offset, hops)`` index, so every core of that routing — batch
lanes, consecutive batches, the reference core — reads the same slices
and each pair is resolved once while the routing object lives.
"""

from __future__ import annotations

import weakref
from typing import Optional, Tuple

import numpy as np

__all__ = ["RouteArena", "RouteTable"]

_KEY_SHIFT = 32  # bulk lookup key: (src << 32) | dst


class RouteArena:
    """Append-only int64 array of route hops."""

    def __init__(self, seed: Optional[np.ndarray] = None) -> None:
        if seed is None:
            self._buf = np.empty(1024, dtype=np.int64)
            self._len = 0
        else:
            self._buf = np.array(seed, dtype=np.int64)
            self._len = self._buf.size

    @property
    def lv(self) -> np.ndarray:
        """The hops stored so far (a view; append-only, so offsets
        handed out earlier stay valid in every later view)."""
        return self._buf[: self._len]

    def extend(self, lv) -> int:
        """Append the hops ``lv``; returns their offset.  An int64
        array given to an empty arena is adopted, not copied (a plane
        resolves a whole run at once; the caller must not write to it
        afterwards)."""
        off = self._len
        end = off + len(lv)
        if not off and isinstance(lv, np.ndarray) and lv.dtype == np.int64:
            self._buf = lv
            self._len = end
            return 0
        if end > self._buf.size:
            grown = np.empty(max(end, 2 * self._buf.size), dtype=np.int64)
            grown[:off] = self._buf[:off]
            self._buf = grown
        self._buf[off:end] = lv
        self._len = end
        return off


class RouteTable(RouteArena):
    """Resolved routes of one deterministic routing (see module
    docstring), the only place they are kept.  Misses go through the
    routing's scalar, unmemoised
    :meth:`~repro.routing.base.RoutingAlgorithm.route_flat`, which
    stays the single point of truth; the routing's ``route_memo_max``
    caps the pairs held."""

    def __init__(self, routing) -> None:
        super().__init__()
        # the routing owns the table: no cycle, so both die together
        self._routing = weakref.proxy(routing)
        self._index: dict = {}
        #: sorted-key mirror of the index for bulk lookup: (keys,
        #: offsets, hops), rebuilt when the index has grown.
        self._sorted: Tuple = ()
        self._sorted_len = -1

    def __len__(self) -> int:
        return len(self._index)

    def slice(self, src: int, dst: int, rng) -> Optional[Tuple[int, int]]:
        """``(offset, hops)`` of the route ``src -> dst``; ``None`` when
        the pair is not held and the table is full."""
        sl = self._index.get((src, dst))
        if sl is None:
            routing = self._routing
            if len(self._index) >= routing.route_memo_max:
                return None
            lv = routing.route_flat(src, dst, rng)[1]
            sl = self._index[(src, dst)] = (self.extend(lv), len(lv))
        return sl

    def slices(self, srcs: np.ndarray, dsts: np.ndarray, rng):
        """``(offsets, hops)`` of the aligned pairs, resolving the
        missing ones; ``None`` when the table cannot hold them all."""
        keys = (srcs << _KEY_SHIFT) | dsts
        # probe first: on a warm table every pair hits, and only the
        # misses are deduplicated (in key order; a set, since np.unique
        # imports numpy.ma on its first call)
        pos, miss = self._find(keys)
        if miss.any():
            for key in sorted(set(keys[miss].tolist())):
                if self.slice(
                    key >> _KEY_SHIFT, key & ((1 << _KEY_SHIFT) - 1), rng
                ) is None:
                    return None
            pos, _ = self._find(keys)
        return self._sorted[1][pos], self._sorted[2][pos]

    def _find(self, keys: np.ndarray):
        """Positions of ``keys`` in the sorted mirror, and the mask of
        keys it lacks."""
        index = self._index
        n = len(index)
        if self._sorted_len != n:
            pairs = np.fromiter(
                ((s << _KEY_SHIFT) | d for s, d in index),
                dtype=np.int64,
                count=n,
            )
            slices = np.array(
                list(index.values()), dtype=np.int64
            ).reshape(n, 2)
            order = np.argsort(pairs)
            self._sorted = (
                pairs[order], slices[order, 0], slices[order, 1]
            )
            self._sorted_len = n
        sorted_keys = self._sorted[0]
        if not n:
            return None, np.ones(keys.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(sorted_keys, keys), n - 1)
        return pos, sorted_keys[pos] != keys
