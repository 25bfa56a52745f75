"""Failed-endpoint injection masking for the network simulator.

The simulator cores drop a packet-start event whenever the traffic
pattern returns ``dest(...) is None`` — that hook is the fault model's
injection mask.  :class:`FaultMaskedTraffic` wraps any
:class:`~repro.traffic.base.TrafficPattern` so that

* dead terminals never inject (they are removed from the active-node
  list, so the injection schedule samples no events for them at all);
* packets addressed to a dead or partitioned-away terminal are dropped
  at the source (``dest`` returns ``None``) instead of entering a
  network that cannot deliver them;
* offered load stays normalised per *surviving* chip, matching how the
  paper reports throughput under degradation.

The wrapper draws the base pattern's destination first and masks after,
so the stdlib RNG stream is consumed identically by every simulator
core — the property the cross-core equivalence harness asserts on
degraded instances too.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .degraded import DegradedTopology

__all__ = ["FaultMaskedTraffic"]


class FaultMaskedTraffic:
    """A traffic pattern filtered through a degraded topology."""

    def __init__(self, base, degraded: DegradedTopology) -> None:
        self.base = base
        self.degraded = degraded
        self.name = f"{getattr(base, 'name', 'pattern')}+faults"
        self._active: List[int] = [
            nid for nid in base.active_nodes() if degraded.alive(nid)
        ]
        if not self._active:
            raise ValueError(
                "every traffic source in scope failed; nothing to simulate"
            )
        graph = degraded.graph
        self._active_chips = len(
            {graph.nodes[nid].chip for nid in self._active}
        )
        self.masked_dests = 0

    def active_nodes(self) -> List[int]:
        return self._active

    def num_active_chips(self) -> int:
        return self._active_chips

    #: masking happens per destination in :meth:`dest`, so the base
    #: pattern's draw rows (and ``dest_batch``, which reads them) must
    #: not leak through ``__getattr__`` — a dead destination would
    #: bypass the mask.  The class attributes shadow the delegation and
    #: decline both hooks: masked traffic keeps the scalar pre-pass.
    dest_rows = dest_batch = None

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        dst = self.base.dest(src, rng)
        if dst is None:
            return None
        deg = self.degraded
        if not deg.alive(dst) or not deg.reachable(src, dst):
            self.masked_dests += 1
            return None
        return dst

    def __getattr__(self, name):
        # delegate anything else (graph, index, ...) to the base pattern
        return getattr(self.base, name)
