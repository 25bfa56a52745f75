"""Vectorized injection scheduling for the cycle-accurate simulator.

The paper's injection process is Bernoulli: every active terminal starts
a packet with probability ``p`` each cycle.  Drawing that per cycle
(``rng.random(n) < p``) costs a numpy round-trip on *every* cycle even
when nothing injects.  An identical process can be sampled up front:
inter-arrival gaps of a Bernoulli(p) process are Geometric(p) on
{1, 2, ...}, so per node we draw a batch of geometric gaps, cumulative-sum
them into arrival cycles, and merge all nodes into one (cycle, node)
event list sorted by cycle.  The simulator then just walks a pointer —
idle cycles cost a single integer comparison, and cores can even jump
over provably idle stretches.

Every simulator core samples its schedule here, from the same numpy
stream (:meth:`repro.network.corebase.CoreBase.make_schedule`), or
accepts a prebuilt :class:`InjectionSchedule` to pin the packet starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

__all__ = ["InjectionSchedule", "build_injection_schedule"]


def _i64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class InjectionSchedule:
    """Packet-start events for one run, sorted by (cycle, source order).

    ``cycles[i]`` is the cycle at which node ``nodes[i]`` starts a
    packet.  Within a cycle, events keep the order of the traffic
    pattern's active-node list — the same order the per-cycle Bernoulli
    mask used to walk, so arbitration sees sources in a familiar order.

    Both columns are int64 arrays and nothing else is kept per event:
    16 bytes an event (a pair of Python-int lists beside them cost
    another ~80).  Sequences passed in are converted once; schedules
    compare equal when their horizons and columns are.
    """

    #: event cycles, non-decreasing, all < horizon.
    cycles: np.ndarray = field(default_factory=lambda: _i64(()))
    #: event source node ids, aligned with :attr:`cycles`.
    nodes: np.ndarray = field(default_factory=lambda: _i64(()))
    #: cycles [0, horizon) the schedule was sampled over.
    horizon: int = 0

    def __post_init__(self) -> None:
        cycles, nodes = _i64(self.cycles), _i64(self.nodes)
        if cycles.ndim != 1 or cycles.shape != nodes.shape:
            raise ValueError("cycles and nodes must be aligned 1-d columns")
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return self.cycles.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, InjectionSchedule):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and np.array_equal(self.cycles, other.cycles)
            and np.array_equal(self.nodes, other.nodes)
        )

    def offered_packets(self) -> int:
        """Total packet-start events (an upper bound on packets sent)."""
        return self.cycles.size


def _geometric_arrivals(
    p: float, horizon: int, rng: np.random.Generator
) -> np.ndarray:
    """Arrival cycles in [0, horizon) of a Bernoulli(p) process.

    Gaps are Geometric(p) on {1, 2, ...}; the first arrival lands at
    ``gap - 1`` so that cycle 0 can inject with probability ``p``.
    """
    if p >= 1.0:
        return np.arange(horizon, dtype=np.int64)
    mean = horizon * p
    # enough draws to overshoot the horizon almost surely; top up if not
    batch = int(mean + 6.0 * math.sqrt(mean + 1.0) + 16.0)
    times = np.cumsum(rng.geometric(p, size=batch).astype(np.int64)) - 1
    while times[-1] < horizon:
        extra = rng.geometric(p, size=max(16, batch // 4)).astype(np.int64)
        times = np.concatenate([times, times[-1] + np.cumsum(extra)])
    return times[: int(np.searchsorted(times, horizon))]


def _equal_prob_arrivals(
    probs: np.ndarray, horizon: int, rng: np.random.Generator
):
    """All nodes' arrival cycles in one geometric draw, when possible.

    When every node shares one probability ``p`` in ``(0, 1)`` (the
    common uniform-traffic case), the per-node batches of
    :func:`_geometric_arrivals` are consecutive same-sized slices of
    the generator's stream — numpy fills a single ``size=n*batch``
    request in exactly that order, so one call produces bit-identical
    gaps at a fraction of the per-node dispatch cost.  Returns
    ``(cycles, node_index)`` aligned row-major (node order, then
    cycle), or ``None`` to decline: unequal/degenerate probabilities,
    or any node's batch under-shooting the horizon (the per-node path
    would top up mid-stream; the bit-generator state is restored so
    the slow path replays the identical draws).
    """
    if horizon <= 0 or probs.size == 0:
        return None
    p = float(probs[0])
    if not 0.0 < p < 1.0 or not np.all(probs == p):
        return None
    mean = horizon * p
    batch = int(mean + 6.0 * math.sqrt(mean + 1.0) + 16.0)
    state = rng.bit_generator.state
    gaps = rng.geometric(p, size=probs.size * batch).astype(np.int64)
    times = np.cumsum(gaps.reshape(probs.size, batch), axis=1) - 1
    if not np.all(times[:, -1] >= horizon):
        rng.bit_generator.state = state
        return None
    mask = times < horizon
    rows, _ = np.nonzero(mask)
    return times[mask], rows


def build_injection_schedule(
    active_nodes: Sequence[int],
    probs: Sequence[float],
    horizon: int,
    rng: np.random.Generator,
) -> InjectionSchedule:
    """Sample every node's packet-start cycles over ``[0, horizon)``.

    Parameters
    ----------
    active_nodes:
        Traffic-generating node ids, in the traffic pattern's order.
    probs:
        Per-node packet-start probability per cycle (aligned with
        ``active_nodes``); each must be in ``[0, 1]``.
    horizon:
        Number of cycles packets may start in (warmup + measurement).
    rng:
        Numpy generator; one geometric batch is consumed per node with
        ``0 < p < 1``, in node order.
    """
    fast = _equal_prob_arrivals(
        np.asarray(probs, dtype=np.float64), horizon, rng
    )
    if fast is not None:
        cycles, order = fast
        if not cycles.size:
            return InjectionSchedule(horizon=horizon)
    else:
        cycle_parts: List[np.ndarray] = []
        order_parts: List[np.ndarray] = []
        for i, p in enumerate(probs):
            if p <= 0.0 or horizon <= 0:
                continue
            if p > 1.0:
                raise ValueError(
                    f"injection probability {p} > 1 for node index {i}"
                )
            times = _geometric_arrivals(float(p), horizon, rng)
            if times.size:
                cycle_parts.append(times)
                order_parts.append(np.full(times.size, i, dtype=np.int64))
        if not cycle_parts:
            return InjectionSchedule(horizon=horizon)
        cycles = np.concatenate(cycle_parts)
        order = np.concatenate(order_parts)
    # lexsort: primary key last — sort by cycle, ties by active-list order
    idx = np.lexsort((order, cycles))
    return InjectionSchedule(
        cycles[idx], _i64(active_nodes)[order[idx]], horizon
    )
