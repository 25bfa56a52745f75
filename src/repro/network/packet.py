"""Packets and flits for the cycle-accurate simulator.

The simulator is *source routed*: every routing algorithm in the paper is
oblivious (minimal routes are unique up to the intra-mesh path policy;
non-minimal Valiant routes pick their random intermediate at injection), so
the full path — a sequence of ``(link id, virtual channel)`` hops — is
computed once when the packet is created.  Routers then only perform buffer
management, VC allocation, arbitration and credit flow control, which is
where all contention behaviour lives.
"""

from __future__ import annotations

from typing import Sequence, Tuple

__all__ = ["Hop", "Packet"]

#: One hop of a source route: (link id, virtual channel index).
Hop = Tuple[int, int]


class Packet:
    """A multi-flit packet with a precomputed source route.

    Flits are represented as small mutable lists ``[packet, flit_index,
    hop_index]`` created lazily by the simulator; the packet itself holds
    the shared route and bookkeeping.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "size",
        "path",
        "path_lv",
        "path_len",
        "t_create",
        "t_done",
        "measured",
    )

    def __init__(
        self,
        pid: int,
        src: int,
        dst: int,
        size: int,
        path: Sequence[Hop],
        t_create: int,
        measured: bool,
    ) -> None:
        self.pid = pid
        self.src = src
        self.dst = dst
        self.size = size
        self.path: Tuple[Hop, ...] = tuple(path)
        #: flat (link * num_vcs + vc) view of the path, filled in by the
        #: simulator for its hot loop (it knows num_vcs; we don't).
        self.path_lv: Tuple[int, ...] = ()
        self.path_len = len(self.path)
        self.t_create = t_create
        self.t_done = -1
        self.measured = measured

    @property
    def delivered(self) -> bool:
        return self.t_done >= 0

    @property
    def latency(self) -> int:
        """Creation-to-tail-ejection latency; -1 while in flight."""
        if self.t_done < 0:
            return -1
        return self.t_done - self.t_create

    def hop_count(self) -> int:
        return len(self.path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(pid={self.pid}, {self.src}->{self.dst}, "
            f"size={self.size}, hops={len(self.path)}, "
            f"t_create={self.t_create}, t_done={self.t_done})"
        )
