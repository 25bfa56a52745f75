"""Simulation parameters (paper Table IV defaults)."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SimParams"]


@dataclass(frozen=True)
class SimParams:
    """Knobs of the cycle-accurate simulator.

    Defaults follow Table IV of the paper
    (:func:`repro.analysis.format_table_iv` prints it).  The link
    bandwidth and delays live on the links, set by the topology
    builders from :data:`repro.topology.HOP_COSTS`; this object holds
    the router/measurement parameters.
    """

    #: flits per packet.
    packet_length: int = 4
    #: per-(link, VC) input buffer depth in flits.
    vc_buffer_size: int = 32
    #: cycles spent in the router pipeline per hop (added to link latency).
    router_latency: int = 1
    #: flits/cycle a terminal can inject into its router.
    injection_width: int = 1
    #: flits/cycle a terminal can eject (consume).
    ejection_width: int = 1
    #: warm-up cycles excluded from measurement.
    warmup_cycles: int = 5000
    #: measured cycles after warm-up.
    measure_cycles: int = 10000
    #: cycles the simulator keeps running after the measurement window so
    #: that most measured packets can drain and report a latency.
    drain_cycles: int = 2000
    #: RNG seed for injection process and oblivious routing choices.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.packet_length < 1:
            raise ValueError("packet_length must be >= 1")
        if self.vc_buffer_size < self.packet_length:
            raise ValueError(
                "vc_buffer_size must hold at least one packet "
                f"({self.vc_buffer_size} < {self.packet_length})"
            )
        if self.router_latency < 0:
            raise ValueError("router_latency must be >= 0")
        for name in ("injection_width", "ejection_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("warmup_cycles", "measure_cycles", "drain_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def scaled(self, **kwargs) -> "SimParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles + self.drain_cycles
