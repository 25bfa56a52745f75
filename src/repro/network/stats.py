"""Measurement aggregation for simulation runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..metrics.channel import MetricChannel

__all__ = ["SIMRESULT_SCHEMA", "SimResult"]

#: stable schema tag stamped into serialised results; bump the version
#: suffix on incompatible field changes so foreign/stale payloads are
#: rejected instead of silently misread.
SIMRESULT_SCHEMA = "repro.sim-result/v1"

#: serialised scalar fields and the types they are restored as.
_SIMRESULT_FIELDS = {
    "offered_rate": float,
    "effective_offered": float,
    "accepted_rate": float,
    "avg_latency": float,
    "p50_latency": float,
    "p99_latency": float,
    "packets_measured": int,
    "packets_delivered": int,
    "flits_ejected": int,
    "active_chips": int,
    "measure_cycles": int,
    "avg_hops": float,
}


@dataclass
class SimResult:
    """Outcome of one simulation run at a fixed offered load.

    Rates are normalised in the paper's unit, flits/cycle/chip, where a
    "chip" is a chiplet (possibly containing several on-chip nodes).
    """

    #: nominal offered injection rate (flits/cycle/chip).
    offered_rate: float
    #: effectively offered rate: patterns with inactive nodes (e.g.
    #: permutation fixed points) inject less than nominal.
    effective_offered: float
    #: accepted throughput (flits ejected per cycle per active chip)
    #: during the measurement window.
    accepted_rate: float
    #: mean packet latency (cycles, creation -> tail ejection) over
    #: measured, delivered packets.  ``nan`` if nothing was delivered.
    avg_latency: float
    #: latency percentiles of the same population.
    p50_latency: float
    p99_latency: float
    #: number of packets created in the measurement window.
    packets_measured: int
    #: of those, how many were delivered before the simulation ended.
    packets_delivered: int
    #: total flits ejected during the measurement window.
    flits_ejected: int
    #: number of chips participating in traffic generation.
    active_chips: int
    #: cycles in the measurement window.
    measure_cycles: int
    #: mean hop count of delivered measured packets.
    avg_hops: float = float("nan")
    #: extra per-run diagnostics (delivered fraction, etc).
    extras: Dict[str, float] = field(default_factory=dict)
    #: typed metric channels produced by attached probes (see
    #: :mod:`repro.metrics`), keyed by channel name.  Empty for
    #: probe-off runs — and then absent from :meth:`to_dict`, so
    #: probe-off payloads stay byte-identical to pre-probe versions.
    channels: Dict[str, MetricChannel] = field(default_factory=dict)

    @property
    def delivered_fraction(self) -> float:
        if self.packets_measured == 0:
            return 1.0
        return self.packets_delivered / self.packets_measured

    @property
    def saturated(self) -> bool:
        """Heuristic saturation flag.

        A run is considered saturated when the network visibly fails to
        deliver the offered load: a large fraction of measured packets
        still stuck at the end, or (with enough samples for the estimate
        to be meaningful) accepted throughput below 90% of offered.
        """
        if self.offered_rate <= 0:
            return False
        if self.packets_measured >= 50 and self.delivered_fraction < 0.75:
            return True
        return (
            self.packets_measured >= 200
            and self.accepted_rate < 0.9 * self.effective_offered
        )

    @classmethod
    def from_samples(
        cls,
        *,
        offered_rate: float,
        effective_offered: float = -1.0,
        latencies: Sequence[int],
        hops: Sequence[int],
        packets_measured: int,
        flits_ejected: int,
        active_chips: int,
        measure_cycles: int,
    ) -> "SimResult":
        if len(latencies):
            arr = np.asarray(latencies, dtype=np.float64)
            avg = float(arr.mean())
            p50 = float(np.percentile(arr, 50))
            p99 = float(np.percentile(arr, 99))
        else:
            avg = p50 = p99 = float("nan")
        avg_hops = float(np.mean(hops)) if len(hops) else float("nan")
        accepted = (
            flits_ejected / (measure_cycles * active_chips)
            if measure_cycles > 0 and active_chips > 0
            else 0.0
        )
        if effective_offered < 0:
            effective_offered = offered_rate
        return cls(
            offered_rate=offered_rate,
            effective_offered=effective_offered,
            accepted_rate=accepted,
            avg_latency=avg,
            p50_latency=p50,
            p99_latency=p99,
            packets_measured=packets_measured,
            packets_delivered=len(latencies),
            flits_ejected=flits_ejected,
            active_chips=active_chips,
            measure_cycles=measure_cycles,
            avg_hops=avg_hops,
        )

    def to_dict(self) -> Dict:
        """JSON-serialisable view (NaNs encoded as ``None``)."""
        out = {"schema": SIMRESULT_SCHEMA}
        for name in _SIMRESULT_FIELDS:
            val = getattr(self, name)
            if isinstance(val, float) and math.isnan(val):
                val = None
            out[name] = val
        out["extras"] = dict(self.extras)
        if self.channels:
            out["channels"] = {
                name: ch.to_dict() for name, ch in self.channels.items()
            }
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SimResult":
        """Inverse of :meth:`to_dict` (unknown keys are ignored).

        Payloads written before schema tagging carry no ``schema`` key
        and are accepted; a tag from a different schema is rejected.
        """
        schema = data.get("schema")
        if schema is not None and schema != SIMRESULT_SCHEMA:
            raise ValueError(
                f"cannot read {schema!r} payload as {SIMRESULT_SCHEMA!r}"
            )
        kwargs = {}
        for name, typ in _SIMRESULT_FIELDS.items():
            val = data[name]
            if val is None:
                val = float("nan")
            kwargs[name] = typ(val)
        channels = {
            name: MetricChannel.from_dict(ch)
            for name, ch in data.get("channels", {}).items()
        }
        return cls(
            extras=dict(data.get("extras", {})),
            channels=channels,
            **kwargs,
        )

    def __str__(self) -> str:
        return (
            f"rate={self.offered_rate:.3f} accepted={self.accepted_rate:.3f} "
            f"lat={self.avg_latency:.1f}cyc p99={self.p99_latency:.1f} "
            f"delivered={self.packets_delivered}/{self.packets_measured}"
        )
