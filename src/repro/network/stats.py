"""Measurement aggregation: one run, one point, one curve.

* :class:`SimResult` — the outcome of one simulation run;
* :class:`PointResult` — a run at its offered rate on a curve;
* :class:`CurveResult` — one labeled latency-vs-load curve (Figs.
  10-14) with its saturation summaries: what :func:`~repro.network.
  simulator.sweep_rates` and :func:`repro.engine.run_experiments`
  return and :mod:`repro.api.results` nests into scenarios and studies;
* :func:`cutoff_walk` — the one saturation-cutoff rule both of them
  apply;
* :func:`p50_p99` — the latency percentiles of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..metrics.channel import MetricChannel

__all__ = [
    "SIMRESULT_SCHEMA",
    "CurveResult",
    "PointResult",
    "SimResult",
    "cutoff_walk",
    "p50_p99",
]

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


def p50_p99(values) -> Tuple[float, float]:
    """``np.percentile(values, (50, 99))`` bit for bit (its default
    ``linear`` method) for non-empty finite ``values``: one sort, then
    numpy's virtual index ``(n - 1) * q / 100`` and its two-sided lerp.

    ``np.percentile`` reaches ``np.unique``, which imports ``numpy.ma``
    on first use: a cost every cold run would pay for two numbers.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    last = ordered.size - 1
    out = []
    for q in (50, 99):
        v = last * (q / 100)
        if v >= last:
            out.append(float(ordered[last]))
            continue
        i = math.floor(v)
        a, b = float(ordered[i]), float(ordered[i + 1])
        t, d = v - i, b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return tuple(out)


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
            p50, p99 = p50_p99(arr)
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


@dataclass(frozen=True)
class PointResult:
    """One simulated point of a curve: an offered rate and its outcome."""

    rate: float
    result: SimResult

    @property
    def offered(self) -> float:
        return self.result.offered_rate

    @property
    def accepted(self) -> float:
        return self.result.accepted_rate

    @property
    def avg_latency(self) -> float:
        return self.result.avg_latency

    @property
    def saturated(self) -> bool:
        return self.result.saturated

    @property
    def channels(self) -> Dict[str, MetricChannel]:
        """Metric channels of this point (see :mod:`repro.metrics`)."""
        return self.result.channels

    def channel(self, name: str) -> MetricChannel:
        try:
            return self.result.channels[name]
        except KeyError:
            raise KeyError(
                f"point rate={self.rate} has no channel {name!r}; "
                f"channels: {sorted(self.result.channels)}"
            ) from None

    def to_dict(self) -> Dict:
        return {"rate": self.rate, "result": self.result.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict) -> "PointResult":
        return cls(
            rate=float(data["rate"]),
            result=SimResult.from_dict(data["result"]),
        )


@dataclass(frozen=True)
class CurveResult:
    """One labeled latency-vs-load curve and its saturation summary."""

    label: str
    points: tuple
    #: ``config_key()`` of the spec that produced the curve, tying the
    #: result back to its cache entries (empty for object-level sweeps).
    spec_key: str = ""

    @property
    def rates(self) -> List[float]:
        return [p.rate for p in self.points]

    @property
    def results(self) -> List[SimResult]:
        return [p.result for p in self.points]

    @property
    def saturation_rate(self) -> float:
        """First offered rate at which the run saturated (inf if none)."""
        for p in self.points:
            if p.saturated:
                return p.rate
        return float("inf")

    @property
    def max_accepted(self) -> float:
        """Highest accepted throughput seen across the curve."""
        return max((p.accepted for p in self.points), default=0.0)

    def zero_load_latency(self) -> float:
        """Average latency at the lowest *non-saturated* measured rate.

        A saturated point's mean latency is a queueing artefact (it
        mostly measures how long the window was), so saturated points
        are skipped even when they sit first in the curve; ``nan`` when
        every point saturated or the curve is empty — summaries carry
        the NaN through (JSON ``null``, empty CSV cell) rather than
        reporting a bogus number.
        """
        for p in self.points:
            if not p.saturated:
                return p.avg_latency
        return float("nan")

    def summary(self) -> Dict[str, float]:
        return {
            "saturation_rate": self.saturation_rate,
            "max_accepted": self.max_accepted,
            "zero_load_latency": self.zero_load_latency(),
        }

    def channel_names(self) -> List[str]:
        """Channel names present on any point of this curve."""
        names: List[str] = []
        for p in self.points:
            for name in p.channels:
                if name not in names:
                    names.append(name)
        return names

    def format_table(self) -> str:
        lines = [f"# {self.label}", "offered  accepted  avg_latency"]
        for p in self.points:
            lines.append(
                f"{p.rate:7.3f}  {p.accepted:8.3f}  {p.avg_latency:11.1f}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "spec_key": self.spec_key,
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CurveResult":
        return cls(
            label=data["label"],
            points=tuple(PointResult.from_dict(p) for p in data["points"]),
            spec_key=data.get("spec_key", ""),
        )


def cutoff_walk(
    num_rates: int,
    results: Dict[int, SimResult],
    stop_after_saturation: int,
) -> Tuple[bool, int]:
    """Walk a sweep's rate indices in order against known results.

    ``results`` maps rate index -> :class:`SimResult` (gaps allowed —
    the engine fills them out of order).  Returns ``(complete, n)``:
    when complete, ``n`` is the curve length after the saturation cutoff
    (past saturation the latency is unbounded anyway, and those runs are
    the most expensive ones); otherwise ``n`` is the first missing rate
    index that must be simulated next.
    """
    saturated = 0
    for ri in range(num_rates):
        res = results.get(ri)
        if res is None:
            return False, ri
        if res.saturated:
            saturated += 1
            if saturated >= stop_after_saturation:
                return True, ri + 1
    return True, num_rates
