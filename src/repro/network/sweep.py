"""Injection-rate sweeps: the latency-vs-load curves of Figs. 10-14."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..topology.graph import NetworkGraph
from .params import SimParams
from .simulator import Simulator
from .stats import SimResult

__all__ = [
    "LOADSWEEP_SCHEMA",
    "LoadSweep",
    "assemble_sweep",
    "cutoff_walk",
    "find_saturation",
    "sweep_rates",
]

#: stable schema tag for serialised sweeps (see SIMRESULT_SCHEMA).
LOADSWEEP_SCHEMA = "repro.load-sweep/v1"


@dataclass
class LoadSweep:
    """A measured latency/throughput curve for one network configuration."""

    label: str
    rates: List[float]
    results: List[SimResult]

    @property
    def saturation_rate(self) -> float:
        """First offered rate at which the run saturated (inf if none)."""
        for rate, res in zip(self.rates, self.results):
            if res.saturated:
                return rate
        return float("inf")

    @property
    def max_accepted(self) -> float:
        """Highest accepted throughput seen across the sweep."""
        return max((r.accepted_rate for r in self.results), default=0.0)

    def zero_load_latency(self) -> float:
        """Average latency at the lowest *non-saturated* measured rate.

        A saturated point's mean latency is a queueing artefact (it
        mostly measures how long the window was), so saturated points
        are skipped even when they sit first in the sweep — e.g. a
        sweep whose lowest offered load already exceeded saturation.
        Returns ``nan`` when every measured point saturated (or the
        sweep is empty): there is no zero-load regime to report.
        """
        for res in self.results:
            if not res.saturated:
                return res.avg_latency
        return float("nan")

    def rows(self) -> List[Tuple[float, float, float]]:
        """(offered, accepted, avg latency) rows for tabular output."""
        return [
            (rate, res.accepted_rate, res.avg_latency)
            for rate, res in zip(self.rates, self.results)
        ]

    def format_table(self) -> str:
        lines = [f"# {self.label}", "offered  accepted  avg_latency"]
        for rate, acc, lat in self.rows():
            lines.append(f"{rate:7.3f}  {acc:8.3f}  {lat:11.1f}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable view, schema-tagged like ``SimResult``."""
        return {
            "schema": LOADSWEEP_SCHEMA,
            "label": self.label,
            "rates": list(self.rates),
            "results": [res.to_dict() for res in self.results],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoadSweep":
        """Inverse of :meth:`to_dict` (untagged payloads accepted)."""
        schema = data.get("schema")
        if schema is not None and schema != LOADSWEEP_SCHEMA:
            raise ValueError(
                f"cannot read {schema!r} payload as {LOADSWEEP_SCHEMA!r}"
            )
        return cls(
            label=data.get("label", ""),
            rates=[float(r) for r in data["rates"]],
            results=[SimResult.from_dict(r) for r in data["results"]],
        )


def cutoff_walk(
    num_rates: int,
    results: dict,
    stop_after_saturation: int,
) -> Tuple[bool, int]:
    """Walk a sweep's rate indices in order against known results.

    ``results`` maps rate index -> :class:`SimResult` (gaps allowed —
    the engine fills them out of order).  Returns ``(complete, n)``:
    when complete, ``n`` is the sweep length after the saturation cutoff
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


def assemble_sweep(
    label: str,
    rates: Sequence[float],
    results: dict,
    stop_after_saturation: int,
) -> LoadSweep:
    """Build the :class:`LoadSweep` a serial in-order run would return."""
    complete, n = cutoff_walk(len(rates), results, stop_after_saturation)
    if not complete:
        raise ValueError(
            f"sweep {label!r} is missing the result for rate index {n}"
        )
    return LoadSweep(
        label=label,
        rates=[float(r) for r in rates[:n]],
        results=[results[ri] for ri in range(n)],
    )


def sweep_rates(
    graph: NetworkGraph,
    routing,
    traffic,
    rates: Sequence[float],
    params: Optional[SimParams] = None,
    *,
    label: str = "",
    stop_after_saturation: int = 1,
) -> LoadSweep:
    """Simulate each offered rate with a fresh simulator instance.

    The direct, object-level walk.  :func:`repro.engine.
    run_experiments` applies the same cutoff (:func:`cutoff_walk`,
    :func:`assemble_sweep`) to specs it can rebuild in worker
    processes, several rates per kernel call, with caching.
    """
    params = params or SimParams()
    rates = list(rates)
    results: dict = {}
    while True:
        complete, ri = cutoff_walk(
            len(rates), results, stop_after_saturation
        )
        if complete:
            break
        sim = Simulator(graph, routing, traffic, params)
        results[ri] = sim.run(rates[ri])
    return assemble_sweep(label, rates, results, stop_after_saturation)


def find_saturation(
    graph_factory: Callable[[], Tuple[NetworkGraph, object, object]],
    *,
    params: Optional[SimParams] = None,
    lo: float = 0.05,
    hi: float = 4.0,
    tol: float = 0.05,
    max_iter: int = 12,
) -> float:
    """Bisect for the saturation injection rate (flits/cycle/chip).

    ``graph_factory`` returns a fresh ``(graph, routing, traffic)`` triple
    per probe so simulator state never leaks between probes.  Returns the
    highest rate that is *not* saturated, within ``tol``.
    """
    params = params or SimParams()

    def probe(rate: float) -> bool:
        graph, routing, traffic = graph_factory()
        res = Simulator(graph, routing, traffic, params).run(rate)
        return res.saturated

    if probe(lo):
        return 0.0
    if not probe(hi):
        return hi
    good, bad = lo, hi
    for _ in range(max_iter):
        if bad - good <= tol:
            break
        mid = 0.5 * (good + bad)
        if probe(mid):
            bad = mid
        else:
            good = mid
    return good
