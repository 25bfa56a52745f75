"""Channel summaries: the consumer side of this package.

These helpers read the typed :class:`~repro.metrics.MetricChannel`
payloads that probes attach to simulated points — per-link load maps,
misroute ratios and congestion time series — and condense them into
the curve-level summaries the paper's Fig. 13-style discussion needs.

All functions take results from :meth:`repro.api.Study.run` (or the
individual ``CurveResult``/``PointResult`` objects) whose specs carried
a ``metrics`` axis; they raise :class:`KeyError` with the available
channel names when the requested channel is absent.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

__all__ = [
    "channel_columns",
    "congestion_evolution",
    "hot_links",
    "link_load_summary",
    "misroute_rows",
    "misroute_table",
]


def channel_columns(channel) -> Dict[str, List]:
    """Column-major view of a channel: column name -> value list."""
    return {
        name: channel.column(name) for name in channel.columns
    }


# ----------------------------------------------------------------------
# link utilisation (``link_util`` channel)
# ----------------------------------------------------------------------
def hot_links(channel, n: int = 10) -> List[Tuple]:
    """The ``n`` most-loaded links of a ``link_util`` channel, as
    ``(link, src, dst, flits, flits_per_cycle, share)`` rows."""
    return channel.top("flits", n)


def link_load_summary(point) -> Dict[str, float]:
    """Load-balance statistics of one point's ``link_util`` channel.

    Returns the channel summary extended with a max/mean imbalance
    factor — 1.0 means perfectly balanced link load, large values mean
    a few links carry the traffic (the congestion signature minimal
    routing shows under adversarial patterns).
    """
    ch = point.channel("link_util")
    summary = dict(ch.summary)
    mean = summary.get("mean_flits_per_cycle")
    peak = summary.get("max_flits_per_cycle")
    summary["imbalance"] = (
        peak / mean
        if mean and peak is not None and not math.isnan(mean) and mean > 0
        else float("nan")
    )
    return summary


# ----------------------------------------------------------------------
# misrouting (``misroute`` channel) — the Fig. 13 metric
# ----------------------------------------------------------------------
def misroute_rows(curve) -> List[Tuple[float, float, float]]:
    """``(rate, misroute_ratio, avg_excess_hops)`` per curve point.

    The ratio counts measured delivered packets whose route exceeded
    the BFS-minimal hop distance.  Flat minimal routings sit at 0;
    hierarchical minimal policies carry a constant structural offset
    (see :class:`~repro.metrics.MisrouteProbe`), so compare minimal
    vs Valiant rows of the *same* architecture for the Fig. 13 signal.
    """
    rows = []
    for p in curve.points:
        s = p.channel("misroute").summary
        rows.append((p.rate, s["misroute_ratio"], s["avg_excess"]))
    return rows


def misroute_table(result) -> str:
    """Text table of misroute ratios for every curve of a study result
    (works on :class:`~repro.api.StudyResult` and
    :class:`~repro.api.ScenarioResult`)."""
    scenarios = getattr(result, "scenarios", None) or (result,)
    lines = ["# misrouting (measured delivered packets)",
             "scenario      curve            rate  misroute  avg_excess"]
    for scn in scenarios:
        for curve in scn.curves:
            for rate, ratio, excess in misroute_rows(curve):
                lines.append(
                    f"{scn.name:12s}  {curve.label:15s} {rate:5.2f}  "
                    f"{ratio:8.3f}  {excess:10.3f}"
                )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# congestion evolution (``timeseries`` channel)
# ----------------------------------------------------------------------
def congestion_evolution(point) -> Dict[str, List]:
    """One point's windowed telemetry as column lists.

    Keys: ``t_start``, ``t_end``, ``injected``, ``completed``,
    ``backlog``, ``avg_latency`` — backlog growth across windows is the
    congestion-onset signal (a stable network plateaus, a saturated one
    climbs monotonically).
    """
    return channel_columns(point.channel("timeseries"))
