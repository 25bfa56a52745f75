"""Structured results: the ``StudyResult -> ScenarioResult -> PointResult``
hierarchy returned by :meth:`repro.api.Study.run`.

Each level is a plain dataclass with a stable, schema-tagged JSON form:

* :class:`PointResult` — one simulated ``(spec, rate)`` point;
* :class:`CurveResult` — one labeled latency-vs-load curve (the points
  of one :class:`~repro.engine.ExperimentSpec`), with the saturation
  summaries the benchmarks assert on — both defined beside
  ``SimResult`` in :mod:`repro.network.stats` (the engine returns them
  as they are) and re-exported here;
* :class:`ScenarioResult` — the curves of one comparative scenario
  (typically one figure panel of the paper), addressable by label;
* :class:`StudyResult` — the scenarios of one campaign, with
  ``to_json()`` / ``to_csv()`` export and a text :meth:`~StudyResult.
  render` that replaces the benchmarks' hand-rolled table printing.

Everything except the ``meta`` block (timing, worker count, cache
counters) is a pure function of the study definition, so two runs of
the same study — CLI or Python, serial or parallel, cached or fresh —
serialise identically modulo ``meta``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .._shape import shaped
from ..network.stats import CurveResult, PointResult

__all__ = [
    "STUDY_RESULT_SCHEMA",
    "PointResult",
    "CurveResult",
    "ScenarioResult",
    "StudyResult",
]

#: stable schema tag of the serialised hierarchy; bump the version on
#: incompatible layout changes.
STUDY_RESULT_SCHEMA = "repro.study-result/v1"


def _fmt(value: float) -> str:
    """CSV cell for a float: short, stable, empty for NaN."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{value:.6g}"


@dataclass(frozen=True)
class ScenarioResult:
    """All curves of one comparative scenario, addressable by label."""

    name: str
    curves: tuple
    title: str = ""
    note: str = ""
    #: label of the reference curve that speedups are reported against.
    baseline: str = ""

    def labels(self) -> List[str]:
        return [c.label for c in self.curves]

    def curve(self, label: str) -> CurveResult:
        for c in self.curves:
            if c.label == label:
                return c
        raise KeyError(
            f"scenario {self.name!r} has no curve {label!r}; "
            f"curves: {self.labels()}"
        )

    def __getitem__(self, label: str) -> CurveResult:
        return self.curve(label)

    def __contains__(self, label: str) -> bool:
        return any(c.label == label for c in self.curves)

    def __iter__(self) -> Iterator[CurveResult]:
        return iter(self.curves)

    def summary(self) -> List[Dict]:
        """Per-curve saturation summaries, plus the accepted-throughput
        ratio against the baseline curve when one is named."""
        base = None
        if self.baseline and self.baseline in self:
            base = self.curve(self.baseline).max_accepted
        rows = []
        for c in self.curves:
            row = {"label": c.label, **c.summary()}
            if base:
                row["vs_baseline"] = c.max_accepted / base
            rows.append(row)
        return rows

    def render(self) -> str:
        out = [f"==== {self.title or self.name} ===="]
        if self.note:
            out.append(self.note)
        for c in self.curves:
            out.append(c.format_table())
            line = (
                f"-> saturation ~{c.saturation_rate:.2f}, "
                f"max accepted {c.max_accepted:.2f} flits/cycle/chip"
            )
            if self.baseline and c.label != self.baseline:
                base = self.curve(self.baseline).max_accepted
                if base > 0:
                    line += f" ({c.max_accepted / base:.2f}x {self.baseline})"
            out.append(line)
        return "\n".join(out)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "title": self.title,
            "note": self.note,
            "baseline": self.baseline,
            "curves": [c.to_dict() for c in self.curves],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioResult":
        shaped(data, dict, "a scenario result")
        return cls(
            name=data["name"],
            curves=tuple(
                CurveResult.from_dict(c)
                for c in shaped(data["curves"], list, "'curves'")
            ),
            title=data.get("title", ""),
            note=data.get("note", ""),
            baseline=data.get("baseline", ""),
        )


#: flat export columns of :meth:`StudyResult.to_csv`, one row per point.
_CSV_COLUMNS = (
    "scenario",
    "curve",
    "rate",
    "offered",
    "effective_offered",
    "accepted",
    "avg_latency",
    "p50_latency",
    "p99_latency",
    "avg_hops",
    "saturated",
)


@dataclass(frozen=True)
class StudyResult:
    """Results of a whole campaign: one entry per scenario, in order."""

    name: str
    scenarios: tuple
    title: str = ""
    #: run provenance (elapsed seconds, worker count, cache counters).
    #: Excluded from result equality — everything else is deterministic.
    meta: Dict = field(default_factory=dict, compare=False)

    def names(self) -> List[str]:
        return [s.name for s in self.scenarios]

    def scenario(self, name: str) -> ScenarioResult:
        for s in self.scenarios:
            if s.name == name:
                return s
        raise KeyError(
            f"study {self.name!r} has no scenario {name!r}; "
            f"scenarios: {self.names()}"
        )

    def __getitem__(self, name: str) -> ScenarioResult:
        return self.scenario(name)

    def __contains__(self, name: str) -> bool:
        return any(s.name == name for s in self.scenarios)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self.scenarios)

    def render(self) -> str:
        out = []
        if self.title:
            out.append(f"=== {self.title} ===")
        out.extend(s.render() for s in self.scenarios)
        return "\n\n".join(out)

    # -- export --------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "schema": STUDY_RESULT_SCHEMA,
            "name": self.name,
            "title": self.title,
            "meta": dict(self.meta),
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "StudyResult":
        schema = shaped(data, dict, "a study result").get("schema")
        if schema != STUDY_RESULT_SCHEMA:
            raise ValueError(
                f"cannot read {schema!r} payload as {STUDY_RESULT_SCHEMA!r}"
            )
        return cls(
            name=data["name"],
            scenarios=tuple(
                ScenarioResult.from_dict(s)
                for s in shaped(data["scenarios"], list, "'scenarios'")
            ),
            title=data.get("title", ""),
            meta=dict(data.get("meta", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "StudyResult":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StudyResult":
        return cls.from_json(Path(path).read_text())

    # -- metric channels ----------------------------------------------
    def channel_names(self) -> List[str]:
        """Channel names present anywhere in the study, in first-seen
        order (probe-off studies return ``[]``)."""
        names: List[str] = []
        for scn in self.scenarios:
            for curve in scn.curves:
                for name in curve.channel_names():
                    if name not in names:
                        names.append(name)
        return names

    def iter_channels(self, name: str):
        """Yield ``(scenario, curve, point, channel)`` for every point
        carrying channel ``name``."""
        for scn in self.scenarios:
            for curve in scn.curves:
                for p in curve.points:
                    ch = p.channels.get(name)
                    if ch is not None:
                        yield scn, curve, p, ch

    def channel_csv(self, name: str) -> str:
        """Long-form CSV of one channel across every point.

        Rows are the channel's own rows, prefixed with
        ``scenario,curve,rate`` columns so a single file holds the
        whole study's telemetry for that channel.
        """
        lines: List[str] = []
        for scn, curve, p, ch in self.iter_channels(name):
            block = ch.to_csv(
                prefix=(
                    f"scenario={scn.name}",
                    f"curve={curve.label}",
                    f"rate={_fmt(p.rate)}",
                )
            ).splitlines()
            if not lines:
                lines.append(block[0])
            lines.extend(block[1:])
        if not lines:
            raise KeyError(
                f"study {self.name!r} has no channel {name!r}; "
                f"channels: {self.channel_names()}"
            )
        return "\n".join(lines) + "\n"

    def render_channel(self, name: str, max_rows: int = 12) -> str:
        """Text rendering of one channel across every point."""
        out: List[str] = []
        for scn, curve, p, ch in self.iter_channels(name):
            out.append(
                f"==== {scn.name} / {curve.label} @ rate "
                f"{_fmt(p.rate)} ===="
            )
            out.append(ch.format_table(max_rows=max_rows))
        if not out:
            raise KeyError(
                f"study {self.name!r} has no channel {name!r}; "
                f"channels: {self.channel_names()}"
            )
        return "\n".join(out)

    def to_csv(self) -> str:
        """Flat per-point table (one header row, ``,``-separated)."""
        lines = [",".join(_CSV_COLUMNS)]
        for scn in self.scenarios:
            for curve in scn.curves:
                for p in curve.points:
                    r = p.result
                    lines.append(
                        ",".join(
                            (
                                scn.name,
                                curve.label,
                                _fmt(p.rate),
                                _fmt(r.offered_rate),
                                _fmt(r.effective_offered),
                                _fmt(r.accepted_rate),
                                _fmt(r.avg_latency),
                                _fmt(r.p50_latency),
                                _fmt(r.p99_latency),
                                _fmt(r.avg_hops),
                                "1" if r.saturated else "0",
                            )
                        )
                    )
        return "\n".join(lines) + "\n"
