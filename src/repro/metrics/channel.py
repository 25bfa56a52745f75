"""Typed metric channels: the serialisable output of a probe.

A :class:`MetricChannel` is a small, schema-tagged table — named columns
plus scalar summary statistics — that one :class:`~repro.metrics.Probe`
produced for one simulation run.  Channels ride inside
:class:`~repro.network.stats.SimResult` (the ``channels`` mapping), so
they flow unchanged through the engine's :class:`~repro.engine.
ResultCache`, the ``StudyResult`` hierarchy, ``to_json``/``to_csv``
export and the ``repro-dragonfly report --channel`` CLI surface.

Cells are restricted to JSON scalars (numbers, strings, booleans,
``None``); ``NaN`` floats are encoded as ``null`` in JSON and as empty
cells in CSV, mirroring the conventions of ``SimResult.to_dict`` and
``StudyResult.to_csv``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["METRIC_CHANNEL_SCHEMA", "MetricChannel"]

#: stable schema tag of serialised channels; bump the version suffix on
#: incompatible layout changes so foreign payloads are rejected loudly.
METRIC_CHANNEL_SCHEMA = "repro.metric-channel/v1"


def _encode_cell(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _decode_cell(value):
    # ``null`` cells decode back to NaN only where they were floats;
    # the producer wrote None for NaN and nothing else, so this is
    # lossless for the channel kinds we emit.
    if value is None:
        return float("nan")
    return value


def _csv_cell(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


@dataclass(frozen=True)
class MetricChannel:
    """One probe's tabular output for one simulation run.

    Parameters
    ----------
    name:
        Channel name; by convention the registered probe kind that
        produced it (``link_util``, ``latency_hist``, ...).
    kind:
        Coarse shape tag for consumers: ``"table"``, ``"histogram"``,
        ``"timeseries"`` or ``"counters"``.
    columns:
        Ordered column names of :attr:`rows`.
    rows:
        Row tuples of JSON scalars, one per table entry (may be empty
        for summary-only channels).
    summary:
        Scalar summary statistics (always present, possibly NaN-valued).
    meta:
        Free-form provenance (probe options, units); excluded from
        nothing — it round-trips like the rest.
    """

    name: str
    kind: str = "table"
    columns: Tuple[str, ...] = ()
    rows: Tuple[Tuple, ...] = ()
    summary: Dict[str, float] = field(default_factory=dict)
    meta: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a metric channel needs a name")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"channel {self.name!r}: row {row!r} does not match "
                    f"columns {self.columns!r}"
                )

    # -- access --------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List:
        """One column as a list, by name."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"channel {self.name!r} has no column {name!r}; "
                f"columns: {list(self.columns)}"
            ) from None
        return [row[idx] for row in self.rows]

    def top(self, column: str, n: int = 10) -> List[Tuple]:
        """The ``n`` rows with the largest value in ``column``."""
        idx = self.columns.index(column)
        return sorted(self.rows, key=lambda r: r[idx], reverse=True)[:n]

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "schema": METRIC_CHANNEL_SCHEMA,
            "name": self.name,
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": [[_encode_cell(v) for v in row] for row in self.rows],
            "summary": {
                k: _encode_cell(v) for k, v in self.summary.items()
            },
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "MetricChannel":
        schema = data.get("schema")
        if schema is not None and schema != METRIC_CHANNEL_SCHEMA:
            raise ValueError(
                f"cannot read {schema!r} payload as "
                f"{METRIC_CHANNEL_SCHEMA!r}"
            )
        return cls(
            name=data["name"],
            kind=data.get("kind", "table"),
            columns=tuple(data.get("columns", ())),
            rows=tuple(
                tuple(_decode_cell(v) for v in row)
                for row in data.get("rows", ())
            ),
            summary={
                k: _decode_cell(v)
                for k, v in data.get("summary", {}).items()
            },
            meta=dict(data.get("meta", {})),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MetricChannel":
        return cls.from_dict(json.loads(text))

    def to_csv(self, prefix: Optional[Sequence[str]] = None) -> str:
        """Rows as CSV (header + one line per row).

        ``prefix`` optionally prepends constant ``name=value`` columns —
        the study exporter uses it to tag rows with scenario/curve/rate.
        """
        prefix = list(prefix or ())
        names = [p.split("=", 1)[0] for p in prefix]
        values = [p.split("=", 1)[1] if "=" in p else "" for p in prefix]
        lines = [",".join(names + list(self.columns))]
        for row in self.rows:
            lines.append(
                ",".join(values + [_csv_cell(v) for v in row])
            )
        return "\n".join(lines) + "\n"

    def format_table(self, max_rows: int = 0) -> str:
        """Plain-text rendering: summary line plus aligned rows."""
        out = [f"# channel {self.name} ({self.kind}, {self.num_rows} rows)"]
        if self.summary:
            out.append(
                "  " + "  ".join(
                    f"{k}={_csv_cell(v) or 'nan'}"
                    for k, v in self.summary.items()
                )
            )
        rows = self.rows
        truncated = 0
        if max_rows and len(rows) > max_rows:
            truncated = len(rows) - max_rows
            rows = rows[:max_rows]
        if self.columns:
            widths = [
                max(
                    len(str(c)),
                    max((len(_csv_cell(r[i])) for r in rows), default=0),
                )
                for i, c in enumerate(self.columns)
            ]
            out.append(
                "  ".join(
                    str(c).rjust(w) for c, w in zip(self.columns, widths)
                )
            )
            for row in rows:
                out.append(
                    "  ".join(
                        _csv_cell(v).rjust(w) for v, w in zip(row, widths)
                    )
                )
        if truncated:
            out.append(f"... ({truncated} more rows)")
        return "\n".join(out)
