"""The span file: where the service's spans live, and how they are read.

The service installs one :class:`SpanLog` over ``spans.ndjson`` (in
its ``--state-dir``, or in the private temp root of a server without
one).  Installing it adds a :class:`~repro.obs.trace.SpanWriter` for
that file as the process-wide span sink; engine pool workers append to
the same file through writers of their own (the path reaches them as
half of the pool's trace carrier, :func:`~repro.obs.trace.
worker_carrier`).  The file is the only store of spans: nothing is
kept in memory, so a finished job costs the server no span records.

:meth:`SpanLog.for_trace` reads the file, deduplicating on
``span_id``.  It skips an undecodable line and keeps reading (the
journal's :func:`~repro.service.journal.read_ndjson_tolerant`, by
contrast, stops at the first bad line and truncates the file there):
workers append concurrently, so a worker killed mid-append can leave a
torn line with good ones after it, and that costs one span, never the
trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from . import trace

__all__ = ["SPAN_SCHEMA", "SpanLog"]

SPAN_SCHEMA = "repro.span/v1"


class SpanLog:
    """One span file: its installed writer and its per-trace reads."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._writer: Optional[trace.SpanWriter] = None

    def install(self) -> "SpanLog":
        """Register a writer to the file as a global span sink."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._writer = trace.SpanWriter(self.path)
        trace.add_sink(self._writer)
        return self

    def close(self) -> None:
        """Uninstall the writer and close its file."""
        if self._writer is not None:
            trace.remove_sink(self._writer)
            self._writer.close()
            self._writer = None

    def for_trace(self, trace_id: str) -> List[Dict]:
        """Every recorded span of ``trace_id``, one per ``span_id``, in
        start order."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            return []
        spans: Dict[str, Dict] = {}
        for line in raw.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn append (or a blank line); keep reading
            if (
                isinstance(record, dict)
                and record.get("trace_id") == trace_id
            ):
                spans[record.get("span_id", "")] = record
        return sorted(
            spans.values(),
            key=lambda s: (s.get("start", 0.0), s.get("end", 0.0)),
        )
