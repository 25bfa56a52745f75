"""Span sink: bounded in-memory trace index + NDJSON file log.

The service installs one :class:`SpanLog` as the process-wide span
sink.  Finished spans (``repro.span/v1`` dicts, see
:mod:`repro.obs.trace`) are kept two ways:

* **in memory** — a bounded deque plus a per-``trace_id`` index, so
  ``GET /api/jobs/<id>/trace`` answers without touching disk (and
  works for servers running without a ``--state-dir``);
* **on disk** — appended line by line to ``<state-dir>/spans.ndjson``
  when a path is configured, surviving restarts and collecting spans
  that engine *worker processes* append directly (they inherit the
  path through ``REPRO_SPANLOG``).

:meth:`SpanLog.for_trace` merges both views, deduplicating on
``span_id`` (a span is only ever emitted once, but the file may hold
what memory already has).  File reads skip an undecodable line and
keep reading (the journal's :func:`~repro.service.journal.
read_ndjson_tolerant`, by contrast, stops at the first bad line and
truncates the file there) — a crash mid-append costs one span, never
the trace.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict, deque
from pathlib import Path
from typing import Dict, List, Optional, Union

from . import trace

__all__ = ["SPAN_SCHEMA", "SpanLog"]

SPAN_SCHEMA = "repro.span/v1"

#: default bound on spans kept in memory (FIFO eviction, whole-trace
#: index entries dropped as their spans age out).
DEFAULT_MAX_SPANS = 20_000


class SpanLog:
    """Thread-safe span store; usable directly as a trace sink."""

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.path = Path(path) if path else None
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: deque = deque()
        self._by_trace: "OrderedDict[str, List[Dict]]" = OrderedDict()
        #: spans recorded since construction (monotonic counter).
        self.recorded = 0
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")

    # -- sink surface --------------------------------------------------
    def __call__(self, record: Dict) -> None:
        self.record(record)

    def record(self, record: Dict) -> None:
        with self._lock:
            self.recorded += 1
            self._spans.append(record)
            trace_id = record.get("trace_id")
            if trace_id:
                self._by_trace.setdefault(trace_id, []).append(record)
            while len(self._spans) > self.max_spans:
                old = self._spans.popleft()
                bucket = self._by_trace.get(old.get("trace_id"))
                if bucket is not None:
                    try:
                        bucket.remove(old)
                    except ValueError:
                        pass
                    if not bucket:
                        self._by_trace.pop(old.get("trace_id"), None)
            if self._fh is not None:
                try:
                    self._fh.write(json.dumps(record) + "\n")
                    self._fh.flush()
                except OSError:
                    pass

    # -- lifecycle -----------------------------------------------------
    def install(self) -> "SpanLog":
        """Register as a global sink; advertise the file path to worker
        processes via ``REPRO_SPANLOG``."""
        trace.add_sink(self)
        if self.path is not None:
            os.environ[trace.SPANLOG_ENV] = str(self.path)
        return self

    def uninstall(self) -> None:
        trace.remove_sink(self)
        if self.path is not None and (
            os.environ.get(trace.SPANLOG_ENV) == str(self.path)
        ):
            os.environ.pop(trace.SPANLOG_ENV, None)

    def close(self) -> None:
        self.uninstall()
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    # -- queries -------------------------------------------------------
    def traces(self) -> List[str]:
        with self._lock:
            return list(self._by_trace)

    def for_trace(self, trace_id: str) -> List[Dict]:
        """Every known span of ``trace_id``, file and memory merged
        (deduplicated on ``span_id``), in start order."""
        with self._lock:
            merged: "OrderedDict[str, Dict]" = OrderedDict()
            for record in self._read_file():
                if record.get("trace_id") == trace_id:
                    merged[record.get("span_id", "")] = record
            for record in self._by_trace.get(trace_id, ()):
                merged[record.get("span_id", "")] = record
        spans = list(merged.values())
        spans.sort(key=lambda s: (s.get("start", 0.0), s.get("end", 0.0)))
        return spans

    def _read_file(self) -> List[Dict]:
        if self.path is None:
            return []
        try:
            raw = self.path.read_bytes()
        except OSError:
            return []
        out: List[Dict] = []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except ValueError:
                continue  # torn append; skip, keep reading
        return out
