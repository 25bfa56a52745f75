"""SpanLog: the span file is the only store, read back per trace."""

import json
import os

import pytest

from repro.obs import SpanLog, trace
from repro.obs.trace import span

from ..conftest import telemetry_restored


def _span(trace_id, span_id, name="s", start=1.0, **extra):
    rec = {
        "schema": "repro.span/v1",
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": None,
        "name": name,
        "start": start,
        "end": start + 0.5,
        "status": "ok",
    }
    rec.update(extra)
    return rec


def _lines(*records):
    return "".join(json.dumps(r) + "\n" for r in records)


class TestFileBacked:
    def test_for_trace_filters_in_start_order(self, tmp_path):
        log = SpanLog(tmp_path / "spans.ndjson").install()
        try:
            trace.emit(_span("t1", "a", start=2.0))
            trace.emit(_span("t1", "b", start=1.0))
            trace.emit(_span("t2", "c"))
            got = log.for_trace("t1")
            assert [s["span_id"] for s in got] == ["b", "a"]
            assert [s["span_id"] for s in log.for_trace("t2")] == ["c"]
        finally:
            log.close()

    def test_spans_persist_across_logs(self, tmp_path):
        """A second log over the file (a restarted server) reads the
        first one's spans with its own, and so does a log that was
        never installed: nothing lives outside the file."""
        path = tmp_path / "spans.ndjson"
        first = SpanLog(path).install()
        trace.emit(_span("t1", "before-restart"))
        first.close()

        second = SpanLog(path).install()
        trace.emit(_span("t1", "after-restart", start=2.0))
        ids = ["before-restart", "after-restart"]
        assert [s["span_id"] for s in second.for_trace("t1")] == ids
        second.close()
        assert [s["span_id"] for s in SpanLog(path).for_trace("t1")] == ids

    def test_duplicate_span_ids_deduplicated(self, tmp_path):
        path = tmp_path / "spans.ndjson"
        path.write_text(_lines(_span("t1", "a"), _span("t1", "a")))
        assert len(SpanLog(path).for_trace("t1")) == 1

    @pytest.mark.parametrize(
        "text, want",
        [
            (_lines(_span("t1", "good")) + '{"trace_id": "t1", ', ["good"]),
            (
                _lines(_span("t1", "good", start=1.0))
                + '{"trace_id": "t1", \n'
                + _lines(_span("t1", "after", start=2.0)),
                ["good", "after"],
            ),
        ],
        ids=["at-end", "mid-file"],
    )
    def test_torn_file_line_skipped(self, tmp_path, text, want):
        """A torn append (a worker killed mid-write) costs its own span
        only: spans appended after it by other writers still read."""
        path = tmp_path / "spans.ndjson"
        path.write_text(text)
        got = SpanLog(path).for_trace("t1")
        assert [s["span_id"] for s in got] == want

    def test_missing_file_reads_empty(self, tmp_path):
        assert SpanLog(tmp_path / "absent.ndjson").for_trace("t1") == []


class TestInstall:
    def test_install_receives_emitted_spans(self, tmp_path):
        path = tmp_path / "spans.ndjson"
        env = dict(os.environ)
        log = SpanLog(path).install()
        try:
            assert trace.tracing_active()
            with span("stage", points=1) as sp:
                pass
            (rec,) = log.for_trace(sp.trace_id)
            assert rec["name"] == "stage"
            assert path.read_text().count('"stage"') == 1
        finally:
            log.close()
        assert not trace.tracing_active()
        assert dict(os.environ) == env

    def test_leaked_install_does_not_outlive_its_test(self, tmp_path):
        """A log installed and never closed (a service that simulated a
        crash) is undone by the suite's per-test isolation: the sinks
        read as they did before."""
        sinks = list(trace._sinks)
        with telemetry_restored():
            log = SpanLog(tmp_path / "spans.ndjson").install()
            assert log._writer in trace._sinks
        assert trace._sinks == sinks
        log.close()
