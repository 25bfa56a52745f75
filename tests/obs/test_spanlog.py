"""SpanLog sink: bounded memory index, NDJSON file, merged reads."""

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


class TestInMemory:
    def test_record_and_for_trace(self):
        log = SpanLog()
        log.record(_span("t1", "a", start=2.0))
        log.record(_span("t1", "b", start=1.0))
        log.record(_span("t2", "c"))
        assert log.traces() == ["t1", "t2"]
        got = log.for_trace("t1")
        assert [s["span_id"] for s in got] == ["b", "a"]  # start order
        assert log.recorded == 3

    def test_ring_bound_evicts_oldest(self):
        log = SpanLog(max_spans=2)
        for i in range(4):
            log.record(_span(f"t{i}", f"s{i}"))
        assert log.traces() == ["t2", "t3"]
        assert log.for_trace("t0") == []
        assert log.recorded == 4  # the counter keeps the true total


class TestFileBacked:
    def test_spans_persist_and_merge_with_memory(self, tmp_path):
        path = tmp_path / "spans.ndjson"
        first = SpanLog(path)
        first.record(_span("t1", "disk-span"))
        first.close()

        second = SpanLog(path)
        second.record(_span("t1", "mem-span", start=2.0))
        got = second.for_trace("t1")
        assert [s["span_id"] for s in got] == ["disk-span", "mem-span"]
        second.close()

    def test_duplicate_span_ids_deduplicated(self, tmp_path):
        path = tmp_path / "spans.ndjson"
        log = SpanLog(path)
        log.record(_span("t1", "a"))  # lands in memory AND the file
        assert len(log.for_trace("t1")) == 1
        log.close()

    def test_torn_file_line_skipped(self, tmp_path):
        path = tmp_path / "spans.ndjson"
        path.write_text(
            json.dumps(_span("t1", "good")) + "\n" + '{"trace_id": "t1", '
        )
        log = SpanLog(path)
        assert [s["span_id"] for s in log.for_trace("t1")] == ["good"]
        log.close()


class TestInstall:
    def test_install_receives_emitted_spans(self, tmp_path, monkeypatch):
        monkeypatch.delenv(trace.SPANLOG_ENV, raising=False)
        path = tmp_path / "spans.ndjson"
        log = SpanLog(path).install()
        try:
            assert os.environ[trace.SPANLOG_ENV] == str(path)
            assert trace.tracing_active()
            with span("stage", points=1):
                pass
            (rec,) = log.for_trace(log.traces()[0])
            assert rec["name"] == "stage"
            assert path.read_text().count('"stage"') == 1
        finally:
            log.close()
        assert trace.SPANLOG_ENV not in os.environ
        assert not trace.tracing_active()

    @pytest.mark.parametrize(
        "before", [None, "/elsewhere/spans.ndjson"], ids=["unset", "set"]
    )
    def test_leaked_install_does_not_outlive_its_test(
        self, tmp_path, monkeypatch, before
    ):
        """A log installed and never closed (a service that simulated a
        crash) is undone by the suite's per-test isolation: the sinks
        and both trace carriers read as they did before."""
        if before is None:
            monkeypatch.delenv(trace.SPANLOG_ENV, raising=False)
        else:
            monkeypatch.setenv(trace.SPANLOG_ENV, before)
        monkeypatch.delenv(trace.TRACEPARENT_ENV, raising=False)
        sinks = list(trace._sinks)
        with telemetry_restored():
            log = SpanLog(tmp_path / "spans.ndjson").install()
            os.environ[trace.TRACEPARENT_ENV] = "00-t-s-01"
            assert log in trace._sinks
        assert trace._sinks == sinks
        assert os.environ.get(trace.SPANLOG_ENV) == before
        assert trace.TRACEPARENT_ENV not in os.environ
        log.close()
