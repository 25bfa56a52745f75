"""Trace context: propagation carriers, span lifecycle, no-op path."""

import json
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import SpanLog, trace
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    format_traceparent,
    new_context,
    parse_traceparent,
    span,
    start_span,
    use_context,
)


class TestTraceparent:
    def test_roundtrip(self):
        ctx = new_context()
        assert len(ctx.trace_id) == 32 and len(ctx.span_id) == 16
        header = format_traceparent(ctx)
        assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
        assert parse_traceparent(header) == ctx

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "",
            "garbage",
            "00-short-span-01",
            "00-" + "z" * 32 + "-" + "a" * 16 + "-01",  # non-hex
            "00-" + "0" * 32 + "-" + "a" * 16 + "-01",  # zero trace
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # zero span
        ],
    )
    def test_malformed_values_parse_to_none(self, bad):
        assert parse_traceparent(bad) is None

class TestSpanLifecycle:
    def test_noop_without_sink_or_context(self):
        assert not trace.tracing_active()
        with span("nothing") as sp:
            assert sp is NOOP_SPAN
        assert start_span("nothing") is NOOP_SPAN

    def test_nesting_builds_parent_chain(self, capture_spans):
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        names = [s["name"] for s in capture_spans]
        assert names == ["inner", "outer"]  # children close first
        for s in capture_spans:
            assert s["schema"] == "repro.span/v1"
            assert s["end"] >= s["start"]

    def test_exception_marks_error_and_propagates(self, capture_spans):
        with pytest.raises(RuntimeError, match="boom"):
            with span("work"):
                raise RuntimeError("boom")
        (record,) = capture_spans
        assert record["status"] == "error"
        assert "RuntimeError: boom" in record["error"]

    def test_end_is_idempotent(self, capture_spans):
        sp = Span("stage")
        sp.end()
        sp.end(status="error", error="too late")
        (record,) = capture_spans
        assert record["status"] == "ok" and "error" not in record

    def test_attrs_and_links_recorded(self, capture_spans):
        sp = Span("stage", points=4)
        sp.set(rate=0.4).add_link("feedbeef00000000").add_link(None)
        sp.end()
        (record,) = capture_spans
        assert record["attrs"] == {"points": 4, "rate": 0.4}
        assert record["links"] == ["feedbeef00000000"]

    def test_explicit_parent_overrides_ambient(self, capture_spans):
        foreign = SpanContext(trace_id="ab" * 16, span_id="cd" * 8)
        with span("ambient"):
            with span("child", parent=foreign) as sp:
                assert sp.trace_id == foreign.trace_id
                assert sp.parent_id == foreign.span_id

    def test_use_context_sets_ambient(self, capture_spans):
        ctx = new_context()
        with use_context(ctx):
            assert trace.current_context() == ctx
            with span("stage") as sp:
                assert sp.trace_id == ctx.trace_id
        assert trace.current_context() is None

    def test_parented_span_recorded_even_without_sink(self, monkeypatch):
        # a parent context means someone upstream is collecting: the
        # span must be real (so its context can propagate), even if
        # emission then goes nowhere in this process
        assert not trace.tracing_active()
        with span("stage", parent=new_context()) as sp:
            assert sp is not NOOP_SPAN


def _worker_stage():
    """Run in a pool worker: one span, then what the worker sees."""
    with span("worker.stage"):
        pass
    return trace.current_context(), len(trace._sinks), os.getpid()


def _pool(method, carrier):
    if method not in mp.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    return ProcessPoolExecutor(
        max_workers=1,
        mp_context=mp.get_context(method),
        initializer=trace.join,
        initargs=(carrier,),
    )


@pytest.mark.parametrize("method", ["fork", "spawn"])
class TestPoolCarrier:
    def test_worker_joins_the_trace_and_writes_once(self, tmp_path, method):
        """The carrier taken under an ambient context reaches the worker
        as pool arguments: its span parents to that context and lands
        in the span file once, whether the worker was forked (and
        inherited the parent's writer) or spawned.  The environment is
        not touched."""
        env = dict(os.environ)
        log = SpanLog(tmp_path / "spans.ndjson").install()
        try:
            ctx = new_context()
            with use_context(ctx):
                carrier = trace.worker_carrier()
                assert carrier == (ctx, str(log.path))
                with _pool(method, carrier) as pool:
                    seen, sinks, pid = pool.submit(_worker_stage).result()
            assert (seen, sinks) == (ctx, 1) and pid != os.getpid()
            (rec,) = log.for_trace(ctx.trace_id)
            assert rec["name"] == "worker.stage"
            assert rec["parent_id"] == ctx.span_id
            assert log.path.read_text().count("worker.stage") == 1
        finally:
            log.close()
        assert dict(os.environ) == env

    def test_no_span_file_means_no_worker_sink(self, capture_spans, method):
        """Without an installed span file there is no carrier, and a
        worker keeps no sink, not even the list sink a fork handed
        down."""
        assert trace.worker_carrier() is None
        with _pool(method, None) as pool:
            seen, sinks, _ = pool.submit(_worker_stage).result()
        assert (seen, sinks) == (None, 0)


def _emit_many(n):
    for i in range(n):
        with span("worker.burst", i=i, pad="x" * 200):
            pass
    return n


def test_concurrent_appenders_lose_no_span(tmp_path):
    """Four pool workers and the parent append to one span file at
    once: every line decodes and every span is there exactly once."""
    log = SpanLog(tmp_path / "spans.ndjson").install()
    try:
        ctx = new_context()
        with use_context(ctx):
            with ProcessPoolExecutor(
                max_workers=4,
                mp_context=mp.get_context(),
                initializer=trace.join,
                initargs=(trace.worker_carrier(),),
            ) as pool:
                futures = [pool.submit(_emit_many, 300) for _ in range(4)]
                _emit_many(300)
                assert sum(f.result(timeout=60) for f in futures) == 1200
        lines = log.path.read_text().splitlines()
        spans = [json.loads(line) for line in lines]
        assert len(spans) == 1500
        assert len({s["span_id"] for s in spans}) == 1500
        assert len(log.for_trace(ctx.trace_id)) == 1500
    finally:
        log.close()
