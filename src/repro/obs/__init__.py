"""Runtime observability: tracing, metrics and structured logging.

``repro.obs`` is the telemetry plane of the *runtime* (service, engine
executor, HTTP layer) — distinct from :mod:`repro.metrics`, which
measures the *simulated network* (per-link flit load, misrouting, …).
A :class:`~repro.metrics.Probe` answers "what did the wafer's traffic
do?"; this package answers "where did this job spend its wall-clock
and what is the fleet doing right now?".

Four stdlib-only modules:

* :mod:`repro.obs.trace` — ``trace_id``/``span_id`` context
  (``contextvars``-propagated in-process, W3C-``traceparent``-style
  over HTTP and as pool initializer arguments into engine worker
  processes) with a ``span()`` context manager that no-ops when no
  sink is installed, and the one span-file writer;
* :mod:`repro.obs.spanlog` — the span file (``repro.span/v1`` NDJSON,
  the only store of spans): installs its writer, reads one trace
  back;
* :mod:`repro.obs.registry` — process-wide thread-safe metrics
  registry (labelled counters / gauges / histograms) with Prometheus
  text and JSON exporters in :mod:`repro.obs.export`;
* :mod:`repro.obs.log` — structured NDJSON logging helpers that stamp
  every record with the current trace context.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".registry": [
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    ],
    ".spanlog": ["SPAN_SCHEMA", "SpanLog"],
    ".trace": [
        "SpanContext", "current_context", "format_traceparent",
        "new_context", "parse_traceparent", "span", "tracing_active",
        "use_context",
    ],
    ".log": ["get_logger", "setup_logging"],
    ".export": [
        "parse_prometheus", "render_waterfall", "to_json", "to_prometheus",
    ],
})
