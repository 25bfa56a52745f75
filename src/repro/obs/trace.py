"""Distributed trace context for the service + engine runtime.

A *trace* follows one unit of work (a service job, a CLI run) across
threads, processes and the HTTP socket; a *span* is one timed stage
inside it (queue wait, kernel chunk, store write).  The design is a
deliberately small subset of W3C Trace Context / OpenTelemetry:

* :class:`SpanContext` — ``(trace_id, span_id)``, the only thing that
  crosses boundaries.  In-process it rides a :mod:`contextvars`
  variable (so it survives any call depth and is thread-local by
  construction); over HTTP it is a ``traceparent`` header
  (``00-<trace_id>-<span_id>-01``); into engine pool workers it is
  half of the :func:`worker_carrier` that ``run_experiments`` hands
  each pool as its initializer arguments (:func:`join`), so forked and
  spawned workers alike join the trace.
* :func:`span` — context manager creating a child span of the current
  context, timing its body, recording exceptions, and emitting the
  finished span to every installed sink.  With **no sink installed and
  no ambient context**, it yields a shared no-op span and touches
  neither the clock nor the contextvar — the disabled path costs one
  list check.
* Sinks — callables taking one span dict.  The service installs a
  :class:`SpanWriter` (through :class:`~repro.obs.spanlog.SpanLog`);
  each pool worker gets its own writer to the same file, the carrier's
  other half.

Span dicts are schema-tagged ``repro.span/v1``; see
:mod:`repro.obs.spanlog` for the stored form.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanContext",
    "SpanWriter",
    "add_sink",
    "current_context",
    "emit",
    "format_traceparent",
    "join",
    "new_context",
    "new_id",
    "parse_traceparent",
    "remove_sink",
    "span",
    "start_span",
    "tracing_active",
    "use_context",
    "worker_carrier",
]

def new_id(nbytes: int = 8) -> str:
    """A random lowercase-hex id (8 bytes = span, 16 bytes = trace)."""
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class SpanContext:
    """The propagated part of a span: which trace, which parent."""

    trace_id: str
    span_id: str


def new_context() -> SpanContext:
    return SpanContext(trace_id=new_id(16), span_id=new_id(8))


def format_traceparent(ctx: SpanContext) -> str:
    """W3C ``traceparent`` header value for ``ctx``."""
    return f"00-{ctx.trace_id}-{ctx.span_id}-01"


def parse_traceparent(value: Optional[str]) -> Optional[SpanContext]:
    """Parse a ``traceparent`` value; ``None`` on anything malformed.

    Tolerant on purpose: a bad header from a foreign client must never
    fail the request, it just starts a fresh trace.
    """
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) < 4:
        return None
    _, trace_id, span_id = parts[0], parts[1], parts[2]
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16), int(span_id, 16)
    except ValueError:
        return None
    if int(trace_id, 16) == 0 or int(span_id, 16) == 0:
        return None
    return SpanContext(trace_id=trace_id, span_id=span_id)


# ----------------------------------------------------------------------
# ambient context + sinks
# ----------------------------------------------------------------------
_current: ContextVar[Optional[SpanContext]] = ContextVar(
    "repro_obs_span", default=None
)
_sinks: List[Callable[[Dict], None]] = []
_sink_lock = threading.Lock()


def add_sink(sink: Callable[[Dict], None]) -> None:
    """Install a span sink (idempotent)."""
    with _sink_lock:
        if sink not in _sinks:
            _sinks.append(sink)


def remove_sink(sink: Callable[[Dict], None]) -> None:
    with _sink_lock:
        try:
            _sinks.remove(sink)
        except ValueError:
            pass


def tracing_active() -> bool:
    """Whether emitted spans go anywhere (a sink is installed)."""
    return bool(_sinks)


def current_context() -> Optional[SpanContext]:
    """The ambient span context of this thread, if any."""
    return _current.get()


@contextmanager
def use_context(ctx: Optional[SpanContext]):
    """Make ``ctx`` the ambient context for the body's duration."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


class SpanWriter:
    """Sink appending each span to one NDJSON file, one line per span.

    The file is opened unbuffered with ``O_APPEND``, so each span is a
    single ``write`` and the server and its pool workers, each with
    their own writer, can append to one file concurrently.  A failed
    write costs that span, never the caller.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._fh = open(self.path, "ab", buffering=0)

    def __call__(self, record: Dict) -> None:
        line = (json.dumps(record) + "\n").encode()
        with self._lock:
            if self._fh is None:
                return
            try:
                self._fh.write(line)
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None


#: what a pool worker needs to join the running trace: the ambient
#: context and the path of the span file its spans go to.
Carrier = Tuple[Optional[SpanContext], str]


def worker_carrier() -> Optional[Carrier]:
    """The carrier for pool workers started now: the ambient context
    and the installed :class:`SpanWriter`'s path, or ``None`` when no
    span file is installed (worker spans would go nowhere)."""
    for sink in list(_sinks):
        if isinstance(sink, SpanWriter):
            return _current.get(), sink.path
    return None


def join(carrier: Optional[Carrier]) -> None:
    """Pool-worker initializer: make this process's sinks exactly one
    :class:`SpanWriter` to the carrier's file (none without a carrier)
    and its ambient context the carrier's.  Sinks a forked worker
    inherited are dropped, so every span lands once."""
    with _sink_lock:
        _sinks.clear()
    if carrier is not None:
        ctx, path = carrier
        _current.set(ctx)
        try:
            add_sink(SpanWriter(path))
        except OSError:
            pass  # a pool whose initializer raises is a broken pool


def emit(record: Dict) -> None:
    """Deliver one finished span to the installed sinks.

    Sinks must never raise into instrumented code paths; a failing
    sink is dropped for the record (not uninstalled — a transient
    disk-full should not silently disable tracing forever).
    """
    for sink in list(_sinks):
        try:
            sink(record)
        except Exception:  # noqa: BLE001 — telemetry must not break work
            pass


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Span:
    """One timed stage of a trace.

    Usually managed by :func:`span`; the service also drives a few
    spans manually across threads (queue wait starts in the HTTP
    handler and ends in the executor), which is what the explicit
    :meth:`end` is for.  ``links`` name other span ids this span
    continues (a resumed execution links its pre-crash incarnation).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "attrs",
        "links",
        "status",
        "error",
        "_ended",
    )

    def __init__(
        self,
        name: str,
        *,
        context: Optional[SpanContext] = None,
        parent: Optional[SpanContext] = None,
        links: Optional[List[str]] = None,
        **attrs,
    ) -> None:
        parent = parent if parent is not None else current_context()
        self.name = name
        if context is not None:
            self.trace_id = context.trace_id
            self.span_id = context.span_id
        else:
            self.trace_id = parent.trace_id if parent else new_id(16)
            self.span_id = new_id(8)
        self.parent_id = parent.span_id if parent else None
        self.start = time.time()
        self.attrs = dict(attrs)
        self.links = list(links or ())
        self.status = "ok"
        self.error = None
        self._ended = False

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def add_link(self, span_id: Optional[str]) -> "Span":
        if span_id:
            self.links.append(span_id)
        return self

    def end(
        self, status: Optional[str] = None, error: Optional[str] = None
    ) -> None:
        """Close the span and emit it; idempotent (crash-retry paths
        may race a watchdog onto the same span)."""
        if self._ended:
            return
        self._ended = True
        if status is not None:
            self.status = status
        if error is not None:
            self.error = error
            if status is None:
                self.status = "error"
        record = {
            "schema": "repro.span/v1",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start, 6),
            "end": round(time.time(), 6),
            "status": self.status,
        }
        if self.error:
            record["error"] = self.error
        if self.attrs:
            record["attrs"] = self.attrs
        if self.links:
            record["links"] = self.links
        emit(record)


class _NoopSpan:
    """Shared do-nothing span for the tracing-disabled fast path."""

    __slots__ = ()
    trace_id = ""
    span_id = ""
    context = None

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def add_link(self, span_id) -> "_NoopSpan":
        return self

    def end(self, status=None, error=None) -> None:
        pass


NOOP_SPAN = _NoopSpan()


def start_span(
    name: str, *, parent: Optional[SpanContext] = None, **attrs
):
    """A live span (or the no-op when tracing is off) to end manually."""
    if not tracing_active() and _current.get() is None:
        return NOOP_SPAN
    return Span(name, parent=parent, **attrs)


@contextmanager
def span(name: str, *, parent: Optional[SpanContext] = None, **attrs):
    """Time the body as a child span of the ambient (or given) context.

    The new span becomes the ambient context inside the body, so
    nested ``span()`` calls build the tree without any plumbing.  An
    exception marks the span ``error`` (with the exception repr) and
    propagates — spans always close, which is what keeps traces
    complete across the service's crash-retry-resume paths.
    """
    if not tracing_active() and _current.get() is None and parent is None:
        yield NOOP_SPAN
        return
    sp = Span(name, parent=parent, **attrs)
    token = _current.set(sp.context)
    try:
        yield sp
    except BaseException as exc:
        sp.end(status="error", error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        _current.reset(token)
        sp.end()
