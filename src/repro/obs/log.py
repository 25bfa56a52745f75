"""Structured logging that carries the trace context.

The service historically logged through bare
``logging.getLogger("repro.service")`` calls with printf formatting —
fine for a terminal, useless for correlating a log line with the job
and trace it belongs to.  This module keeps the stdlib ``logging``
pipeline (handlers, levels, capture in tests all still work) and adds:

* :func:`get_logger` — returns a :class:`ContextLogger` whose
  ``info``/``warning``/``error``/``exception`` accept arbitrary
  ``**fields`` (``job=...``, ``state=...``) and stamp every record
  with the current ``trace_id``/``span_id``;
* :func:`setup_logging` — installs a root handler with either the
  human ``text`` format (message, then ``| key=value`` pairs) or the
  machine ``json`` format (one NDJSON object per line), selected by
  the ``serve --log-format`` flag.

Exception logging goes through ``exception()`` (or
``error(..., exc_info=True)``) so tracebacks ride the record's
``exc_info`` and both formatters render them consistently — no more
hand-formatted traceback strings glued into the message.
"""

from __future__ import annotations

import json
import logging
import sys
import traceback
from typing import Optional

from . import trace

__all__ = [
    "ContextLogger",
    "JsonFormatter",
    "TextFormatter",
    "get_logger",
    "setup_logging",
]

#: attribute under which structured fields ride the LogRecord.
_FIELDS_ATTR = "repro_fields"


class ContextLogger(logging.LoggerAdapter):
    """LoggerAdapter turning ``**fields`` kwargs into structured data.

    ``log.info("job %s queued", job_id, job=job_id, state="queued")``
    — printf args still format the human message; the keyword fields
    travel on the record for the JSON formatter (and the text
    formatter's ``| k=v`` tail).  The current trace context is
    attached automatically at call time.
    """

    # kwargs the stdlib logging call signature owns.
    _PASSTHROUGH = ("exc_info", "stack_info", "stacklevel")

    def __init__(self, logger: logging.Logger):
        super().__init__(logger, {})

    def process(self, msg, kwargs):
        fields = {}
        passthrough = {}
        for key, value in kwargs.items():
            if key in self._PASSTHROUGH:
                passthrough[key] = value
            else:
                fields[key] = value
        ctx = trace.current_context()
        if ctx is not None:
            fields.setdefault("trace_id", ctx.trace_id)
            fields.setdefault("span_id", ctx.span_id)
        passthrough["extra"] = {_FIELDS_ATTR: fields}
        return msg, passthrough


def get_logger(name: str) -> ContextLogger:
    return ContextLogger(logging.getLogger(name))


def _record_fields(record: logging.LogRecord) -> dict:
    return getattr(record, _FIELDS_ATTR, None) or {}


class TextFormatter(logging.Formatter):
    """Human format: classic prefix, message, ``| k=v`` field tail."""

    default_format = "%(asctime)s %(levelname)s %(name)s: %(message)s"

    def __init__(self):
        super().__init__(self.default_format)

    def format(self, record: logging.LogRecord) -> str:
        base = super().format(record)
        fields = _record_fields(record)
        if fields:
            tail = " ".join(f"{k}={v}" for k, v in fields.items())
            base = f"{base} | {tail}"
        return base


class JsonFormatter(logging.Formatter):
    """One NDJSON object per record: ``{ts, level, logger, msg, ...}``."""

    def format(self, record: logging.LogRecord) -> str:
        out = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        out.update(_record_fields(record))
        if record.exc_info and record.exc_info[0] is not None:
            out["exc_type"] = record.exc_info[0].__name__
            out["traceback"] = "".join(
                traceback.format_exception(*record.exc_info)
            ).rstrip()
        return json.dumps(out, default=str)


def setup_logging(
    fmt: str = "text",
    level: int = logging.INFO,
    stream=None,
    logger_name: Optional[str] = None,
) -> logging.Handler:
    """Install a stream handler with the chosen format.

    ``fmt`` is ``"text"`` or ``"json"``.  Configures the named logger
    (default: root) idempotently — an existing handler installed by a
    previous call is replaced, foreign handlers are left alone.
    Returns the installed handler (tests detach it on teardown).
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"log format must be 'text' or 'json', got {fmt!r}")
    target = logging.getLogger(logger_name)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonFormatter() if fmt == "json" else TextFormatter())
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    for old in list(target.handlers):
        if getattr(old, "_repro_obs_handler", False):
            target.removeHandler(old)
    target.addHandler(handler)
    target.setLevel(level)
    return handler

