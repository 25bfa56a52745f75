"""Fault-injection harness: deterministic chaos for the service stack.

Chaos is driven by the ``REPRO_CHAOS`` environment variable — a
comma-separated list of *directives*, each a site name plus optional
``key=value`` parameters separated by colons::

    REPRO_CHAOS="kill-server:after=2,crash-worker:once=/tmp/m"

Sites wired through the stack (each checked only when the env var is
set, so production paths pay one ``os.environ`` lookup):

=================== =================================================
``kill-server``     SIGKILL the server process right after a point
                    event lands (crash mid-job; the journal + result
                    store must make the job resumable)
``crash-worker``    ``os._exit`` an engine *worker process* mid-point
                    (never fires in a parent process, so a serial
                    in-server run is not killed by it)
``fail-point``      raise :class:`ChaosError` from a simulation point
``hang-point``      sleep ``seconds`` inside a point (watchdog bait)
``torn-event``      tear an event-log append mid-line and wedge the
                    log (what a crash mid-``write`` leaves behind)
``drop-stream``     abruptly close an event-stream HTTP connection
=================== =================================================

Firing policy parameters (first match wins):

* ``once=<path>`` — fire exactly once *across processes*: the first
  checker to atomically create the marker file fires;
* ``after=N`` — fire on exactly the N-th check in this process;
* ``every=N`` — fire on every N-th check;
* ``times=N`` — fire on each of the first N checks;
* ``rate=P`` — fire with probability P per check;
* no parameter — fire on every check.

``match=<substring>`` additionally scopes a directive to checks whose
context label contains the substring (e.g. an experiment spec's curve
label), so one study in a queue can be poisoned while its neighbours
run clean.

The module is intentionally a leaf: stdlib-only, no ``repro`` imports,
so the engine can reach it lazily without layering cycles.
"""

from __future__ import annotations

import os
import random
import signal
import time
from typing import Dict, Optional

__all__ = [
    "CHAOS_ENV",
    "ChaosError",
    "active",
    "engine_point",
    "maybe_kill_server",
    "param",
    "reset",
    "should_fire",
]

#: environment variable carrying the chaos directives.
CHAOS_ENV = "REPRO_CHAOS"


class ChaosError(RuntimeError):
    """An injected failure (``fail-point``)."""


# parsed-config cache, keyed by the raw env string so tests flipping
# the variable mid-process are picked up; counters reset with it.
_parsed_raw: Optional[str] = None
_directives: Dict[str, Dict[str, str]] = {}
_counters: Dict[str, int] = {}


def _parse(raw: str) -> Dict[str, Dict[str, str]]:
    out: Dict[str, Dict[str, str]] = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        site, *params = chunk.split(":")
        cfg: Dict[str, str] = {}
        for p in params:
            key, _, value = p.partition("=")
            cfg[key.strip()] = value.strip()
        out[site.strip()] = cfg
    return out


def _config() -> Dict[str, Dict[str, str]]:
    global _parsed_raw, _directives
    raw = os.environ.get(CHAOS_ENV, "")
    if raw != _parsed_raw:
        _parsed_raw = raw
        _directives = _parse(raw)
        _counters.clear()
    return _directives


def reset() -> None:
    """Forget parsed directives and counters (test isolation)."""
    global _parsed_raw
    _parsed_raw = None
    _counters.clear()


def active(site: str) -> Optional[Dict[str, str]]:
    """The site's directive parameters, or ``None`` when not armed."""
    return _config().get(site)


def param(site: str, key: str, default=None, cast=str):
    cfg = active(site)
    if cfg is None or key not in cfg:
        return default
    return cast(cfg[key])


def _once(path: str) -> bool:
    """Cross-process once: first to create the marker file fires."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _record_fire(site: str, label: str, n: int) -> None:
    """Emit a zero-duration span marking an injected fault, so a
    chaos-CI failure is correlatable with the trace that absorbed it.

    Lazily imported (this module stays a leaf when chaos is disarmed)
    and emitted *before* the caller acts on the fire — a ``kill-server``
    span must hit the log before the SIGKILL does.  Best-effort: chaos
    must keep working even if telemetry is broken.
    """
    try:
        from ..obs import trace

        if not trace.tracing_active() and trace.current_context() is None:
            return
        sp = trace.Span(f"chaos.{site}", label=label, check=n)
        sp.end(status="error", error=f"injected fault at site {site!r}")
    except Exception:  # noqa: BLE001 — never let telemetry mask a fault
        pass


def should_fire(site: str, label: str = "") -> bool:
    """Check (and count) one occurrence of a chaos site.

    ``label`` is the check's context (e.g. a spec's curve label); a
    directive carrying ``match=`` only fires when the label contains
    the substring.  A firing check is also recorded as a ``chaos.*``
    span when tracing is active.
    """
    cfg = active(site)
    if cfg is None:
        return False
    match = cfg.get("match")
    if match and match not in (label or ""):
        return False
    _counters[site] = _counters.get(site, 0) + 1
    n = _counters[site]
    if "once" in cfg:
        fired = _once(cfg["once"])
    elif "after" in cfg:
        fired = n == int(cfg["after"])
    elif "every" in cfg:
        fired = n % max(1, int(cfg["every"])) == 0
    elif "times" in cfg:
        fired = n <= int(cfg["times"])
    elif "rate" in cfg:
        fired = random.random() < float(cfg["rate"])
    else:
        fired = True
    if fired:
        _record_fire(site, label, n)
    return fired


# ----------------------------------------------------------------------
# hook helpers for the wired sites
# ----------------------------------------------------------------------
def maybe_kill_server(label: str = "") -> None:
    """``kill-server``: SIGKILL this process — exactly what an OOM
    kill or a ``kill -9`` leaves behind (no atexit, no flush)."""
    if should_fire("kill-server", label):
        os.kill(os.getpid(), signal.SIGKILL)


def engine_point(label: str = "") -> None:
    """The engine-side sites, checked once per simulated point/chunk.

    ``crash-worker`` only fires inside a *child* process (an engine
    pool worker); ``fail-point`` and ``hang-point`` fire anywhere.
    """
    if should_fire("hang-point", label):
        time.sleep(param("hang-point", "seconds", 30.0, float))
    if should_fire("fail-point", label):
        raise ChaosError(
            f"injected point failure (fail-point, label={label!r})"
        )
    if should_fire("crash-worker", label):
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os._exit(param("crash-worker", "code", 137, int))
