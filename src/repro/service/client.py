"""Stdlib HTTP client for the simulation service.

:class:`ServiceClient` wraps the JSON endpoints of
:mod:`repro.service.server`; the only non-trivial part is
:meth:`~ServiceClient.stream`, which reads the chunked NDJSON event
feed line by line, and :meth:`~ServiceClient.watch`, which follows it
to the :class:`~repro.api.StudyResult` in the terminal ``done`` event.

Example::

    from repro.api import build_study
    from repro.service import JobRequest, ServiceClient

    client = ServiceClient("http://127.0.0.1:8642")
    study = build_study("smoke", scale="quick")
    job = client.submit_study(study)
    result = client.watch(job["id"], on_event=print)
    print(result.render())
"""

from __future__ import annotations

import http.client
import json
import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union
from urllib.parse import urlparse

from ..api import Study, StudyResult
from ..obs import trace as obs_trace
from ..obs.log import get_logger
from .protocol import JobRequest

__all__ = [
    "DEFAULT_SERVER_ENV",
    "ServiceClient",
    "ServiceError",
    "TERMINAL_EVENTS",
]

#: environment variable naming the default server address.
DEFAULT_SERVER_ENV = "REPRO_SERVICE_URL"

#: events after which an execution emits nothing further — a stream
#: that delivered one of these ended for real, not by a dropped
#: connection.
TERMINAL_EVENTS = ("done", "failed", "cancelled", "detached")

logger = get_logger("repro.service")


class ServiceError(RuntimeError):
    """An error response from the service (or a transport failure)."""

    def __init__(self, message: str, code: int = 0) -> None:
        super().__init__(message)
        self.code = code


def resolve_server(address: Optional[str] = None) -> str:
    """Explicit address, else ``$REPRO_SERVICE_URL``, else the default
    loopback port."""
    from .server import DEFAULT_PORT

    address = address or os.environ.get(DEFAULT_SERVER_ENV)
    return address or f"http://127.0.0.1:{DEFAULT_PORT}"


class ServiceClient:
    """Thin JSON client over one service address.

    Transport failures on idempotent calls (every GET, plus ``cancel``,
    which the scheduler makes idempotent) are retried ``retries`` times
    with exponential backoff; error *responses* are never retried.
    Event streams transparently reconnect up to ``reconnects`` times
    using the server's ``?from=N`` replay cursor, deduplicating on the
    event ``seq``, so a dropped connection is invisible to consumers.
    """

    def __init__(
        self,
        address: Optional[str] = None,
        timeout: float = 60.0,
        *,
        retries: int = 3,
        backoff: float = 0.25,
        reconnects: int = 5,
    ) -> None:
        address = resolve_server(address)
        if "//" not in address:
            address = "http://" + address
        parsed = urlparse(address)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(
                f"service address must be http://host:port, got {address!r}"
            )
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.reconnects = reconnects

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- plumbing ------------------------------------------------------
    def _connect(
        self, timeout: Optional[float] = None
    ) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        *,
        idempotent: Optional[bool] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict:
        """One JSON call, with transport-level retry when idempotent.

        Only *transport* failures (``code == 0``) are retried — an HTTP
        error status is the server's answer and is raised immediately.
        """
        if idempotent is None:
            idempotent = method == "GET"
        # extra headers ride as a keyword-only tail so the bare
        # 3-argument call shape (method, path, payload) stays stable
        extra = {"extra_headers": headers} if headers else {}
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload, **extra)
            except ServiceError as exc:
                attempt += 1
                if exc.code or not idempotent or attempt > self.retries:
                    raise
                delay = min(self.backoff * (2 ** (attempt - 1)), 2.0)
                logger.debug(
                    "retrying %s %s in %.2fs (%s)", method, path, delay, exc
                )
                time.sleep(delay)

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Dict:
        conn = self._connect()
        try:
            body = None
            headers = dict(extra_headers or {})
            if payload is not None:
                body = json.dumps(payload)
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                data = resp.read().decode() or "{}"
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"cannot reach service at {self.address}: {exc}"
                ) from None
            try:
                decoded = json.loads(data)
            except ValueError:
                raise ServiceError(
                    f"non-JSON response from {path}: {data[:200]!r}",
                    resp.status,
                ) from None
            if resp.status >= 400:
                raise ServiceError(
                    decoded.get("error", f"HTTP {resp.status}"), resp.status
                )
            return decoded
        finally:
            conn.close()

    # -- endpoints -----------------------------------------------------
    def health(self) -> Dict:
        return self._request("GET", "/api/health")

    def stats(self) -> Dict:
        return self._request("GET", "/api/stats")

    def submit(self, request: JobRequest) -> Dict:
        """Submit a prepared request; returns the job status (with an
        ``attached`` flag when it deduped onto an in-flight run).

        The call carries a W3C-style ``traceparent`` header — the
        ambient trace context if the caller opened one, else a fresh
        root — so the server-side execution trace is rooted in this
        client and ``trace_id`` in the returned status is greppable in
        the caller's own telemetry.
        """
        ctx = obs_trace.current_context() or obs_trace.new_context()
        return self._request(
            "POST",
            "/api/jobs",
            request.to_data(),
            headers={"traceparent": obs_trace.format_traceparent(ctx)},
        )

    def submit_study(
        self,
        study: Union[Study, Dict],
        *,
        client: str = "",
        priority: int = 0,
        workers: Optional[int] = None,
        metrics: Tuple[str, ...] = (),
    ) -> Dict:
        """Convenience wrapper building the :class:`JobRequest`."""
        payload = study.to_data() if isinstance(study, Study) else study
        return self.submit(
            JobRequest(
                study=payload,
                client=client,
                priority=priority,
                workers=workers,
                metrics=tuple(metrics),
            )
        )

    def status(self, job_id: str) -> Dict:
        return self._request("GET", f"/api/jobs/{job_id}")

    def jobs(self) -> List[Dict]:
        return self._request("GET", "/api/jobs")["jobs"]

    def cancel(self, job_id: str) -> Dict:
        # cancellation is idempotent server-side, so it is safe to
        # retry through a flaky transport
        return self._request(
            "POST", f"/api/jobs/{job_id}/cancel", idempotent=True
        )

    def result(self, job_id: str) -> StudyResult:
        return StudyResult.from_dict(
            self._request("GET", f"/api/jobs/{job_id}/result")
        )

    def trace(self, job_id: str) -> Dict:
        """The job's span tree (``repro.trace/v1``): trace id plus the
        spans recorded so far, ready for a waterfall render."""
        return self._request("GET", f"/api/jobs/{job_id}/trace")

    def metrics(self, fmt: str = "json") -> Union[Dict, str]:
        """The live ``/api/metrics`` surface.

        ``fmt="json"`` returns the decoded ``repro.metrics/v1`` payload;
        ``fmt="prometheus"`` returns the raw text exposition.
        """
        if fmt == "json":
            return self._request("GET", "/api/metrics?format=json")
        if fmt != "prometheus":
            raise ValueError(
                f"fmt must be 'json' or 'prometheus', got {fmt!r}"
            )
        conn = self._connect()
        try:
            try:
                conn.request("GET", "/api/metrics")
                resp = conn.getresponse()
                text = resp.read().decode()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"cannot reach service at {self.address}: {exc}"
                ) from None
            if resp.status >= 400:
                raise ServiceError(
                    f"HTTP {resp.status} from /api/metrics", resp.status
                )
            return text
        finally:
            conn.close()

    def shutdown(self) -> Dict:
        return self._request("POST", "/api/shutdown")

    # -- streaming -----------------------------------------------------
    def stream(
        self, job_id: str, start: int = 0, timeout: Optional[float] = None
    ) -> Iterator[Dict]:
        """Yield raw event dicts from ``start`` until a terminal event.

        The connection stays open for the job's lifetime; ``timeout``
        bounds *silence* between events, not the total duration.  A
        dropped connection (or a stream that ends before a terminal
        event) is transparently reconnected with ``?from=<cursor>`` up
        to ``reconnects`` times; replayed events below the cursor are
        deduplicated, so consumers see a gapless, exactly-once feed.
        """
        next_seq = start
        failures = 0
        while True:
            progressed = False
            try:
                for event in self._stream_once(job_id, next_seq, timeout):
                    seq = event.get("seq")
                    if isinstance(seq, int):
                        if seq < next_seq:
                            continue  # replayed duplicate
                        next_seq = seq + 1
                    progressed = True
                    failures = 0
                    yield event
                    if event.get("event") in TERMINAL_EVENTS:
                        return
            except ServiceError as exc:
                if exc.code:
                    raise  # a real HTTP answer (404 etc), not transport
                failures += 1
                if failures > self.reconnects:
                    raise
                delay = min(self.backoff * (2 ** (failures - 1)), 2.0)
                logger.debug(
                    "stream for %s dropped (%s); reconnecting from seq "
                    "%d in %.2fs",
                    job_id,
                    exc,
                    next_seq,
                    delay,
                )
                time.sleep(delay)
                continue
            # stream ended cleanly but without a terminal event: the
            # server closed it (restart / chaos drop) — resume from
            # the cursor unless the budget is spent
            if not progressed:
                failures += 1
                if failures > self.reconnects:
                    return
                time.sleep(min(self.backoff * (2 ** (failures - 1)), 2.0))
            logger.debug(
                "stream for %s ended without terminal event; "
                "reconnecting from seq %d",
                job_id,
                next_seq,
            )

    def _stream_once(
        self, job_id: str, start: int, timeout: Optional[float]
    ) -> Iterator[Dict]:
        """One streaming connection; transport faults surface as
        ``ServiceError(code=0)`` so :meth:`stream` can reconnect."""
        conn = self._connect(timeout=timeout or 3600.0)
        try:
            try:
                conn.request(
                    "GET", f"/api/jobs/{job_id}/events?from={start}"
                )
                resp = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"cannot reach service at {self.address}: {exc}"
                ) from None
            if resp.status >= 400:
                detail = resp.read().decode()[:200]
                try:
                    detail = json.loads(detail).get("error", detail)
                except ValueError:
                    pass
                raise ServiceError(detail, resp.status)
            while True:
                try:
                    line = resp.readline()
                except (OSError, http.client.HTTPException) as exc:
                    raise ServiceError(
                        f"event stream dropped: {exc}"
                    ) from None
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError as exc:
                    # torn line from an abruptly closed connection
                    raise ServiceError(
                        f"event stream dropped mid-line: {exc}"
                    ) from None
                if event.get("event") in TERMINAL_EVENTS:
                    # the server ends the stream here: read its
                    # terminal chunk before hanging up, so it never
                    # writes into (or reads from) a reset socket
                    try:
                        resp.read()
                    except (OSError, http.client.HTTPException):
                        pass
                    yield event
                    return
                yield event
        finally:
            conn.close()

    def watch(
        self,
        job_id: str,
        on_event: Optional[Callable[[Dict], None]] = None,
        start: int = 0,
    ) -> StudyResult:
        """Follow the stream to completion and return the result.

        ``on_event`` sees every event as streamed (a ``point`` event
        carries its metric channels inline).  Raises
        :class:`ServiceError` when the job ends ``failed`` /
        ``cancelled`` / detaches.  Dropped connections are
        survived transparently by :meth:`stream`'s reconnect logic.
        """
        for event in self.stream(job_id, start=start):
            name = event.get("event")
            if on_event is not None:
                on_event(event)
            if name == "done":
                return StudyResult.from_dict(event["result"])
            if name == "failed":
                attempts = event.get("attempts")
                raise ServiceError(
                    f"job {job_id} quarantined after "
                    f"{attempts or 'several'} attempt(s): "
                    f"{event.get('error')}"
                )
            if name == "cancelled":
                raise ServiceError(f"job {job_id} was cancelled")
            if name == "detached":
                raise ServiceError(
                    f"job {job_id} was cancelled (execution continues "
                    "for other subscribers)"
                )
        raise ServiceError(
            f"event stream for job {job_id} ended without a terminal event"
        )
