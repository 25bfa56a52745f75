"""The long-running simulation service: warm executor + HTTP front end.

:class:`SimulationService` is the embeddable core — submit
:class:`~repro.service.protocol.JobRequest`\\ s, poll status, subscribe
to event streams, cancel — with one **warm executor thread** draining
the scheduler.  Executions run in-process through ``Study.run``, so the
engine's worker-local LRUs (built topologies, routings with their route
planes or route tables) and the compiled native kernel stay resident
across jobs: a resubmission pays
zero process startup, zero kernel compile and zero route resolution.
Engine worker processes still fork per job for intra-job parallelism
— on Linux they inherit the warm state.  A job's ``workers`` default to
the service's ``default_workers``, which by default (``None``) resolve
as ``run``'s do: ``REPRO_WORKERS``, else the CPU count, clamped to the
job's chunks and the CPUs.

:func:`create_server` wraps the service in a threaded stdlib HTTP
server bound to a local address, speaking schema-tagged JSON:

====== ============================== ===============================
POST   ``/api/jobs``                  submit a JobRequest -> status
GET    ``/api/jobs``                  all job statuses
GET    ``/api/jobs/<id>``             one job status
POST   ``/api/jobs/<id>/cancel``      cancel -> status
GET    ``/api/jobs/<id>/events``      NDJSON event stream (chunked);
                                      ``?from=N`` resumes mid-stream
GET    ``/api/jobs/<id>/result``      terminal job's StudyResult
GET    ``/api/stats``                 queue + store counters
GET    ``/api/health``                liveness + versions
POST   ``/api/shutdown``              graceful stop
====== ============================== ===============================

There is deliberately no TLS/auth layer: the service binds loopback by
default and trusts its tenants, like a local build daemon.
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
import threading
import time
import traceback
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .. import __version__
from ..engine.cache import ResultCache
from ..engine.spec import ENGINE_VERSION
from ..obs import REGISTRY, SpanLog, to_json, to_prometheus
from ..obs import trace as obs_trace
from ..obs.log import get_logger
from . import chaos
from .jobs import (
    TERMINAL_STATES,
    BusyError,
    Execution,
    Job,
    JobCancelled,
    RetryPolicy,
    Scheduler,
)
from .journal import EventLog, JobJournal, JournalJob, encode_event
from .protocol import JOB_STATES, JobRequest

__all__ = ["SimulationService", "create_server", "serve"]

logger = get_logger("repro.service")

#: default TCP port of ``repro-dragonfly serve`` (0 picks a free one).
DEFAULT_PORT = 8642

# runtime telemetry (repro.obs).  HTTP series are labelled by route
# *template* (``/api/jobs/<id>``), never the raw path — ids are
# unbounded and would explode the label cardinality.
_M_HTTP_REQUESTS = REGISTRY.counter(
    "http_requests_total",
    "HTTP requests served",
    ("method", "route", "code"),
)
_M_HTTP_SECONDS = REGISTRY.histogram(
    "http_request_seconds",
    "HTTP request latency (excludes event-stream tail time)",
    ("method", "route"),
)
_M_QUEUE_DEPTH = REGISTRY.gauge(
    "service_queue_depth", "Executions waiting in the scheduler queue"
)
_M_JOBS_BY_STATE = REGISTRY.gauge(
    "service_jobs", "Jobs known to this service, by state", ("state",)
)

#: what a journaled execution id may be, and so name its event log:
#: the id of the job that created it, or (records that name no
#: execution) an execution key
_EXECUTION_ID = re.compile(r"j[0-9]{6,}|[0-9a-f]{64}")


class SimulationService:
    """Embeddable service core: scheduler + store + warm executor."""

    def __init__(
        self,
        store: Union[ResultCache, str, Path],
        *,
        default_workers: Optional[int] = None,
        max_inflight_per_client: int = 8,
        state_dir: Union[str, Path, None] = None,
        retry: Optional[RetryPolicy] = None,
        hang_timeout: Optional[float] = None,
        start_executor: bool = True,
        telemetry: bool = True,
    ) -> None:
        if isinstance(store, (str, Path)):
            store = ResultCache(store)
        self.store = store
        self.default_workers = default_workers
        self.retry = retry or RetryPolicy()
        #: seconds without a heartbeat before the watchdog reaps a
        #: running execution (``None`` disables the watchdog).
        self.hang_timeout = hang_timeout
        self.state_dir = Path(state_dir) if state_dir else None
        self.journal: Optional[JobJournal] = None
        #: where event logs and spans live: ``<state-dir>``, or a
        #: private temp dir removed at shutdown.  Finished executions
        #: replay from their event logs and traces are read from the
        #: span file, so there is one path for each either way.
        if self.state_dir is not None:
            root = self.state_dir
            self._drop_root = None
        else:
            root = Path(tempfile.mkdtemp(prefix="repro-service-"))
            self._drop_root = weakref.finalize(
                self, shutil.rmtree, root, ignore_errors=True
            )
        self.log_dir = root / "events"
        self.log_dir.mkdir(parents=True, exist_ok=True)
        #: runtime telemetry plane (tracing + HTTP metrics).  When on,
        #: a span sink appending to ``spans.ndjson`` beside the event
        #: logs is installed and the HTTP layer records request
        #: metrics.  When off, span emission takes its no-op fast path
        #: and requests skip observation (the benchmark's overhead
        #: baseline).
        self.telemetry = telemetry
        self.spanlog: Optional[SpanLog] = None
        if telemetry:
            self.spanlog = SpanLog(root / "spans.ndjson").install()
        self.scheduler = Scheduler(
            max_inflight_per_client=max_inflight_per_client,
            execution_hook=self._attach_durability,
        )
        self.restored_jobs = 0
        self.resumed_executions = 0
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self.journal = JobJournal(self.state_dir / "journal.ndjson")
            self._restore()
        self._stopped = threading.Event()
        self._executor = threading.Thread(
            target=self._run_loop, name="repro-service-executor", daemon=True
        )
        if start_executor:
            self._executor.start()

    # -- durability ----------------------------------------------------
    def _attach_durability(self, execution: Execution) -> None:
        """Scheduler hook: give a fresh or re-enqueued execution its
        event log, ``events/<id>.ndjson`` (truncated), and journal
        transition plumbing (called once per enqueued execution, under
        the scheduler lock)."""
        execution.sink = EventLog(self.log_dir / f"{execution.id}.ndjson")
        journal = self.journal
        if journal is None:
            return

        def on_transition(exe: Execution, state: str) -> None:
            journal.record_state(exe.id, state, error=exe.error)

        execution.on_transition = on_transition

    def _restore(self) -> None:
        """Replay the journal: re-enqueue interrupted executions,
        restore terminal ones read-only from their own event logs, then
        compact the journal."""
        assert self.journal is not None
        view = self.journal.replay()
        if not view.jobs:
            return
        by_execution: Dict[str, List[JournalJob]] = {}
        for job in view.jobs.values():
            by_execution.setdefault(job.execution, []).append(job)
        for eid, jobs in by_execution.items():
            key = jobs[0].key
            state = view.states.get(eid, "queued")
            try:
                if not _EXECUTION_ID.fullmatch(eid):
                    raise ValueError(
                        f"execution id {eid!r} is neither a job id nor "
                        "an execution key"
                    )
                study = jobs[0].request.build_study()
            except ValueError as exc:
                logger.warning(
                    "journal: dropping unreplayable execution %s: %s",
                    key[:12],
                    exc,
                )
                for job in jobs:
                    del view.jobs[job.id]
                view.states.pop(eid, None)
                continue
            live = state not in TERMINAL_STATES and any(
                not j.cancelled for j in jobs
            )
            # the pre-crash trace identity, as journaled at submission
            prior = next(
                (j for j in jobs if j.trace_id and j.span_id), None
            )
            if live:
                if state not in JOB_STATES:
                    # e.g. the retired "error" state: not terminal, so
                    # the execution runs again, but not silently
                    logger.warning(
                        "journal: execution %s recorded unknown state "
                        "%r; re-running it",
                        key[:12],
                        state,
                    )
                execution = Execution(eid, key, jobs[0].request, study)
                execution.resumed = True
                # resume *inside* the original trace: the new root
                # span keeps the journaled trace_id (its parent is the
                # pre-crash root) and links the incarnation it
                # continues, so one waterfall shows both lives
                execution.begin_trace(
                    parent=(
                        obs_trace.SpanContext(prior.trace_id, prior.span_id)
                        if prior
                        else None
                    ),
                    link=prior.span_id if prior else None,
                    resumed=True,
                )
                self.resumed_executions += 1
            else:
                if state not in TERMINAL_STATES:
                    # every rider was cancelled while queued but the
                    # terminal record never landed: settle it now
                    state = "cancelled"
                    view.states[eid] = state
                execution = Execution.restore_terminal(
                    eid,
                    key,
                    jobs[0].request,
                    study,
                    state,
                    self.log_dir / f"{eid}.ndjson",
                    error=view.errors.get(eid),
                    trace_id=prior.trace_id if prior else None,
                )
            for job in jobs:
                self.scheduler.restore(
                    job.id,
                    job.request,
                    execution,
                    enqueue=live,
                    cancelled=job.cancelled,
                )
                self.restored_jobs += 1
        self.journal.compact(view)
        logger.info(
            "journal replay: %d job(s) restored, %d execution(s) "
            "re-enqueued",
            self.restored_jobs,
            self.resumed_executions,
        )

    # -- client surface ------------------------------------------------
    def submit(
        self,
        request: JobRequest,
        traceparent: Optional[str] = None,
    ) -> Tuple[Job, bool]:
        """Queue or attach (see :meth:`Scheduler.submit`).

        ``traceparent`` is the submitting client's W3C-style trace
        header; a new execution joins that trace (transport metadata
        only — it never feeds the execution key).  With a
        ``state_dir``, the accepted job is journaled (fsynced) before
        this returns — an acknowledged submission survives any crash
        from here on.
        """
        job, attached = self.scheduler.submit(
            request, trace=obs_trace.parse_traceparent(traceparent)
        )
        execution = job.execution
        if self.journal is not None:
            self.journal.record_job(
                job.id,
                execution.key,
                request,
                trace_id=execution.trace_id,
                span_id=(
                    execution.trace.span_id if execution.trace else None
                ),
                execution=execution.id,
            )
        logger.info(
            "job %s %s execution %s (client=%r priority=%d)",
            job.id,
            "attached to" if attached else "queued as",
            execution.key[:12],
            job.client,
            job.priority,
            job=job.id,
            trace_id=execution.trace_id,
            state=job.state,
        )
        return job, attached

    def job(self, job_id: str) -> Job:
        return self.scheduler.get(job_id)

    def status(self, job_id: str) -> Dict:
        job = self.scheduler.get(job_id)
        return job.status(queued_ahead=self.scheduler.queued_ahead(job))

    def cancel(self, job_id: str) -> Dict:
        job = self.scheduler.cancel(job_id)
        if self.journal is not None:
            self.journal.record_cancel(job.id)
        logger.info("job %s cancelled (state=%s)", job.id, job.state)
        return job.status()

    def event_batches(
        self, job_id: str, start: int = 0, timeout: Optional[float] = 30.0
    ):
        """Yield the job's encoded event lines from ``start`` until
        terminal, in the batches they became available in (what the
        HTTP stream writes as one chunk each).

        A cancelled *job* on a still-live execution terminates the
        stream with a synthetic ``detached`` event — the execution (and
        other subscribers) keep going.
        """
        job = self.scheduler.get(job_id)
        execution = job.execution
        seq = start
        while True:
            if job.cancelled and not execution.terminal:
                yield [
                    encode_event(
                        {
                            "event": "detached",
                            "seq": seq,
                            "reason": "job cancelled; execution "
                            "continues for other subscribers",
                        }
                    )
                ]
                return
            batch, complete = execution.wait_lines(seq, timeout=timeout)
            if batch:
                yield batch
                seq += len(batch)
            if complete:
                return

    def stats(self) -> Dict:
        return {
            "service": {
                "version": __version__,
                "engine_version": ENGINE_VERSION,
                "default_workers": self.default_workers,
            },
            "scheduler": self.scheduler.stats(),
            "store": self.store.stats(scan_meta=False),
        }

    def shutdown(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work and wind the executor down.

        Queued executions are cancelled; the running one (if any) is
        cancel-flagged and aborts at its next point boundary.
        """
        self.scheduler.close()
        for job in self.scheduler.jobs():
            if not job.terminal:
                self.scheduler.cancel(job.id)
        self._stopped.set()
        if wait:
            self._executor.join(timeout=timeout)
        if self.journal is not None:
            self.journal.close()
        if self.spanlog is not None:
            self.spanlog.close()
        if self._drop_root is not None:
            self._drop_root()

    # -- executor ------------------------------------------------------
    def _run_loop(self) -> None:
        while not self._stopped.is_set():
            execution = self.scheduler.next_execution(timeout=0.2)
            if execution is None:
                continue
            self._supervise(execution)
        logger.info("executor stopped")

    def _supervise(self, execution: Execution) -> None:
        """Run one execution on a worker thread under the watchdog.

        The worker thread does the actual work (including retries);
        this thread watches its heartbeat.  A run that goes
        ``hang_timeout`` seconds without a heartbeat is cancel-flagged,
        given a short grace period, then quarantined — the wedged
        thread is abandoned (daemon) and the queue moves on.  Terminal
        guards on :class:`Execution` make any late emission from the
        abandoned thread a no-op.
        """
        worker = threading.Thread(
            target=self._run_execution,
            args=(execution,),
            name=f"repro-exec-{execution.key[:12]}",
            daemon=True,
        )
        worker.start()
        while worker.is_alive():
            worker.join(timeout=0.5)
            if not worker.is_alive():
                break
            if (
                self.hang_timeout is not None
                and not execution.terminal
                and time.time() - execution.heartbeat > self.hang_timeout
            ):
                logger.error(
                    "execution %s hung (>%.1fs without heartbeat); "
                    "reaping",
                    execution.key[:12],
                    self.hang_timeout,
                )
                execution.cancel_event.set()
                worker.join(timeout=2.0)
                if worker.is_alive():
                    execution.quarantine(
                        f"watchdog: no heartbeat for "
                        f"{self.hang_timeout:.1f}s; worker abandoned",
                        traceback_text="",
                        attempts=execution.attempts or 1,
                    )
                    self.scheduler.finish_execution(execution)
                    return

    def _run_execution(self, execution: Execution) -> None:
        # held here: the execution drops its study when it turns
        # terminal, which the watchdog may do while this thread runs
        study = execution.study
        if execution.cancel_event.is_set():
            execution.mark_cancelled()
            self.scheduler.finish_execution(execution)
            return
        execution.mark_running()
        logger.info(
            "execution %s started: study %r, %d point(s) max%s",
            execution.key[:12],
            execution.study_name,
            execution.points_total,
            " (resumed)" if execution.resumed else "",
            trace_id=execution.trace_id,
            state="running",
        )

        def on_point(scenario, label, rate, result, source):
            if execution.cancel_event.is_set():
                raise JobCancelled()
            execution.record_point(scenario, label, rate, result, source)
            chaos.maybe_kill_server("point")

        workers = (
            execution.workers
            if execution.workers is not None
            else self.default_workers
        )
        attempt = 0
        try:
            while True:
                attempt += 1
                execution.attempts = attempt
                execution.beat()
                # one span per supervised attempt, parented to the
                # execution's root; the engine's spans nest under it
                # via the ambient context (study.run executes on this
                # thread).  Ended explicitly per outcome below, so a
                # crash-retry closes its span before backing off.
                attempt_span = obs_trace.start_span(
                    "execution.attempt",
                    parent=execution.trace,
                    attempt=attempt,
                )
                ambient = attempt_span.context or execution.trace
                try:
                    with obs_trace.use_context(ambient):
                        result = study.run(
                            workers=workers,
                            cache=self.store,
                            on_point=on_point,
                        )
                    attempt_span.end()
                    execution.finish(
                        result, self.store.stats_channel().to_dict()
                    )
                    logger.info(
                        "execution %s done: %d point(s), %d from cache"
                        "%s",
                        execution.key[:12],
                        execution.points_done,
                        execution.cache_hits,
                        f" (attempt {attempt})" if attempt > 1 else "",
                        trace_id=execution.trace_id,
                        state="done",
                    )
                    return
                except JobCancelled:
                    attempt_span.end(status="cancelled")
                    execution.mark_cancelled()
                    logger.info(
                        "execution %s cancelled after %d point(s)",
                        execution.key[:12],
                        execution.points_done,
                        trace_id=execution.trace_id,
                        state="cancelled",
                    )
                    return
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    attempt_span.end(status="error", error=error)
                    tb = traceback.format_exc()
                    if attempt >= self.retry.max_attempts:
                        execution.quarantine(error, tb, attempt)
                        logger.exception(
                            "execution %s quarantined after %d "
                            "attempt(s): %s",
                            execution.key[:12],
                            attempt,
                            error,
                            trace_id=execution.trace_id,
                            state="failed",
                        )
                        return
                    delay = self.retry.delay(attempt)
                    execution.record_retry(
                        attempt, self.retry.max_attempts, delay, error
                    )
                    logger.warning(
                        "execution %s attempt %d/%d failed (%s); "
                        "retrying in %.2fs",
                        execution.key[:12],
                        attempt,
                        self.retry.max_attempts,
                        error,
                        delay,
                        trace_id=execution.trace_id,
                        state="retrying",
                    )
                    # interruptible backoff: completed points replay
                    # from the store, so the retry only recomputes
                    # the failing point
                    deadline = time.time() + delay
                    while time.time() < deadline:
                        if (
                            self._stopped.is_set()
                            or execution.cancel_event.is_set()
                        ):
                            execution.mark_cancelled()
                            return
                        time.sleep(
                            min(0.05, max(0.0, deadline - time.time()))
                        )
        finally:
            self.scheduler.finish_execution(execution)


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    # TCP_NODELAY on every accepted connection: a response is a few
    # small writes, and under Nagle the last one waits ~40 ms on the
    # client's delayed ACK
    disable_nagle_algorithm = True

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # route through logging, not stderr
        logger.debug("%s %s", self.address_string(), fmt % args)

    # -- plumbing ------------------------------------------------------
    def send_response(self, code, message=None):  # capture for metrics
        self._status_code = code
        super().send_response(code, message)

    def _send_json(self, payload: Dict, code: int = 200) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, message: str, code: int) -> None:
        self._send_json({"error": message}, code=code)

    def _read_body(self) -> Dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            return {}
        return json.loads(self.rfile.read(length).decode())

    def _path_parts(self) -> List[str]:
        path, _, self._query = self.path.partition("?")
        return [p for p in path.split("/") if p]

    def _query_param(self, name: str) -> Optional[str]:
        for pair in (self._query or "").split("&"):
            k, _, v = pair.partition("=")
            if k == name and v:
                return v
        return None

    @staticmethod
    def _route_template(parts: List[str]) -> str:
        """The request's route with ids templated out — metric labels
        must stay bounded however many jobs pass through."""
        if len(parts) >= 3 and parts[:2] == ["api", "jobs"]:
            if len(parts) == 3:
                return "/api/jobs/<id>"
            return "/api/jobs/<id>/" + "/".join(parts[3:])
        return "/" + "/".join(parts) if parts else "/"

    def _observed(self, method: str, handler) -> None:
        """Time + trace one request (the telemetry middleware).

        The span parents to the client's ``traceparent`` header when
        present; the latency histogram skips the event-stream route,
        whose duration is dominated by how long the *job* runs, not
        the HTTP layer.  With telemetry off the request runs bare.
        """
        parts = self._path_parts()
        self._status_code = 0
        if not self.service.telemetry:
            handler(parts)
            return
        route = self._route_template(parts)
        parent = obs_trace.parse_traceparent(
            self.headers.get("traceparent")
        )
        t0 = time.perf_counter()
        try:
            with obs_trace.span(
                f"http.{method.lower()}", parent=parent, route=route
            ) as sp:
                handler(parts)
                sp.set(code=self._status_code or 200)
        finally:
            _M_HTTP_REQUESTS.inc(
                method=method,
                route=route,
                code=str(self._status_code or 200),
            )
            if parts[-1:] != ["events"]:
                _M_HTTP_SECONDS.observe(
                    time.perf_counter() - t0, method=method, route=route
                )

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._observed("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802
        self._observed("POST", self._handle_post)

    def _handle_get(self, parts: List[str]) -> None:
        try:
            if parts == ["api", "health"]:
                self._send_json(
                    {
                        "ok": True,
                        "version": __version__,
                        "engine_version": ENGINE_VERSION,
                    }
                )
            elif parts == ["api", "stats"]:
                self._send_json(self.service.stats())
            elif parts == ["api", "metrics"]:
                self._metrics()
            elif parts == ["api", "jobs"]:
                self._send_json(
                    {
                        "jobs": [
                            j.status() for j in self.service.scheduler.jobs()
                        ]
                    }
                )
            elif len(parts) == 3 and parts[:2] == ["api", "jobs"]:
                self._send_json(self.service.status(parts[2]))
            elif len(parts) == 4 and parts[:2] == ["api", "jobs"]:
                if parts[3] == "events":
                    self._stream_events(parts[2])
                elif parts[3] == "result":
                    self._job_result(parts[2])
                elif parts[3] == "trace":
                    self._job_trace(parts[2])
                else:
                    self._error(f"unknown endpoint {self.path!r}", 404)
            else:
                self._error(f"unknown endpoint {self.path!r}", 404)
        except KeyError as exc:
            self._error(str(exc.args[0]), 404)
        except ConnectionError:
            pass  # client hung up mid-stream

    def _handle_post(self, parts: List[str]) -> None:
        try:
            if parts == ["api", "jobs"]:
                request = JobRequest.from_data(self._read_body())
                job, attached = self.service.submit(
                    request,
                    traceparent=self.headers.get("traceparent"),
                )
                status = job.status(
                    queued_ahead=self.service.scheduler.queued_ahead(job)
                )
                status["attached"] = attached
                self._send_json(status, code=202)
            elif len(parts) == 4 and parts[:2] == ["api", "jobs"] and (
                parts[3] == "cancel"
            ):
                self._send_json(self.service.cancel(parts[2]))
            elif parts == ["api", "shutdown"]:
                self._send_json({"ok": True, "stopping": True})
                # stop the listener from a side thread so this response
                # can finish flushing first
                threading.Thread(
                    target=self.server.initiate_shutdown,  # type: ignore
                    daemon=True,
                ).start()
            else:
                self._error(f"unknown endpoint {self.path!r}", 404)
        except BusyError as exc:
            self._error(str(exc), 429)
        except (ValueError, TypeError) as exc:
            self._error(f"bad request: {exc}", 400)
        except KeyError as exc:
            self._error(str(exc.args[0]), 404)
        except ConnectionError:
            pass

    # -- streaming -----------------------------------------------------
    def _stream_events(self, job_id: str) -> None:
        """One chunk per batch of events, then the terminal chunk; the
        connection is not reused (the client reads to EOF and hangs
        up, so a keep-alive read would only find a closed socket)."""
        service = self.service
        service.job(job_id)  # 404 before committing to a stream
        start = self._query_param("from") or "0"
        if not (start.isascii() and start.isdigit()):
            self._error(
                "bad request: 'from' must be a non-negative event seq, "
                f"got {start!r}",
                400,
            )
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        for batch in service.event_batches(job_id, start=int(start)):
            lines = []
            for line in batch:
                if chaos.should_fire("drop-stream"):
                    break
                lines.append(line)
            data = b"".join(lines)
            if data:
                self.wfile.write(
                    f"{len(data):x}\r\n".encode() + data + b"\r\n"
                )
            if len(lines) < len(batch):
                # chaos yanked the connection mid-stream: no terminal
                # chunk, socket torn down — clients must reconnect
                # with ?from=<next seq>
                self.connection.close()
                return
        self.wfile.write(b"0\r\n\r\n")  # terminal chunk

    def _job_result(self, job_id: str) -> None:
        job = self.service.job(job_id)
        execution = job.execution
        if not execution.terminal:
            self._error(
                f"job {job_id} is {job.state}; stream "
                f"/api/jobs/{job_id}/events or poll until terminal",
                409,
            )
            return
        result = execution.result_data()
        if result is None:
            self._error(
                f"job {job_id} finished without a result "
                f"(state={job.state})",
                404,
            )
            return
        self._send_json(result)

    def _metrics(self) -> None:
        """``GET /api/metrics``: the registry snapshot — Prometheus
        text by default, JSON with ``?format=json``.  Point-in-time
        gauges are refreshed from *this* service's scheduler at scrape
        time (counters/histograms accumulate at their mutation sites).
        """
        stats = self.service.scheduler.stats()
        _M_QUEUE_DEPTH.set(stats["queued_executions"])
        for state in JOB_STATES:
            _M_JOBS_BY_STATE.set(
                stats["by_state"].get(state, 0), state=state
            )
        if self._query_param("format") == "json":
            self._send_text(
                to_json(REGISTRY) + "\n", "application/json"
            )
        else:
            self._send_text(
                to_prometheus(REGISTRY),
                "text/plain; version=0.0.4; charset=utf-8",
            )

    def _job_trace(self, job_id: str) -> None:
        """``GET /api/jobs/<id>/trace``: every recorded span of the
        job's trace (``repro.trace/v1``), for the CLI waterfall."""
        job = self.service.job(job_id)
        trace_id = job.execution.trace_id
        spanlog = self.service.spanlog
        if not trace_id or spanlog is None:
            self._error(
                f"no trace recorded for job {job_id} "
                "(telemetry disabled?)",
                404,
            )
            return
        self._send_json(
            {
                "schema": "repro.trace/v1",
                "job": job_id,
                "trace_id": trace_id,
                "spans": spanlog.for_trace(trace_id),
            }
        )


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: SimulationService):
        super().__init__(address, _Handler)
        self.service = service

    def initiate_shutdown(self) -> None:
        self.service.shutdown(wait=True)
        self.shutdown()


def create_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    cache_dir: Union[str, Path, None] = None,
    store: Optional[ResultCache] = None,
    default_workers: Optional[int] = None,
    max_inflight_per_client: int = 8,
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
    state_dir: Union[str, Path, None] = None,
    retry: Optional[RetryPolicy] = None,
    hang_timeout: Optional[float] = None,
    telemetry: bool = True,
) -> _ServiceHTTPServer:
    """Build a ready-to-serve HTTP simulation service.

    Returns the server; call ``serve_forever()`` (blocking) or drive it
    from a thread.  ``server.server_address`` carries the bound
    ``(host, port)`` — pass ``port=0`` for an ephemeral port.

    With ``state_dir`` the service journals jobs and replays them on
    the next start, so restarting against the same directory resumes
    interrupted work (see :mod:`repro.service.journal`).
    ``telemetry=False`` disables the tracing + HTTP-metrics plane
    (``GET /api/metrics`` still answers with whatever the process has
    recorded).
    """
    if store is None:
        if cache_dir is None:
            raise ValueError("need a cache_dir (or a prebuilt store)")
        store = ResultCache(
            cache_dir, max_entries=max_entries, max_bytes=max_bytes
        )
    service = SimulationService(
        store,
        default_workers=default_workers,
        max_inflight_per_client=max_inflight_per_client,
        state_dir=state_dir,
        retry=retry,
        hang_timeout=hang_timeout,
        telemetry=telemetry,
    )
    return _ServiceHTTPServer((host, port), service)


def serve(server: _ServiceHTTPServer) -> None:
    """Blocking serve loop with clean Ctrl-C shutdown."""
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.service.shutdown(wait=True)
        server.server_close()
