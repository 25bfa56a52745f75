"""Job bookkeeping: executions, subscriber fan-out, fair scheduling.

The unit of *work* is an :class:`Execution` — one deduped computation,
named by the id of the job that created it and deduped by the
request's execution key.  The unit of *tenancy* is a
:class:`Job` — one client submission.  Concurrent or repeat submissions
of the same study attach extra jobs to the already-queued/running
execution (single-flight at the job level): every subscriber streams
the same event list, the physics runs once.

The :class:`Scheduler` keeps a priority queue of executions (higher
``priority`` first, FIFO within a level via a submission sequence
number) and enforces a per-client in-flight cap.  Cancellation is
per job: an execution is only aborted when *every* job riding it has
been cancelled, so one tenant cannot kill another tenant's stream.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..api import Study, StudyResult
from ..network.stats import SimResult
from ..obs import REGISTRY
from ..obs import trace as obs_trace
from .journal import EventLog, encode_event, scan_ndjson_tolerant
from .protocol import JOB_EVENT_SCHEMA, JOB_STATUS_SCHEMA, JobRequest

__all__ = [
    "BusyError",
    "Execution",
    "Job",
    "JobCancelled",
    "RetryPolicy",
    "Scheduler",
    "TERMINAL_STATES",
]

#: states in which an execution emits no further events.  ``failed``
#: is the quarantine state: the execution kept erroring through its
#: retry budget and was parked with its last traceback.
TERMINAL_STATES = ("done", "failed", "cancelled")

# runtime telemetry (see repro.obs).  Counters are process-global and
# monotonic, so multiple service instances in one process (tests) can
# share them safely; point-in-time gauges are refreshed by the server
# at scrape time from its own scheduler instead.
_M_SUBMITTED = REGISTRY.counter(
    "service_jobs_submitted_total",
    "Jobs accepted by the scheduler (attached=true rode an existing "
    "execution instead of enqueueing new work)",
    ("attached",),
)
_M_RETRIES = REGISTRY.counter(
    "service_retries_total", "Supervised execution retries"
)
_M_QUARANTINES = REGISTRY.counter(
    "service_quarantines_total",
    "Executions parked as failed after exhausting their retry budget",
)
_M_QUEUE_WAIT = REGISTRY.histogram(
    "service_queue_wait_seconds",
    "Time executions spent queued before their first running attempt",
)


class JobCancelled(Exception):
    """Raised inside the executor to abort a cancelled job's engine run."""


class BusyError(Exception):
    """Submission rejected: the client is at its in-flight cap."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter for supervised retries.

    Attempt ``n`` (1-based) failing sleeps ``base_delay * 2**(n-1)``
    seconds, capped at ``max_delay``, stretched by up to ``jitter``
    fractional randomness so a fleet of retrying executions does not
    thundering-herd a shared store.  After ``max_attempts`` failed
    attempts the execution is quarantined as ``failed``.
    """

    max_attempts: int = 3
    base_delay: float = 0.25
    max_delay: float = 5.0
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay(self, attempt: int) -> float:
        base = min(
            self.base_delay * (2 ** max(0, attempt - 1)), self.max_delay
        )
        return base * (1.0 + self.jitter * random.random())


class Execution:
    """One deduped computation and its append-only event log.

    ``id`` is the id of the job that created the execution (restarts
    keep it); its event log is ``events/<id>.ndjson``, which no other
    execution writes.  Each event is encoded once; the same line goes
    to that file (``sink``) and to every subscriber.  Subscribers (any
    number, attaching at any time) read lines by index under
    :meth:`wait_lines`; the log is complete from event 0, so a late
    subscriber replays the full history before blocking on the live
    tail.  At its terminal event an execution closes its log and, once
    the file holds every line, keeps only its path (``log_path``): its
    lines, study and spans are dropped, and every later read — stream
    replays, :meth:`events_snapshot`, :attr:`result`, a restart —
    comes from the file.  All mutation happens under one condition
    variable.
    """

    def __init__(
        self,
        execution_id: str,
        key: str,
        request: JobRequest,
        study: Study,
    ) -> None:
        self.id = execution_id
        self.key = key
        #: the study to run; dropped at the terminal transition
        self.study: Optional[Study] = study
        self.study_name = study.name
        self.workers = request.workers
        self.priority = request.priority
        self.state = "queued"
        self.jobs: List["Job"] = []
        self.cancel_event = threading.Event()
        self.points_done = 0
        self.points_total = study.num_points()
        self.cache_hits = 0
        self.error: Optional[str] = None
        self.traceback: Optional[str] = None
        #: supervised-retry attempt counter (1-based while running).
        self.attempts = 0
        #: last sign of life (updated per point / attempt) — the
        #: service watchdog reaps runs whose heartbeat goes stale.
        self.heartbeat = time.time()
        #: true when this execution was re-enqueued from the journal
        #: after a restart (completed points replay from the store).
        self.resumed = False
        #: optional on-disk copy of the event lines (an
        #: :class:`~repro.service.journal.EventLog`), closed at the
        #: terminal event.
        self.sink = None
        #: the finished log, once the lines are dropped.
        self.log_path: Optional[Path] = None
        #: optional ``fn(execution, state)`` called on each state
        #: transition — the journal's write-ahead hook.
        self.on_transition: Optional[Callable] = None
        #: trace identity (``repro.obs``): the id every span of this
        #: execution shares, and the open root span ended at the
        #: terminal transition.  ``None`` while tracing is disabled.
        self.trace_id: Optional[str] = None
        self.trace: Optional[obs_trace.SpanContext] = None
        self.root_span = obs_trace.NOOP_SPAN
        self._queue_span = obs_trace.NOOP_SPAN
        self._queued_at = time.time()
        #: encoded event lines; ``None`` once they live at ``log_path``
        self._lines: Optional[List[bytes]] = []
        #: the terminal event is in the log (or the execution was
        #: restored read-only).  This ends a subscriber's stream; ``state``
        #: turns terminal right after, in the same critical section.
        self.log_complete = False
        self._cond = threading.Condition()

    # -- tracing -------------------------------------------------------
    def begin_trace(
        self,
        parent: Optional[obs_trace.SpanContext] = None,
        link: Optional[str] = None,
        resumed: bool = False,
    ) -> None:
        """Open this execution's root span (and the queue-wait span).

        ``parent`` is the submitting client's context (the root then
        joins the client's trace) or, on journal replay, the pre-crash
        root — which keeps the original ``trace_id``.  ``link`` names
        the pre-crash root span id so resumed work is explicitly tied
        to the incarnation it continues.  No-op while tracing is off.
        """
        name = "execution.resume" if resumed else "execution"
        self.root_span = obs_trace.start_span(
            name,
            parent=parent,
            key=self.key[:16],
            study=self.study_name,
            points_total=self.points_total,
        )
        self.root_span.add_link(link)
        ctx = self.root_span.context
        if ctx is not None:
            self.trace = ctx
            self.trace_id = ctx.trace_id
        self._queue_span = obs_trace.start_span(
            "queue.wait", parent=self.trace
        )
        self._queued_at = time.time()

    def _end_trace(
        self, status: str, error: Optional[str] = None
    ) -> None:
        self._queue_span.end()  # idempotent; cancelled-while-queued path
        self.root_span.set(points_done=self.points_done)
        self.root_span.end(
            status="ok" if status == "done" else status, error=error
        )

    # -- event emission (executor side) --------------------------------
    def _emit(self, event: Dict) -> None:
        with self._cond:
            if self.log_complete:
                return  # a late emission from an abandoned worker
            event = {
                "schema": JOB_EVENT_SCHEMA,
                "seq": len(self._lines),
                **event,
            }
            line = encode_event(event)
            self._lines.append(line)
            if self.sink is not None:
                self.sink.write(line)
            if event["event"] in TERMINAL_STATES:  # named after the state
                self.log_complete = True
            self._cond.notify_all()

    def _settle(self) -> None:
        """Drop what a finished execution no longer needs: close the
        log and, when its file holds every line, keep the file's path
        instead of the lines (a wedged log keeps them); drop study and
        spans."""
        sink, self.sink = self.sink, None
        if sink is not None and sink.close():
            self.log_path = sink.path
            self._lines = None
        self.study = None
        self.root_span = self._queue_span = obs_trace.NOOP_SPAN

    def _notify(self, state: str) -> None:
        if self.on_transition is not None:
            self.on_transition(self, state)

    def beat(self) -> None:
        self.heartbeat = time.time()

    def mark_running(self) -> None:
        with self._cond:
            if self.state in TERMINAL_STATES:
                return
            first = self.state == "queued"
            self.state = "running"
        self.beat()
        if first:
            self._queue_span.end()
            _M_QUEUE_WAIT.observe(time.time() - self._queued_at)
        self._notify("running")
        self._emit(
            {
                "event": "start",
                "study": self.study_name,
                "key": self.key,
                "points_total": self.points_total,
                "resumed": self.resumed,
            }
        )

    def record_point(
        self,
        scenario: str,
        label: str,
        rate: float,
        result: SimResult,
        source: str,
    ) -> None:
        """One completed point: a ``point`` event carrying the whole
        ``SimResult.to_dict()``, metric channels inline."""
        self.points_done += 1
        self.beat()
        if source == "cache":
            self.cache_hits += 1
        self._emit(
            {
                "event": "point",
                "scenario": scenario,
                "curve": label,
                "rate": rate,
                "source": source,
                "points_done": self.points_done,
                "points_total": self.points_total,
                "result": result.to_dict(),
            }
        )

    def _terminate(self, state: str, event: Dict, **fields) -> bool:
        """Turn terminal: set ``fields``, end the trace, append the
        terminal event, settle the log, notify the journal and only
        then set ``state`` — one critical section, so whoever reads a
        terminal state (``Job.status`` reads it without the lock)
        finds the event already in the finished log, and a journaled
        terminal state always has its log in place (a crash before the
        record re-runs the execution).  ``False`` when already
        terminal."""
        with self._cond:
            if self.state in TERMINAL_STATES:
                return False
            for name, value in fields.items():
                setattr(self, name, value)
            self._end_trace(state, fields.get("error"))
            self._emit({"event": state, **event})
            self._settle()
            self._notify(state)
            self.state = state
        return True

    def finish(self, result: StudyResult, cache_stats: Dict) -> None:
        self._terminate(
            "done",
            {
                "points_done": self.points_done,
                "cache_hits": self.cache_hits,
                "cache": cache_stats,
                "result": result.to_dict(),
            },
        )

    def record_retry(
        self, attempt: int, max_attempts: int, delay: float, error: str
    ) -> None:
        """One failed attempt that will be retried after ``delay``."""
        self.attempts = attempt
        self.beat()
        _M_RETRIES.inc()
        self._emit(
            {
                "event": "retry",
                "attempt": attempt,
                "max_attempts": max_attempts,
                "delay": round(delay, 3),
                "error": error,
            }
        )

    def quarantine(
        self, error: str, traceback_text: Optional[str], attempts: int
    ) -> None:
        """Park a poison execution as ``failed`` with its traceback.

        Terminal like ``cancelled``: the queue moves on, the
        job stops consuming retries, and ``status`` surfaces the last
        traceback for post-mortems.
        """
        event = {
            "error": error,
            "traceback": traceback_text,
            "attempts": attempts,
            "points_done": self.points_done,
        }
        if self._terminate(
            "failed", event,
            error=error, traceback=traceback_text, attempts=attempts,
        ):
            _M_QUARANTINES.inc()

    def mark_cancelled(self) -> None:
        self._terminate("cancelled", {"points_done": self.points_done})

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # -- subscriber side -----------------------------------------------
    def wait_lines(
        self, start: int, timeout: Optional[float] = None
    ) -> Tuple[List[bytes], bool]:
        """Encoded event lines from index ``start``, and whether they
        end the log.  Blocks until at least one new line exists or the
        log is complete (then returns whatever is left, possibly
        nothing); a finished log is read from its file."""
        with self._cond:
            self._cond.wait_for(
                lambda: self.log_complete or len(self._lines) > start,
                timeout=timeout,
            )
            if self._lines is not None:
                return self._lines[start:], self.log_complete
        return EventLog.read_lines(self.log_path)[start:], True

    def wait_events(
        self, start: int, timeout: Optional[float] = None
    ) -> List[Dict]:
        """:meth:`wait_lines`, decoded."""
        lines, _ = self.wait_lines(start, timeout=timeout)
        return [json.loads(line) for line in lines]

    def events_snapshot(self) -> List[Dict]:
        return self.wait_events(0, timeout=0)

    def result_data(self) -> Optional[Dict]:
        """The ``done`` event's ``StudyResult.to_dict()``, read from
        the log; ``None`` unless done, or when the log lost it."""
        if self.state != "done":
            return None
        lines, _ = self.wait_lines(0, timeout=0)
        try:
            last = json.loads(lines[-1]) if lines else {}
        except ValueError:
            return None
        return last.get("result") if last.get("event") == "done" else None

    @property
    def result(self) -> Optional[StudyResult]:
        data = self.result_data()
        return None if data is None else StudyResult.from_dict(data)

    # -- durability ----------------------------------------------------
    @classmethod
    def restore_terminal(
        cls,
        execution_id: str,
        key: str,
        request: JobRequest,
        study: Study,
        state: str,
        log_path: Union[str, Path],
        error: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> "Execution":
        """Rebuild a finished execution from its journaled state and
        on-disk event log, so status / events / result endpoints keep
        answering across restarts.  One pass over the log (its torn
        tail truncated) restores the counters; no event is kept, the
        log is read again when asked for.  A ``done`` execution whose
        log lost its ``done`` event keeps its state but has no result —
        the result endpoint reports that honestly."""
        execution = cls(execution_id, key, request, study)
        execution.state = state
        execution.log_complete = True
        execution.error = error
        execution.trace_id = trace_id
        execution.study = None
        execution._lines = None
        execution.log_path = Path(log_path)

        def visit(event: Dict) -> None:
            kind = event.get("event")
            if kind == "point":
                execution.points_done += 1
                if event.get("source") == "cache":
                    execution.cache_hits += 1
            elif kind == "failed":
                execution.error = event.get("error", error)
                execution.traceback = event.get("traceback")
                execution.attempts = event.get("attempts", 0)

        scan_ndjson_tolerant(log_path, visit, label="event log")
        return execution


class Job:
    """One client submission riding an execution."""

    def __init__(
        self, job_id: str, request: JobRequest, execution: Execution
    ) -> None:
        self.id = job_id
        self.client = request.client
        self.priority = request.priority
        self.execution = execution
        self.cancelled = False

    @property
    def state(self) -> str:
        if self.cancelled:
            return "cancelled"
        return self.execution.state

    @property
    def terminal(self) -> bool:
        return self.cancelled or self.execution.terminal

    def status(self, queued_ahead: Optional[int] = None) -> Dict:
        exe = self.execution
        primary = exe.jobs[0] if exe.jobs else self
        out = {
            "schema": JOB_STATUS_SCHEMA,
            "id": self.id,
            "state": self.state,
            "study": exe.study_name,
            "key": exe.key,
            "client": self.client,
            "priority": self.priority,
            "points_done": exe.points_done,
            "points_total": exe.points_total,
            "cache_hits": exe.cache_hits,
            "subscribers": sum(1 for j in exe.jobs if not j.cancelled),
            "attached_to": primary.id if primary is not self else None,
        }
        if queued_ahead is not None:
            out["queued_ahead"] = queued_ahead
        if exe.error:
            out["error"] = exe.error
        if exe.traceback:
            out["traceback"] = exe.traceback
        if exe.attempts:
            out["attempts"] = exe.attempts
        if exe.resumed:
            out["resumed"] = True
        if exe.trace_id:
            out["trace_id"] = exe.trace_id
        return out


class Scheduler:
    """Priority + FIFO queue of executions with per-client caps."""

    def __init__(
        self,
        max_inflight_per_client: int = 8,
        execution_hook: Optional[Callable] = None,
    ) -> None:
        if max_inflight_per_client < 1:
            raise ValueError("max_inflight_per_client must be >= 1")
        self.max_inflight_per_client = max_inflight_per_client
        #: called with each newly created (or re-enqueued) execution —
        #: the service attaches journal/event-log plumbing here.
        self.execution_hook = execution_hook
        self._lock = threading.Condition()
        self._seq = itertools.count()
        self._job_seq = itertools.count(1)
        self._jobs: Dict[str, Job] = {}
        self._executions: Dict[str, Execution] = {}  # active by key
        self._heap: List[Tuple[int, int, str]] = []
        self._closed = False

    # -- submission ----------------------------------------------------
    def _client_inflight(self, client: str) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.client == client and not job.terminal
        )

    def submit(
        self,
        request: JobRequest,
        trace: Optional[obs_trace.SpanContext] = None,
    ) -> Tuple[Job, bool]:
        """Queue (or attach to) the request's execution.

        Returns ``(job, attached)`` — ``attached`` is true when an
        identical execution was already queued or running and this job
        subscribed to it instead of enqueueing new work.  ``trace`` is
        the submitting client's span context (from the ``traceparent``
        header); a *new* execution joins that trace, an attached job
        keeps the execution's existing one.  Raises
        :class:`BusyError` at the client's in-flight cap and
        ``ValueError`` on an invalid study payload.
        """
        study = request.build_study()  # validates the payload
        key = request.execution_key()
        with self._lock:
            if self._closed:
                raise BusyError("service is shutting down")
            if (
                self._client_inflight(request.client)
                >= self.max_inflight_per_client
            ):
                raise BusyError(
                    f"client {request.client or '<anonymous>'!r} already "
                    f"has {self.max_inflight_per_client} job(s) in "
                    "flight; wait for one to finish or cancel it"
                )
            execution = self._executions.get(key)
            if execution is not None and execution.terminal:
                # finished but not yet retired (finish_execution runs
                # after the terminal state is visible): start fresh
                execution = None
            attached = execution is not None
            job_id = f"j{next(self._job_seq):06d}"
            if execution is None:
                execution = Execution(job_id, key, request, study)
                execution.begin_trace(parent=trace)
                if self.execution_hook is not None:
                    self.execution_hook(execution)
                self._executions[key] = execution
                heapq.heappush(
                    self._heap,
                    (-request.priority, next(self._seq), key),
                )
            job = Job(job_id, request, execution)
            execution.jobs.append(job)
            self._jobs[job.id] = job
            _M_SUBMITTED.inc(attached=str(attached).lower())
            self._lock.notify_all()
            return job, attached

    def restore(
        self,
        job_id: str,
        request: JobRequest,
        execution: Execution,
        enqueue: bool,
        cancelled: bool = False,
    ) -> Job:
        """Re-register a journaled job after a restart.

        ``enqueue`` puts the execution back on the run queue (once,
        however many jobs ride it); terminal executions are
        registered for status/result lookups only.  Restored job ids
        are preserved; the id sequence is bumped past them so new
        submissions, and the executions and log files they create,
        never collide.
        """
        with self._lock:
            job = Job(job_id, request, execution)
            job.cancelled = cancelled
            execution.jobs.append(job)
            self._jobs[job_id] = job
            try:
                numeric = int(job_id.lstrip("j"))
            except ValueError:
                numeric = 0
            top = max(
                numeric + 1,
                next(self._job_seq),  # consumes one; harmless
            )
            self._job_seq = itertools.count(top)
            if enqueue and self._executions.get(execution.key) is not (
                execution
            ):
                if self.execution_hook is not None:
                    self.execution_hook(execution)
                self._executions[execution.key] = execution
                heapq.heappush(
                    self._heap,
                    (-execution.priority, next(self._seq), execution.key),
                )
            self._lock.notify_all()
            return job

    # -- executor side -------------------------------------------------
    def next_execution(
        self, timeout: Optional[float] = None
    ) -> Optional[Execution]:
        """Pop the highest-priority queued execution; ``None`` on
        timeout or shutdown.  Cancelled-while-queued executions are
        skipped (their terminal event was already emitted)."""
        with self._lock:
            while True:
                while self._heap:
                    _, _, key = heapq.heappop(self._heap)
                    execution = self._executions.get(key)
                    if execution is None or execution.terminal:
                        continue
                    return execution
                if self._closed:
                    return None
                if not self._lock.wait(timeout=timeout):
                    return None

    def finish_execution(self, execution: Execution) -> None:
        """Retire a terminal execution so a resubmission starts fresh
        (and replays instantly from the shared store)."""
        with self._lock:
            if self._executions.get(execution.key) is execution:
                del self._executions[execution.key]

    # -- control -------------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Cancel one job; abort its execution only if no live
        subscriber remains.  Idempotent; terminal jobs are returned
        unchanged."""
        with self._lock:
            job = self.get(job_id)
            if job.terminal:
                return job
            job.cancelled = True
            execution = job.execution
            if all(j.cancelled for j in execution.jobs):
                execution.cancel_event.set()
                if execution.state == "queued":
                    execution.mark_cancelled()
                    self.finish_execution(execution)
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(
                f"unknown job {job_id!r}; known: "
                f"{sorted(self._jobs)[-8:] or '(none)'}"
            ) from None

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def queued_ahead(self, job: Job) -> int:
        """Executions queued before this job's (0 when running/done)."""
        with self._lock:
            if job.execution.state != "queued":
                return 0
            mine = None
            order = sorted(self._heap)
            for pos, (_, _, key) in enumerate(order):
                if key == job.execution.key:
                    mine = pos
                    break
            return mine if mine is not None else 0

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._lock.notify_all()

    def stats(self) -> Dict:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "jobs": len(self._jobs),
                "by_state": dict(sorted(states.items())),
                "queued_executions": sum(
                    1
                    for e in self._executions.values()
                    if e.state == "queued"
                ),
                "active_executions": len(self._executions),
                "max_inflight_per_client": self.max_inflight_per_client,
            }
