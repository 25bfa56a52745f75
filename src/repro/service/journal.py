"""Durable job state: write-ahead journal + on-disk event logs.

Everything the service needs to survive a ``kill -9`` lives in one
``--state-dir``::

    <state-dir>/journal.ndjson              write-ahead job journal
    <state-dir>/events/<execution>.ndjson   one event log per execution

The **journal** (schema ``repro.job-journal/v1``) is an append-only
JSON-lines file recording every accepted :class:`~repro.service.
protocol.JobRequest` (fsynced *before* the submission is acknowledged,
so an acknowledged job is never lost) with the execution it rides, and
every execution's state transitions.  An execution's id is the id of
the job that created it (``j000123``).  On startup the service replays
the journal: executions whose last recorded state is non-terminal are
re-enqueued — their completed points come back from the shared
:class:`~repro.engine.cache.ResultCache`, so a job killed mid-sweep
resumes and finishes bit-identical to an uninterrupted run.  Terminal
executions are restored read-only (status / events / result keep
answering) from their own event logs.  Records of older trees name no
execution; they are grouped by execution key instead, with the log at
``events/<key>.ndjson``.

The **event logs** hold each execution's event lines, each encoded
once and written as the stream sends it.  An execution opens its file
once, when it is enqueued, and closes it at its terminal event; no
other execution writes it, so a resubmission of the same study never
touches the log an older job replays from.  Each log stays on disk
for as long as the journal names its execution.  The files are
written by a process that may die between any two bytes, so restart
reads go through :func:`read_ndjson_tolerant`, which treats an
undecodable tail as torn: it truncates the file back to the last good
line and warns instead of raising — a crashed append costs one event,
never the whole log.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..obs.log import get_logger
from . import chaos
from .protocol import JobRequest

__all__ = [
    "EventLog",
    "JOB_JOURNAL_SCHEMA",
    "JobJournal",
    "JournalJob",
    "JournalView",
    "encode_event",
    "read_ndjson_tolerant",
    "scan_ndjson_tolerant",
]

JOB_JOURNAL_SCHEMA = "repro.job-journal/v1"

logger = get_logger("repro.service")


def scan_ndjson_tolerant(
    path: Union[str, Path],
    visit: Callable[[Dict], None],
    *,
    label: str = "log",
) -> Tuple[int, bool]:
    """Parse a JSON-lines file written by a crash-prone process,
    handing each record to ``visit`` and keeping none.

    Returns ``(count, torn)``.  The first line that fails to decode
    — a torn trailing append, or garbage after it — ends the parse:
    everything from its first byte on is dropped and physically
    truncated away, so the file is clean again for the next appender.
    A missing file is simply empty.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return 0, False
    count = 0
    offset = 0
    for line in raw.splitlines(keepends=True):
        stripped = line.strip()
        if stripped:
            try:
                record = json.loads(stripped)
            except ValueError:
                break
            if not line.endswith(b"\n"):
                # decodes, but the newline never landed: the *next*
                # append would have glued onto it — drop it too
                break
            visit(record)
            count += 1
        offset += len(line)
    torn = offset < len(raw)
    if torn:
        logger.warning(
            "%s %s has a torn tail (%d byte(s) after %d good record(s))"
            "; truncating",
            label,
            path,
            len(raw) - offset,
            count,
        )
        try:
            with open(path, "r+b") as fh:
                fh.truncate(offset)
        except OSError:
            pass
    return count, torn


def read_ndjson_tolerant(
    path: Union[str, Path], *, label: str = "log"
) -> Tuple[List[Dict], bool]:
    """:func:`scan_ndjson_tolerant` collecting the records:
    ``(records, torn)``."""
    records: List[Dict] = []
    _, torn = scan_ndjson_tolerant(path, records.append, label=label)
    return records, torn


def encode_event(event: Dict) -> bytes:
    """One event as the newline-terminated line that the log stores
    and the stream sends."""
    return json.dumps(event).encode() + b"\n"


class EventLog:
    """On-disk copy of one execution's event lines: the file at
    ``path``, truncated when opened and closed at the execution's
    terminal event."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self._wedged = False

    def append(self, event: Dict) -> None:
        self.write(encode_event(event))

    def write(self, line: bytes) -> None:
        """Append one encoded line (see :func:`encode_event`).  The
        log is read only once it is closed, so lines are not flushed
        one by one."""
        if self._wedged:
            return
        if chaos.should_fire("torn-event"):
            # crash mid-write: half a line, no newline, nothing after
            self._fh.write(line[: max(1, (len(line) - 1) // 2)])
            self._fh.flush()
            self._wedged = True
            return
        try:
            self._fh.write(line)
        except OSError:
            self._wedged = True

    def close(self) -> bool:
        """Close the file; true when it holds every line written."""
        try:
            self._fh.close()
        except OSError:
            self._wedged = True
        return not self._wedged

    @staticmethod
    def read_lines(path: Union[str, Path]) -> List[bytes]:
        """A closed log's lines, as written; a missing file is empty
        and a line without its newline (a torn tail) is dropped, as
        :func:`scan_ndjson_tolerant` drops it."""
        try:
            lines = Path(path).read_bytes().splitlines(keepends=True)
        except OSError:
            return []
        if lines and not lines[-1].endswith(b"\n"):
            lines.pop()
        return lines


@dataclasses.dataclass
class JournalJob:
    """One job as reconstructed from the journal."""

    id: str
    key: str
    request: JobRequest
    #: id of the execution the job rides (its own id when it created
    #: it); the key for records that name no execution
    execution: str
    cancelled: bool = False
    #: trace identity of the execution's pre-crash incarnation — the
    #: shared ``trace_id`` a resumed run must keep, and the root
    #: ``span_id`` its resume span links back to.
    trace_id: Optional[str] = None
    span_id: Optional[str] = None


@dataclasses.dataclass
class JournalView:
    """Everything a replay learned: jobs in submission order, the last
    recorded state per execution id, and whether the tail was torn."""

    jobs: Dict[str, JournalJob] = dataclasses.field(default_factory=dict)
    states: Dict[str, str] = dataclasses.field(default_factory=dict)
    errors: Dict[str, str] = dataclasses.field(default_factory=dict)
    torn: bool = False


def _job_record(
    job_id: str,
    key: str,
    request: JobRequest,
    trace_id: Optional[str],
    span_id: Optional[str],
    execution: Optional[str],
) -> Dict:
    record: Dict = {
        "rec": "job",
        "id": job_id,
        "key": key,
        "request": request.to_data(),
    }
    if trace_id:
        record["trace_id"] = trace_id
    if span_id:
        record["span_id"] = span_id
    if execution:
        record["execution"] = execution
    return record


def _state_record(
    execution: str, state: str, error: Optional[str]
) -> Dict:
    record: Dict = {"rec": "state", "execution": execution, "state": state}
    if error:
        record["error"] = error
    return record


def _line(record: Dict) -> str:
    return json.dumps({"schema": JOB_JOURNAL_SCHEMA, **record}) + "\n"


class JobJournal:
    """Write-ahead journal of job submissions and state transitions.

    Submissions are fsynced (a crash after the HTTP 202 cannot lose
    the job); state transitions are flushed (they are reconstructible
    in the worst case — an execution whose terminal record is lost
    merely re-runs from the store).  All appends are serialised by one
    lock; records are single ``write`` calls, so concurrent readers of
    a live journal only ever race the torn-tail handling they already
    have.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a")

    # -- appends -------------------------------------------------------
    def _append(self, record: Dict, sync: bool) -> None:
        with self._lock:
            try:
                self._fh.write(_line(record))
                self._fh.flush()
                if sync:
                    os.fsync(self._fh.fileno())
            except OSError:
                logger.exception("journal append failed (%s)", self.path)

    def record_job(
        self,
        job_id: str,
        key: str,
        request: JobRequest,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        execution: Optional[str] = None,
    ) -> None:
        """One accepted job and the id of the execution it rides (a
        record without one is grouped by ``key`` on replay)."""
        self._append(
            _job_record(job_id, key, request, trace_id, span_id, execution),
            sync=True,
        )

    def record_state(
        self, execution: str, state: str, error: Optional[str] = None
    ) -> None:
        self._append(_state_record(execution, state, error), sync=False)

    def record_cancel(self, job_id: str) -> None:
        self._append({"rec": "cancel", "id": job_id}, sync=False)

    # -- replay --------------------------------------------------------
    def replay(self) -> JournalView:
        """Reconstruct job/state history, tolerating a torn tail.
        Records that name no execution (older trees) stand for the
        execution of their ``key``."""
        with self._lock:
            records, torn = read_ndjson_tolerant(
                self.path, label="job journal"
            )
        view = JournalView(torn=torn)
        for record in records:
            kind = record.get("rec")
            if kind == "job":
                try:
                    job = JournalJob(
                        id=record["id"],
                        key=record["key"],
                        request=JobRequest.from_data(record["request"]),
                        execution=str(
                            record.get("execution", record["key"])
                        ),
                        trace_id=record.get("trace_id"),
                        span_id=record.get("span_id"),
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    logger.warning(
                        "journal: dropping unreadable job record %r: %s",
                        record.get("id"),
                        exc,
                    )
                    continue
                view.jobs[job.id] = job
            elif kind == "state":
                execution = str(record.get("execution", record.get("key")))
                view.states[execution] = record["state"]
                if record.get("error"):
                    view.errors[execution] = record["error"]
                else:
                    view.errors.pop(execution, None)
            elif kind == "cancel":
                job = view.jobs.get(record.get("id"))
                if job is not None:
                    job.cancelled = True
        return view

    def compact(self, view: JournalView) -> None:
        """Rewrite the journal to the view's net state (startup GC);
        every record names its execution."""
        tmp = self.path.with_suffix(".ndjson.tmp")
        with self._lock:
            with open(tmp, "w") as fh:
                for job in view.jobs.values():
                    fh.write(
                        _line(
                            _job_record(
                                job.id,
                                job.key,
                                job.request,
                                job.trace_id,
                                job.span_id,
                                job.execution,
                            )
                        )
                    )
                    if job.cancelled:
                        fh.write(_line({"rec": "cancel", "id": job.id}))
                for execution, state in view.states.items():
                    fh.write(
                        _line(
                            _state_record(
                                execution, state, view.errors.get(execution)
                            )
                        )
                    )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._fh.close()
            self._fh = open(self.path, "a")

    def close(self) -> None:
        with self._lock:
            try:
                self._fh.close()
            except OSError:
                pass
