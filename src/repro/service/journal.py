"""Durable job state: write-ahead journal + on-disk event logs.

Everything the service needs to survive a ``kill -9`` lives in one
``--state-dir``::

    <state-dir>/journal.ndjson    write-ahead job journal
    <state-dir>/events/<key>.ndjson   per-execution event logs

The **journal** (schema ``repro.job-journal/v1``) is an append-only
JSON-lines file recording every accepted :class:`~repro.service.
protocol.JobRequest` (fsynced *before* the submission is acknowledged,
so an acknowledged job is never lost) and every execution state
transition.  On startup the service replays it: executions whose last
recorded state is non-terminal are re-enqueued — their completed
points come back from the shared :class:`~repro.engine.cache.
ResultCache`, so a job killed mid-sweep resumes and finishes
bit-identical to an uninterrupted run.  Terminal executions are
restored read-only (status / events / result keep answering) from
their event logs.

The **event logs** mirror each execution's in-memory event list line
by line.  Both files are written by a process that may die between any
two bytes, so every reader goes through :func:`read_ndjson_tolerant`,
which treats an undecodable tail as torn: it truncates the file back
to the last good line and warns instead of raising — a crashed append
costs one event, never the whole log.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..obs.log import get_logger
from . import chaos
from .protocol import JobRequest

__all__ = [
    "EventLog",
    "JOB_JOURNAL_SCHEMA",
    "JobJournal",
    "JournalJob",
    "JournalView",
    "read_ndjson_tolerant",
]

JOB_JOURNAL_SCHEMA = "repro.job-journal/v1"

logger = get_logger("repro.service")


def read_ndjson_tolerant(
    path: Union[str, Path], *, truncate: bool = True, label: str = "log"
) -> Tuple[List[Dict], bool]:
    """Parse a JSON-lines file written by a crash-prone process.

    Returns ``(records, torn)``.  The first line that fails to decode
    — a torn trailing append, or garbage after it — ends the parse:
    everything from its first byte on is dropped and (with
    ``truncate``) physically truncated away, so the file is clean
    again for the next appender.  A missing file is simply empty.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return [], False
    records: List[Dict] = []
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
            records.append(record)
        offset += len(line)
    torn = offset < len(raw)
    if torn:
        logger.warning(
            "%s %s has a torn tail (%d byte(s) after %d good record(s))"
            "%s",
            label,
            path,
            len(raw) - offset,
            len(records),
            "; truncating" if truncate else "",
        )
        if truncate:
            try:
                with open(path, "r+b") as fh:
                    fh.truncate(offset)
            except OSError:
                pass
    return records, torn


class EventLog:
    """Append-only on-disk mirror of one execution's event list."""

    def __init__(self, path: Union[str, Path], fresh: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w" if fresh else "a")
        self._wedged = False

    def append(self, event: Dict) -> None:
        if self._wedged:
            return
        line = json.dumps(event)
        if chaos.should_fire("torn-event"):
            # crash mid-write: half a line, no newline, nothing after
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            self._wedged = True
            return
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
        except OSError:
            self._wedged = True

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    @staticmethod
    def load(path: Union[str, Path]) -> Tuple[List[Dict], bool]:
        return read_ndjson_tolerant(path, label="event log")


@dataclasses.dataclass
class JournalJob:
    """One job as reconstructed from the journal."""

    id: str
    key: str
    request: JobRequest
    cancelled: bool = False
    #: trace identity of the execution's pre-crash incarnation — the
    #: shared ``trace_id`` a resumed run must keep, and the root
    #: ``span_id`` its resume span links back to.
    trace_id: Optional[str] = None
    span_id: Optional[str] = None


@dataclasses.dataclass
class JournalView:
    """Everything a replay learned: jobs in submission order, the last
    recorded state per execution key, and whether the tail was torn."""

    jobs: Dict[str, JournalJob] = dataclasses.field(default_factory=dict)
    states: Dict[str, str] = dataclasses.field(default_factory=dict)
    errors: Dict[str, str] = dataclasses.field(default_factory=dict)
    torn: bool = False


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
        record = {"schema": JOB_JOURNAL_SCHEMA, **record}
        with self._lock:
            try:
                self._fh.write(json.dumps(record) + "\n")
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
    ) -> None:
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
        self._append(record, sync=True)

    def record_state(
        self, key: str, state: str, error: Optional[str] = None
    ) -> None:
        record: Dict = {"rec": "state", "key": key, "state": state}
        if error:
            record["error"] = error
        self._append(record, sync=False)

    def record_cancel(self, job_id: str) -> None:
        self._append({"rec": "cancel", "id": job_id}, sync=False)

    # -- replay --------------------------------------------------------
    def replay(self) -> JournalView:
        """Reconstruct job/state history, tolerating a torn tail."""
        with self._lock:
            records, torn = read_ndjson_tolerant(
                self.path, label="job journal"
            )
        view = JournalView(torn=torn)
        for record in records:
            kind = record.get("rec")
            if kind == "job":
                try:
                    request = JobRequest.from_data(record["request"])
                except (KeyError, TypeError, ValueError) as exc:
                    logger.warning(
                        "journal: dropping unreadable job record %r: %s",
                        record.get("id"),
                        exc,
                    )
                    continue
                view.jobs[record["id"]] = JournalJob(
                    id=record["id"],
                    key=record["key"],
                    request=request,
                    trace_id=record.get("trace_id"),
                    span_id=record.get("span_id"),
                )
            elif kind == "state":
                view.states[record["key"]] = record["state"]
                if record.get("error"):
                    view.errors[record["key"]] = record["error"]
                else:
                    view.errors.pop(record["key"], None)
            elif kind == "cancel":
                job = view.jobs.get(record.get("id"))
                if job is not None:
                    job.cancelled = True
        return view

    def compact(self, view: JournalView) -> None:
        """Rewrite the journal to the view's net state (startup GC)."""
        tmp = self.path.with_suffix(".ndjson.tmp")
        with self._lock:
            with open(tmp, "w") as fh:
                for job in view.jobs.values():
                    record = {
                        "schema": JOB_JOURNAL_SCHEMA,
                        "rec": "job",
                        "id": job.id,
                        "key": job.key,
                        "request": job.request.to_data(),
                    }
                    if job.trace_id:
                        record["trace_id"] = job.trace_id
                    if job.span_id:
                        record["span_id"] = job.span_id
                    fh.write(json.dumps(record) + "\n")
                    if job.cancelled:
                        fh.write(
                            json.dumps(
                                {
                                    "schema": JOB_JOURNAL_SCHEMA,
                                    "rec": "cancel",
                                    "id": job.id,
                                }
                            )
                            + "\n"
                        )
                for key, state in view.states.items():
                    record = {
                        "schema": JOB_JOURNAL_SCHEMA,
                        "rec": "state",
                        "key": key,
                        "state": state,
                    }
                    if key in view.errors:
                        record["error"] = view.errors[key]
                    fh.write(json.dumps(record) + "\n")
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
