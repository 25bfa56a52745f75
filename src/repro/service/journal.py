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

The **event logs** hold each execution's event lines, each encoded
once and written as the stream sends it.  A running execution writes
a private file beside ``<key>.ndjson``; at its terminal event the file
gets the execution's own finished name and is linked at
``<key>.ndjson`` atomically, so a resubmission of the same key never
truncates or replaces the log an older, finished job replays from.
Finished executions keep only the path of their own file and serve
every later read from it.  Both files are written by a process that
may die between any two bytes, so restart reads go through
:func:`read_ndjson_tolerant`, which treats an undecodable tail as
torn: it truncates the file back to the last good line and warns
instead of raising — a crashed append costs one event, never the
whole log.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import tempfile
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
    truncate: bool = True,
    label: str = "log",
) -> Tuple[int, bool]:
    """Parse a JSON-lines file written by a crash-prone process,
    handing each record to ``visit`` and keeping none.

    Returns ``(count, torn)``.  The first line that fails to decode
    — a torn trailing append, or garbage after it — ends the parse:
    everything from its first byte on is dropped and (with
    ``truncate``) physically truncated away, so the file is clean
    again for the next appender.  A missing file is simply empty.
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
            "%s",
            label,
            path,
            len(raw) - offset,
            count,
            "; truncating" if truncate else "",
        )
        if truncate:
            try:
                with open(path, "r+b") as fh:
                    fh.truncate(offset)
            except OSError:
                pass
    return count, torn


def read_ndjson_tolerant(
    path: Union[str, Path], *, truncate: bool = True, label: str = "log"
) -> Tuple[List[Dict], bool]:
    """:func:`scan_ndjson_tolerant` collecting the records:
    ``(records, torn)``."""
    records: List[Dict] = []
    _, torn = scan_ndjson_tolerant(
        path, records.append, truncate=truncate, label=label
    )
    return records, torn


def encode_event(event: Dict) -> bytes:
    """One event as the newline-terminated line that the log stores
    and the stream sends."""
    return json.dumps(event).encode() + b"\n"


class EventLog:
    """On-disk copy of one execution's event lines.

    Lines go to a private ``.<key>-*.part`` file beside ``path``.
    :meth:`close` renames it to the execution's own finished log,
    ``.<key>-*.ndjson``, and links that at ``path`` atomically (the
    name a restart restores from).  Until then ``path`` keeps whatever
    log it held, complete, and a later log linked at ``path`` never
    touches this one: each finished execution reads its own file.
    Every hidden file in the directory belongs to one server process;
    none is live after a restart (see :meth:`sweep`).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.path.parent,
            prefix=f".{self.path.stem}-",
            suffix=".part",
        )
        self._staged = Path(tmp)
        self._fh = os.fdopen(fd, "wb")
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

    def close(self) -> Optional[Path]:
        """Close the file, rename it to its finished name and link that
        at ``path``.  Returns the finished name when it holds every
        line written, else ``None``."""
        try:
            self._fh.close()
        except OSError:
            self._wedged = True
        own = self._staged.with_suffix(".ndjson")
        try:
            os.replace(self._staged, own)
            tmp = own.with_suffix(".link")
            _link(own, tmp)
            os.replace(tmp, self.path)
        except OSError:
            logger.exception("event log %s: swap failed", self.path)
            return None
        return None if self._wedged else own

    @staticmethod
    def keep(path: Union[str, Path]) -> Path:
        """A private name for the finished log at ``path`` (a missing
        log stays missing), so that a log swapped into ``path`` later
        leaves it alone: what a restored execution reads from."""
        path = Path(path)
        own = path.with_name(f".{path.name}")
        try:
            _link(path, own)
        except OSError:
            pass
        return own

    @staticmethod
    def sweep(directory: Union[str, Path]) -> None:
        """Remove the hidden files a previous server process left in
        ``directory``: staged logs of executions a crash interrupted
        (they re-run) and private names of finished ones."""
        for stale in Path(directory).glob(".*"):
            stale.unlink(missing_ok=True)

    @staticmethod
    def load(path: Union[str, Path]) -> Tuple[List[Dict], bool]:
        return read_ndjson_tolerant(path, label="event log")

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


def _link(src: Path, dst: Path) -> None:
    """Make the new name ``dst`` for ``src``'s file: a hard link, or a
    copy where the file system has none."""
    dst.unlink(missing_ok=True)
    try:
        os.link(src, dst)
    except OSError:
        shutil.copyfile(src, dst)


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
