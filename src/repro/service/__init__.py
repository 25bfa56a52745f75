"""Simulation-as-a-service: job queue, streaming telemetry, shared store.

This package turns the in-process experiment pipeline into a small
long-running daemon:

* :mod:`repro.service.server` — HTTP endpoint with an async job queue
  and one *warm* executor thread, so the compiled native core and the
  engine's routing/topology LRUs stay resident between jobs (warm
  resubmission skips the ~seconds of per-process setup a cold CLI run
  pays);
* :mod:`repro.service.jobs` — executions, subscriber fan-out
  (identical submissions dedupe onto one run), fair scheduling with
  per-client in-flight caps, per-job cancellation;
* :mod:`repro.service.protocol` — the schema-tagged wire types;
* :mod:`repro.service.journal` — the write-ahead job journal and
  on-disk event logs behind ``serve --state-dir``: acknowledged jobs
  survive a ``kill -9`` and resume on the next start;
* :mod:`repro.service.chaos` — the ``REPRO_CHAOS`` fault-injection
  harness the chaos test suite drives;
* :mod:`repro.service.client` — a stdlib client used by the CLI verbs
  ``submit`` / ``status`` / ``watch`` / ``cancel``; idempotent calls
  retry with backoff and event streams reconnect transparently.

Start a server with ``repro-dragonfly serve`` (or
:func:`create_server` + :func:`serve` in-process), then::

    from repro.service import ServiceClient

    client = ServiceClient()          # honours $REPRO_SERVICE_URL
    job = client.submit_study(study)
    result = client.watch(job["id"])
"""

from .chaos import CHAOS_ENV, ChaosError
from .client import (
    DEFAULT_SERVER_ENV,
    TERMINAL_EVENTS,
    ServiceClient,
    ServiceError,
)
from .jobs import (
    BusyError,
    Execution,
    Job,
    JobCancelled,
    RetryPolicy,
    Scheduler,
    TERMINAL_STATES,
)
from .journal import (
    JOB_JOURNAL_SCHEMA,
    EventLog,
    JobJournal,
    read_ndjson_tolerant,
)
from .protocol import (
    JOB_EVENT_SCHEMA,
    JOB_REQUEST_SCHEMA,
    JOB_STATES,
    JOB_STATUS_SCHEMA,
    JobRequest,
)
from .server import DEFAULT_PORT, SimulationService, create_server, serve
from ..engine.cache import ResultCache as ResultStore

__all__ = [
    "BusyError",
    "CHAOS_ENV",
    "ChaosError",
    "DEFAULT_PORT",
    "DEFAULT_SERVER_ENV",
    "EventLog",
    "Execution",
    "JOB_EVENT_SCHEMA",
    "JOB_JOURNAL_SCHEMA",
    "JOB_REQUEST_SCHEMA",
    "JOB_STATES",
    "JOB_STATUS_SCHEMA",
    "Job",
    "JobCancelled",
    "JobJournal",
    "JobRequest",
    "ResultStore",
    "RetryPolicy",
    "Scheduler",
    "ServiceClient",
    "ServiceError",
    "SimulationService",
    "TERMINAL_EVENTS",
    "TERMINAL_STATES",
    "create_server",
    "serve",
    "read_ndjson_tolerant",
]
