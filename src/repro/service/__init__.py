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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".chaos": ["CHAOS_ENV", "ChaosError"],
    ".client": [
        "DEFAULT_SERVER_ENV", "TERMINAL_EVENTS", "ServiceClient",
        "ServiceError",
    ],
    ".jobs": [
        "BusyError", "Execution", "Job", "JobCancelled", "RetryPolicy",
        "Scheduler", "TERMINAL_STATES",
    ],
    ".journal": [
        "JOB_JOURNAL_SCHEMA", "EventLog", "JobJournal",
        "read_ndjson_tolerant",
    ],
    ".protocol": [
        "JOB_EVENT_SCHEMA", "JOB_REQUEST_SCHEMA", "JOB_STATES",
        "JOB_STATUS_SCHEMA", "JobRequest",
    ],
    ".server": ["DEFAULT_PORT", "SimulationService", "create_server", "serve"],
    "..engine.cache": ["ResultCache as ResultStore"],
})
