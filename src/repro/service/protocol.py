"""Wire schemas of the simulation service.

Everything crossing the service socket is schema-tagged JSON, in the
same style as the scenario files:

* :class:`JobRequest` (``repro.job-request/v1``) — what a client
  submits: a full :class:`~repro.api.Study`/:class:`~repro.api.
  Scenario` payload (the ``to_data`` form that scenario files already
  use) plus execution options (metrics axis, engine workers) and
  tenancy fields (client id, priority);
* job status dicts (``repro.job-status/v1``) — id, state, queue
  position, progress counters, dedupe linkage;
* event lines (``repro.job-event/v2``) — the NDJSON stream a
  subscriber reads, each tagged ``schema`` / ``seq`` / ``event``:
  ``start`` (``study``, ``key``, ``points_total``, ``resumed``); one
  ``point`` per completed point, cache replays included (``scenario``,
  ``curve``, ``rate``, ``source`` = ``"cache"`` | ``"fresh"``,
  ``points_done``, ``points_total``, and ``result``: the point's whole
  ``SimResult.to_dict()``, metric channels inline); ``retry`` per
  supervised re-attempt; one terminal ``done`` (with the
  ``StudyResult``) / ``error`` / ``failed`` / ``cancelled``.  v1 sent
  channels past 256 rows as separate frame events; v1 logs in a
  ``--state-dir`` still restore (``done`` is unchanged).

The request's *execution key* — the digest under which concurrent and
repeat submissions dedupe — is computed from the canonical study
payload **after** the metrics axis is applied, because the metrics axis
changes ``config_key`` and therefore the produced telemetry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..api import Study
from ..engine.spec import shaped

__all__ = [
    "JOB_EVENT_SCHEMA",
    "JOB_REQUEST_SCHEMA",
    "JOB_STATUS_SCHEMA",
    "JOB_STATES",
    "JobRequest",
]

JOB_REQUEST_SCHEMA = "repro.job-request/v1"
JOB_STATUS_SCHEMA = "repro.job-status/v1"
JOB_EVENT_SCHEMA = "repro.job-event/v2"

#: lifecycle of a job: ``queued -> running -> done``, with ``error``
#: (single hard failure), ``failed`` (quarantined after exhausting
#: supervised retries, traceback attached) and ``cancelled`` as the
#: other terminal states.
JOB_STATES = ("queued", "running", "done", "error", "failed", "cancelled")


@dataclass(frozen=True)
class JobRequest:
    """One client submission: a study payload plus execution options."""

    #: ``Study.to_data()`` / ``Scenario.to_data()`` payload (bare
    #: scenarios are accepted everywhere studies are, as in the files).
    study: Dict
    #: client identity for fairness accounting (in-flight caps are per
    #: client; empty string means the anonymous pool).
    client: str = ""
    #: higher runs first; FIFO within a priority level.
    priority: int = 0
    #: engine worker processes for this job (``None``: server default).
    workers: Optional[int] = None
    #: metric probe kinds applied to every curve before execution.
    metrics: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.study, dict) or not self.study:
            raise ValueError("a job request needs a study payload")
        if self.workers is not None and self.workers < 1:
            raise ValueError(
                f"workers must be a positive integer, got {self.workers}"
            )

    def build_study(self) -> Study:
        """Realise the payload (validating it) with metrics applied.

        Any malformed payload — missing keys included — surfaces as
        ``ValueError``, so transport layers can map it to "bad request"
        without knowing the study schema's internals.
        """
        try:
            study = Study.from_data(self.study)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid study payload: {exc!r}") from None
        if self.metrics:
            study = study.with_metrics(list(self.metrics))
        return study

    def execution_key(self) -> str:
        """Digest identifying the *computation* this request asks for.

        Two requests with equal keys produce byte-identical results and
        event streams, so the service runs them as one execution.  The
        canonical payload is the realised study's ``to_data`` form —
        titles and labels included, since they appear in results.
        """
        payload = self.build_study().to_data()
        blob = json.dumps(payload, sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_data(self) -> Dict:
        return {
            "schema": JOB_REQUEST_SCHEMA,
            "study": self.study,
            "client": self.client,
            "priority": self.priority,
            "workers": self.workers,
            "metrics": list(self.metrics),
        }

    @classmethod
    def from_data(cls, data: Dict) -> "JobRequest":
        schema = shaped(data, dict, "a job request").get("schema")
        if schema is not None and schema != JOB_REQUEST_SCHEMA:
            raise ValueError(
                f"cannot read {schema!r} payload as {JOB_REQUEST_SCHEMA!r}"
            )
        workers = data.get("workers")
        return cls(
            study=data["study"],
            client=str(data.get("client", "")),
            priority=int(data.get("priority", 0)),
            workers=None if workers is None else int(workers),
            metrics=tuple(data.get("metrics", ())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_data())

    @classmethod
    def from_json(cls, text: str) -> "JobRequest":
        return cls.from_data(json.loads(text))
