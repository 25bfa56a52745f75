"""Supervised execution: retry with backoff, poison quarantine, and
the hung-run watchdog — driven by the REPRO_CHAOS fault harness."""

import time

import pytest

from repro.service import (
    JobRequest,
    ResultStore,
    RetryPolicy,
    SimulationService,
    chaos,
)
from repro.service.jobs import Execution

from .conftest import tiny_study


def _physics(result_dict):
    out = dict(result_dict)
    out.pop("meta", None)
    return out


def _wait_terminal(service, job_id, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = service.status(job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached a terminal state")


@pytest.fixture()
def arm_chaos(monkeypatch):
    """Arm REPRO_CHAOS directives (the engine never re-runs a raising
    chunk, so the *service* retry budget is what is under test)."""
    def arm(directives):
        monkeypatch.setenv("REPRO_CHAOS", directives)
        chaos.reset()

    yield arm
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()


def _service(tmp_path, **kw):
    kw.setdefault(
        "retry",
        RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05),
    )
    return SimulationService(ResultStore(tmp_path / "store"), **kw)


class TestSupervisedRetry:
    def test_transient_failure_retried_to_success(
        self, tmp_path, arm_chaos
    ):
        """Two injected failures, three attempts allowed: the job emits
        two retry events and still finishes bit-identical to offline
        (completed points replay from the store on each retry)."""
        arm_chaos("fail-point:times=2:match=m@")
        # serial: the chaos counter lives in this process, where a pool
        # worker would start its own count at zero
        service = _service(tmp_path, default_workers=1)
        try:
            job, _ = service.submit(
                JobRequest(study=tiny_study().to_data())
            )
            status = _wait_terminal(service, job.id)
            assert status["state"] == "done"
            assert status["attempts"] == 3
            events = service.job(job.id).execution.events_snapshot()
            retries = [e for e in events if e["event"] == "retry"]
            assert len(retries) == 2
            assert retries[0]["attempt"] == 1
            assert retries[1]["attempt"] == 2
            assert all("ChaosError" in e["error"] for e in retries)
            assert all(e["max_attempts"] == 3 for e in retries)
            assert all(e["delay"] > 0 for e in retries)
            result = service.job(job.id).execution.result
            offline = tiny_study().run(workers=1)
            assert _physics(result.to_dict()) == _physics(
                offline.to_dict()
            )
        finally:
            service.shutdown()

    def test_backoff_delays_grow(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.5, max_delay=3.0, jitter=0.0
        )
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [
            0.5,
            1.0,
            2.0,
            3.0,  # capped
        ]
        jittered = RetryPolicy(base_delay=1.0, jitter=0.5)
        assert all(1.0 <= jittered.delay(1) <= 1.5 for _ in range(20))

    def test_poison_job_quarantined_with_traceback(
        self, tmp_path, arm_chaos
    ):
        """A job that fails every attempt parks as 'failed' carrying
        its last traceback — and the queue moves on to the next job."""
        arm_chaos("fail-point:match=m@")
        service = _service(tmp_path)
        try:
            job, _ = service.submit(
                JobRequest(study=tiny_study().to_data())
            )
            status = _wait_terminal(service, job.id)
            assert status["state"] == "failed"
            assert status["attempts"] == 3
            assert "ChaosError" in status["error"]
            assert "ChaosError" in status["traceback"]
            events = service.job(job.id).execution.events_snapshot()
            failed = [e for e in events if e["event"] == "failed"]
            assert len(failed) == 1
            assert failed[0]["attempts"] == 3
            assert "Traceback" in failed[0]["traceback"]

            # the queue is not wedged: a clean job right behind it runs
            clean = tiny_study(seed=11, label="clean")
            job2, _ = service.submit(JobRequest(study=clean.to_data()))
            assert _wait_terminal(service, job2.id)["state"] == "done"
        finally:
            service.shutdown()

    def test_resubmission_after_quarantine_runs_fresh(
        self, tmp_path, arm_chaos
    ):
        """Quarantine retires the execution, so resubmitting the same
        study once the fault clears starts a fresh run that succeeds."""
        arm_chaos("fail-point:match=m@")
        service = _service(tmp_path)
        try:
            job, _ = service.submit(
                JobRequest(study=tiny_study().to_data())
            )
            assert _wait_terminal(service, job.id)["state"] == "failed"
            arm_chaos("")  # fault cleared
            job2, attached = service.submit(
                JobRequest(study=tiny_study().to_data())
            )
            assert attached is False  # not glued to the failed run
            assert _wait_terminal(service, job2.id)["state"] == "done"
        finally:
            service.shutdown()

    @pytest.mark.parametrize(
        "directive,terminal", [("fail-point:match=m@", "failed"), ("", "done")]
    )
    def test_terminal_status_implies_terminal_event(
        self, tmp_path, arm_chaos, monkeypatch, directive, terminal
    ):
        """A terminal state is published only once its event is in the
        log: with the journal notification slowed down, the first
        status poll that reads a terminal state already finds the
        terminal event in the snapshot."""
        notify = Execution._notify

        def slow_notify(execution, state):
            if state == terminal:
                time.sleep(0.3)
            notify(execution, state)

        monkeypatch.setattr(Execution, "_notify", slow_notify)
        arm_chaos(directive)
        service = _service(tmp_path)
        try:
            job, _ = service.submit(
                JobRequest(study=tiny_study().to_data())
            )
            status = _wait_terminal(service, job.id)
            events = service.job(job.id).execution.events_snapshot()
            assert status["state"] == terminal
            assert events[-1]["event"] == terminal
        finally:
            service.shutdown()


class TestWatchdog:
    def test_hung_execution_reaped(self, tmp_path, arm_chaos):
        """A run that stops heartbeating past hang_timeout is
        quarantined and the executor moves on."""
        arm_chaos("hang-point:after=1:seconds=30")
        # serial: the chaos counter lives in this process, where each
        # pool worker would hang at its own first point
        service = _service(tmp_path, hang_timeout=1.0, default_workers=1)
        try:
            job, _ = service.submit(
                JobRequest(study=tiny_study().to_data())
            )
            status = _wait_terminal(service, job.id, timeout=15.0)
            assert status["state"] == "failed"
            assert "watchdog" in status["error"]

            # the executor thread is free: the next job completes even
            # though the hung worker thread is still asleep
            clean = tiny_study(seed=11, label="clean")
            job2, _ = service.submit(JobRequest(study=clean.to_data()))
            assert _wait_terminal(service, job2.id)["state"] == "done"
        finally:
            service.shutdown()

    def test_no_watchdog_by_default(self, tmp_path):
        service = _service(tmp_path)
        assert service.hang_timeout is None
        service.shutdown()


class TestClientRequestRetry:
    def test_idempotent_calls_retry_transport_errors(self, monkeypatch):
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(
            "http://127.0.0.1:9", retries=3, backoff=0.001
        )
        attempts = []

        def flaky(method, path, payload=None):
            attempts.append((method, path))
            if len(attempts) <= 2:
                raise ServiceError("cannot reach service")
            return {"ok": True}

        monkeypatch.setattr(client, "_request_once", flaky)
        assert client.health() == {"ok": True}
        assert len(attempts) == 3

        # cancel is explicitly idempotent
        attempts.clear()
        assert client.cancel("j000001") == {"ok": True}
        assert len(attempts) == 3

    def test_non_idempotent_posts_fail_fast(self, monkeypatch):
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(
            "http://127.0.0.1:9", retries=3, backoff=0.001
        )
        attempts = []

        def down(method, path, payload=None, extra_headers=None):
            attempts.append(method)
            raise ServiceError("cannot reach service")

        monkeypatch.setattr(client, "_request_once", down)
        with pytest.raises(ServiceError):
            client.submit_study(tiny_study())
        assert attempts == ["POST"]  # a submit is never replayed blind

    def test_http_errors_never_retried(self, monkeypatch):
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(
            "http://127.0.0.1:9", retries=3, backoff=0.001
        )
        attempts = []

        def not_found(method, path, payload=None):
            attempts.append(method)
            raise ServiceError("unknown job", 404)

        monkeypatch.setattr(client, "_request_once", not_found)
        with pytest.raises(ServiceError) as err:
            client.status("j999999")
        assert err.value.code == 404
        assert attempts == ["GET"]

    def test_watch_reads_past_a_non_terminal_event(self, monkeypatch):
        """``error`` is no event kind the service emits: ``watch``
        does not end on one, and a stream that stops without a terminal
        event is still an error."""
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient("http://127.0.0.1:9")
        events = [{"event": "start"}, {"event": "error", "error": "boom"}]
        monkeypatch.setattr(
            client, "stream", lambda job_id, start=0: iter(events)
        )
        seen = []
        with pytest.raises(ServiceError, match="without a terminal event"):
            client.watch("j000001", on_event=seen.append)
        assert seen == events
