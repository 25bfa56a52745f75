"""Scheduler and execution semantics: dedupe, fairness, cancellation."""

import threading

import pytest

from repro.api import build_study
from repro.service import (
    BusyError,
    JobRequest,
    Scheduler,
)


def _request(client="", priority=0, metrics=(), scale="quick"):
    return JobRequest(
        study=build_study("smoke", scale=scale).to_data(),
        client=client,
        priority=priority,
        metrics=tuple(metrics),
    )


class TestJobRequest:
    def test_round_trip(self):
        req = _request(client="alice", priority=2, metrics=("link_util",))
        back = JobRequest.from_json(req.to_json())
        assert back == req

    def test_rejects_empty_study(self):
        with pytest.raises(ValueError):
            JobRequest(study={})

    def test_rejects_wrong_schema(self):
        data = _request().to_data()
        data["schema"] = "something/else"
        with pytest.raises(ValueError):
            JobRequest.from_data(data)

    def test_execution_key_identity(self):
        assert _request().execution_key() == _request().execution_key()
        # tenancy fields do not change the computation
        assert (
            _request(client="a", priority=5).execution_key()
            == _request(client="b").execution_key()
        )

    def test_execution_key_tracks_physics(self):
        base = _request().execution_key()
        other = JobRequest(
            study=build_study("resilience_smoke", scale="quick").to_data()
        )
        assert other.execution_key() != base
        # the metrics axis changes config_key, hence the key
        assert _request(metrics=("link_util",)).execution_key() != base

    def test_invalid_study_payload_raises_on_build(self):
        req = JobRequest(study={"schema": "repro.study/v1", "bogus": 1})
        with pytest.raises((ValueError, KeyError, TypeError)):
            req.build_study()


class TestSchedulerDedupe:
    def test_identical_requests_share_one_execution(self):
        sched = Scheduler()
        job1, attached1 = sched.submit(_request(client="a"))
        job2, attached2 = sched.submit(_request(client="b"))
        assert not attached1 and attached2
        assert job1.execution is job2.execution
        assert job1.id != job2.id
        assert job2.status()["attached_to"] == job1.id
        # one queued execution, two jobs
        stats = sched.stats()
        assert stats["jobs"] == 2
        assert stats["queued_executions"] == 1

    def test_different_requests_queue_separately(self):
        sched = Scheduler()
        _, a1 = sched.submit(_request())
        _, a2 = sched.submit(_request(metrics=("link_util",)))
        assert not a1 and not a2
        assert sched.stats()["queued_executions"] == 2

    def test_finished_execution_not_reattached(self):
        sched = Scheduler()
        job, _ = sched.submit(_request())
        exe = sched.next_execution(timeout=1)
        exe.mark_running()
        exe.finish(result=_DummyResult(), cache_stats={})
        sched.finish_execution(exe)
        job2, attached = sched.submit(_request())
        assert not attached
        assert job2.execution is not exe


class _DummyResult:
    def to_dict(self):
        return {"dummy": True}


class TestSchedulerOrdering:
    def test_priority_then_fifo(self):
        sched = Scheduler()
        low1, _ = sched.submit(_request(priority=0))
        high, _ = sched.submit(_request(priority=5, metrics=("misroute",)))
        low2, _ = sched.submit(_request(priority=0, metrics=("link_util",)))
        order = [sched.next_execution(timeout=1) for _ in range(3)]
        assert order[0] is high.execution
        assert order[1] is low1.execution
        assert order[2] is low2.execution

    def test_queued_ahead_counts_earlier_executions(self):
        sched = Scheduler()
        first, _ = sched.submit(_request())
        second, _ = sched.submit(_request(metrics=("link_util",)))
        assert sched.queued_ahead(first) == 0
        assert sched.queued_ahead(second) == 1

    def test_next_execution_times_out_empty(self):
        assert Scheduler().next_execution(timeout=0.05) is None

    def test_close_unblocks(self):
        sched = Scheduler()
        got = []

        def worker():
            got.append(sched.next_execution(timeout=10))

        thread = threading.Thread(target=worker)
        thread.start()
        sched.close()
        thread.join(timeout=5)
        assert got == [None]
        with pytest.raises(BusyError):
            sched.submit(_request())


class TestFairness:
    def test_per_client_cap(self):
        sched = Scheduler(max_inflight_per_client=2)
        sched.submit(_request(client="a"))
        sched.submit(_request(client="a", metrics=("link_util",)))
        with pytest.raises(BusyError):
            sched.submit(_request(client="a", metrics=("misroute",)))
        # a different client still gets in
        sched.submit(_request(client="b", metrics=("misroute",)))

    def test_cancel_frees_cap(self):
        sched = Scheduler(max_inflight_per_client=1)
        job, _ = sched.submit(_request(client="a"))
        sched.cancel(job.id)
        sched.submit(_request(client="a", metrics=("link_util",)))

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            Scheduler(max_inflight_per_client=0)


class TestCancellation:
    def test_cancel_queued_job_is_terminal(self):
        sched = Scheduler()
        job, _ = sched.submit(_request())
        sched.cancel(job.id)
        assert job.state == "cancelled"
        events = job.execution.events_snapshot()
        assert events[-1]["event"] == "cancelled"
        # the queued execution was retired: nothing left to pop
        assert sched.next_execution(timeout=0.05) is None

    def test_cancel_one_of_two_subscribers_keeps_execution(self):
        sched = Scheduler()
        job1, _ = sched.submit(_request(client="a"))
        job2, _ = sched.submit(_request(client="b"))
        sched.cancel(job2.id)
        assert job2.state == "cancelled"
        assert job1.state == "queued"
        assert not job1.execution.cancel_event.is_set()
        # cancelling the last subscriber aborts the execution
        sched.cancel(job1.id)
        assert job1.execution.cancel_event.is_set()

    def test_cancel_is_idempotent(self):
        sched = Scheduler()
        job, _ = sched.submit(_request())
        sched.cancel(job.id)
        again = sched.cancel(job.id)
        assert again.state == "cancelled"

    def test_unknown_job_raises_keyerror(self):
        with pytest.raises(KeyError):
            Scheduler().get("j999999")


class TestExecutionEvents:
    def test_event_log_is_append_only_with_seq(self):
        sched = Scheduler()
        job, _ = sched.submit(_request())
        exe = sched.next_execution(timeout=1)
        exe.mark_running()
        exe.quarantine("boom", None, attempts=1)
        events = exe.events_snapshot()
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0]["event"] == "start"
        assert events[-1] == {
            "schema": events[-1]["schema"],
            "seq": events[-1]["seq"],
            "event": "failed",
            "error": "boom",
            "traceback": None,
            "attempts": 1,
            "points_done": 0,
        }
        assert job.state == "failed"

    def test_wait_events_blocks_then_drains(self):
        sched = Scheduler()
        sched.submit(_request())
        exe = sched.next_execution(timeout=1)

        def emit():
            exe.mark_running()

        timer = threading.Timer(0.1, emit)
        timer.start()
        events = exe.wait_events(0, timeout=5)
        timer.join()
        assert events and events[0]["event"] == "start"
        # terminal executions return the tail without blocking
        exe.quarantine("x", None, attempts=1)
        assert exe.wait_events(len(exe.events_snapshot()), timeout=0.05) == []


def test_error_is_neither_a_state_nor_a_terminal_event():
    """Quarantine (``failed``) is the only way a job ends in error:
    nothing can produce an ``error`` state, so no table names one."""
    from repro.service import JOB_STATES, TERMINAL_EVENTS
    from repro.service.jobs import TERMINAL_STATES, Execution

    assert "error" not in {*JOB_STATES, *TERMINAL_STATES, *TERMINAL_EVENTS}
    assert not hasattr(Execution, "fail")
