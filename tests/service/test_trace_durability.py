"""Trace continuity through failure: a crashed worker pool, a service
retry, and a journal replay after ``kill -9`` all stay in ONE trace —
the resumed incarnation keeps the original trace_id and links the
span it continues."""

import json
import multiprocessing as mp
import os
import signal
import time
from collections import Counter

import pytest

from repro.api import Scenario, Study
from repro.engine import executor
from repro.network import resolve_core
from repro.obs.registry import REGISTRY
from repro.service import (
    JobRequest,
    ResultStore,
    RetryPolicy,
    ServiceClient,
    SimulationService,
    chaos,
)

from .conftest import tiny_study
from .test_chaos import _spawn_server


@pytest.fixture()
def arm_chaos(monkeypatch):
    def arm(directives):
        monkeypatch.setenv("REPRO_CHAOS", directives)
        chaos.reset()

    yield arm
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()


@pytest.fixture()
def pool_cpus(monkeypatch):
    """Pretend we have CPUs so ``workers=2`` is a real process pool
    (child-only chaos sites can never fire on the serial path)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("REPRO_SIM_THREADS", "1")


def _service(tmp_path, **kw):
    kw.setdefault(
        "retry",
        RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05),
    )
    kw.setdefault("state_dir", tmp_path / "state")
    return SimulationService(ResultStore(tmp_path / "store"), **kw)


def _wait_terminal(service, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = service.status(job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def _worker_pid(record, by_id):
    """The ``worker`` pid of the ``engine.chunk`` span ``record`` ran
    under (``None`` outside any chunk)."""
    while record is not None:
        if record["name"] == "engine.chunk":
            return record["attrs"]["worker"]
        record = by_id.get(record["parent_id"])
    return None


class TestWorkerPoolCrash:
    @pytest.mark.parametrize(
        "stateful, start_method",
        [(True, "fork"), (False, "fork"), (False, "spawn")],
        ids=["state-dir", "temp", "temp-spawn"],
    )
    def test_trace_survives_a_broken_pool(
        self, tmp_path, arm_chaos, pool_cpus, monkeypatch, stateful,
        start_method,
    ):
        """A worker SIGKILLs itself mid-chunk (BrokenProcessPool): the
        job still lands ``done`` under its original trace_id, the
        surviving workers' spans (chunk, build, kernel) carry their
        pids into the span file, each span once, and the crash counter
        moved.  Workers join the trace through the pool's carrier, so
        this holds with or without a ``--state-dir`` and for spawned
        workers as for forked ones."""
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"no {start_method} start method here")
        monkeypatch.setattr(
            executor, "_pool_context", lambda: mp.get_context(start_method)
        )
        crashes = REGISTRY.counter("engine_worker_crashes_total")
        before = crashes.value()
        arm_chaos(f"crash-worker:once={tmp_path}/crash.marker")

        # two sweeps: one chunk each, so two workers are occupied
        specs = tuple(
            tiny_study(rates=(0.1, 0.2), label=label, seed=seed)
            .scenarios[0].specs[0]
            for label, seed in (("pool-a", 3), ("pool-b", 5))
        )
        study = Study.wrap(
            Scenario(name="pool", specs=specs, title="two sweeps")
        )
        service = _service(
            tmp_path, state_dir=tmp_path / "state" if stateful else None
        )
        try:
            job, attached = service.submit(
                JobRequest(study=study.to_data(), workers=2)
            )
            trace_id = job.execution.trace_id
            status = _wait_terminal(service, job.id)
            assert status["state"] == "done"
            assert status["trace_id"] == trace_id
            assert crashes.value() >= before + 1

            spans = service.spanlog.for_trace(trace_id)
            assert {s["trace_id"] for s in spans} == {trace_id}
            chunks = [s for s in spans if s["name"] == "engine.chunk"]
            # one span per completed chunk, emitted *inside* the pool
            # workers (each writes the span file through its own sink)
            assert sum(s["attrs"]["lanes"] for s in chunks) >= 4
            # (a worker torn down with the pool may leave stages whose
            # chunk span never closed: those trace to no pid)
            by_id = {s["span_id"]: s for s in spans}
            stages = ["engine.chunk", "engine.build", "kernel.run"]
            if resolve_core() == "native":
                # only a packed kernel call has a prepare stage
                stages.append("kernel.prepare")
            for name in stages:
                pids = {
                    _worker_pid(s, by_id) for s in spans if s["name"] == name
                } - {None}
                assert pids and os.getpid() not in pids, (name, pids)

            lines = service.spanlog.path.read_text().splitlines()
            ids = Counter(json.loads(line)["span_id"] for line in lines)
            assert max(ids.values()) == 1, ids.most_common(3)
        finally:
            service.shutdown()


class TestRetryTraceContinuity:
    def test_both_attempts_share_the_trace(self, tmp_path, arm_chaos):
        """A point failure escalates to the supervised retry loop: the
        failed attempt's span closes as an error, the retry's span
        closes ok, and both live in the one execution trace."""
        arm_chaos("fail-point:times=1:match=ret@")

        service = _service(tmp_path)
        try:
            job, _ = service.submit(
                JobRequest(study=tiny_study(label="ret").to_data())
            )
            status = _wait_terminal(service, job.id)
            assert status["state"] == "done"
            assert status["attempts"] == 2

            spans = service.spanlog.for_trace(status["trace_id"])
            assert {s["trace_id"] for s in spans} == {
                status["trace_id"]
            }
            attempts = sorted(
                (s for s in spans if s["name"] == "execution.attempt"),
                key=lambda s: s["start"],
            )
            assert [s["status"] for s in attempts] == ["error", "ok"]
            assert "injected point failure" in attempts[0]["error"]
            # the root execution span closed cleanly *after* the retry
            (root,) = [s for s in spans if s["name"] == "execution"]
            assert root["status"] == "ok"
            assert root["end"] >= attempts[1]["end"]
        finally:
            service.shutdown()


class TestKillNineTraceContinuity:
    def test_resume_keeps_trace_id_and_links_precrash_root(
        self, tmp_path
    ):
        """ISSUE acceptance: SIGKILL the server mid-sweep; the restart
        resumes the job *inside the original trace* — same trace_id,
        and an ``execution.resume`` span whose parent and links point
        at the journaled pre-crash root span."""
        cache_dir = tmp_path / "cache"
        state_dir = tmp_path / "state"
        proc = proc2 = None
        try:
            proc, url, _ = _spawn_server(
                cache_dir,
                state_dir,
                extra_env={"REPRO_CHAOS": "kill-server:after=1"},
            )
            client = ServiceClient(url)
            job = client.submit_study(tiny_study())
            pre_trace = job["trace_id"]
            assert pre_trace

            assert proc.wait(timeout=120) == -signal.SIGKILL

            # the fsynced journal holds the pre-crash trace identity
            records = [
                json.loads(line)
                for line in (state_dir / "journal.ndjson")
                .read_text()
                .splitlines()
                if line.strip()
            ]
            job_rec = next(
                r
                for r in records
                if r.get("rec") == "job" and r.get("id") == job["id"]
            )
            assert job_rec["trace_id"] == pre_trace
            pre_root = job_rec["span_id"]

            proc2, url2, _ = _spawn_server(cache_dir, state_dir)
            client2 = ServiceClient(url2)
            client2.watch(job["id"])
            assert client2.status(job["id"])["trace_id"] == pre_trace

            payload = client2.trace(job["id"])
            assert payload["trace_id"] == pre_trace
            spans = payload["spans"]
            (resume,) = [
                s for s in spans if s["name"] == "execution.resume"
            ]
            assert resume["parent_id"] == pre_root
            assert pre_root in resume["links"]
            assert resume["status"] == "ok"
            # the second life recorded real work in the same trace
            names = {s["name"] for s in spans}
            assert "execution.attempt" in names
            assert "engine.run" in names
        finally:
            for p in (proc, proc2):
                if p is not None and p.poll() is None:
                    p.kill()
                    p.wait(timeout=10)
