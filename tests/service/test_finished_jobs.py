"""Finished executions keep a pointer to their log: server memory and
open files stay flat per finished job, and every read after the end —
stream replays from any cursor, ``/result``, a restart, an older job
of a key whose newer execution is mid-run or has ended — serves the
bytes the live stream sent."""

import gc
import http.client
import json
import os
import threading
import time
import tracemalloc

import pytest

from repro.api import StudyResult
from repro.service import (
    JobRequest,
    ResultStore,
    ServiceClient,
    SimulationService,
    create_server,
)
from repro.service.jobs import TERMINAL_STATES, Execution
from repro.service.journal import JobJournal
from repro.service.server import _ServiceHTTPServer

from .conftest import tiny_study

#: a job of this study streams ~12 KB of events, half of it in the
#: ``done`` line's whole StudyResult
RATES = tuple(0.05 * i for i in range(1, 13))


def _study():
    return tiny_study(measure_cycles=200, rates=RATES)


def _raw_lines(client, job_id, start=0):
    """The event stream's body, as the lines the server sent."""
    conn = http.client.HTTPConnection(client.host, client.port, timeout=60)
    try:
        conn.request("GET", f"/api/jobs/{job_id}/events?from={start}")
        resp = conn.getresponse()
        assert resp.status == 200
        return resp.read().splitlines(keepends=True)
    finally:
        conn.close()


class _Server:
    """An HTTP server over a service whose executor starts only when
    asked, so a subscriber can attach before the first event."""

    def __init__(self, tmp_path, start_executor=True):
        self.service = SimulationService(
            ResultStore(tmp_path / "store"),
            state_dir=tmp_path / "state",
            start_executor=start_executor,
        )
        self.http = _ServiceHTTPServer(("127.0.0.1", 0), self.service)
        self._thread = threading.Thread(
            target=self.http.serve_forever, daemon=True
        )
        self._thread.start()
        self.client = ServiceClient(
            f"http://127.0.0.1:{self.http.server_address[1]}"
        )

    def close(self):
        self.http.initiate_shutdown()
        self.http.server_close()
        self._thread.join(timeout=10)


@pytest.fixture()
def live_job(tmp_path, monkeypatch):
    """A job whose stream was read live from before its first event:
    ``(server, job_id, live_lines)`` with the job finished."""
    attached = threading.Event()
    wait_lines = Execution.wait_lines

    def spy(self, *args, **kwargs):
        attached.set()
        return wait_lines(self, *args, **kwargs)

    monkeypatch.setattr(Execution, "wait_lines", spy)
    server = _Server(tmp_path, start_executor=False)
    try:
        job = server.client.submit_study(_study())
        live = []
        reader = threading.Thread(
            target=lambda: live.extend(
                _raw_lines(server.client, job["id"])
            )
        )
        reader.start()
        assert attached.wait(timeout=10), "stream never attached"
        monkeypatch.setattr(Execution, "wait_lines", wait_lines)
        server.service._executor.start()
        reader.join(timeout=60)
        assert not reader.is_alive()
        yield server, job["id"], live
    finally:
        server.close()


def _result_from(lines):
    done = json.loads(lines[-1])
    assert done["event"] == "done"
    return StudyResult.from_dict(done["result"])


class TestReplay:
    def test_finished_job_replays_the_live_bytes(self, live_job):
        server, job_id, live = live_job
        execution = server.service.job(job_id).execution
        assert execution.terminal and execution.log_path is not None
        assert execution._lines is None and execution.study is None
        assert len(live) > 6  # start, the points, done
        assert _raw_lines(server.client, job_id) == live
        for k in (1, 5, len(live) - 1, len(live)):
            assert _raw_lines(server.client, job_id, start=k) == live[k:]
        assert server.client.result(job_id).to_dict() == (
            _result_from(live).to_dict()
        )

    def test_replay_after_a_restart(self, live_job, tmp_path):
        server, job_id, live = live_job
        server.close()
        again = _Server(tmp_path)
        try:
            assert again.service.restored_jobs == 1
            status = again.client.status(job_id)
            assert status["state"] == "done"
            assert status["points_done"] == len(live) - 2
            assert _raw_lines(again.client, job_id) == live
            assert _raw_lines(again.client, job_id, start=4) == live[4:]
            assert again.client.result(job_id).to_dict() == (
                _result_from(live).to_dict()
            )
        finally:
            again.close()

    def test_older_job_replays_whole_while_its_key_reruns(
        self, live_job, monkeypatch
    ):
        """A resubmission of the same key stages its own log: the
        finished job's log stays complete, ending in its terminal
        event, for as long as the newer execution runs."""
        server, job_id, live = live_job
        first = server.service.job(job_id).execution
        gate = threading.Event()
        paused = threading.Event()
        record_point = Execution.record_point

        def held(self, *args):
            if self is not first:
                paused.set()
                gate.wait(timeout=60)
            record_point(self, *args)

        monkeypatch.setattr(Execution, "record_point", held)
        newer = server.client.submit_study(_study())
        try:
            assert paused.wait(timeout=30)
            assert server.client.status(newer["id"])["state"] == "running"
            assert _raw_lines(server.client, job_id) == live
            assert _raw_lines(server.client, job_id, start=3) == live[3:]
            assert server.client.result(job_id).to_dict() == (
                _result_from(live).to_dict()
            )
        finally:
            gate.set()
        result = server.client.watch(newer["id"])
        assert result.to_dict()["scenarios"] == (
            _result_from(live).to_dict()["scenarios"]
        )

    @pytest.mark.parametrize("restart", [False, True])
    def test_older_job_keeps_its_log_after_a_newer_one_ends(
        self, live_job, tmp_path, restart
    ):
        """A newer execution of the key that ends without a result
        (here: cancelled while queued) writes its own log; the finished
        job, restored or not, keeps its own, and so does each of them
        across a restart after the newer one ended."""
        server, job_id, live = live_job
        started = []  # servers this test opened and must close
        if restart:
            server.close()
            server = _Server(tmp_path)
            started.append(server)
        try:
            # no executor: the newer execution stays queued
            server.service._stopped.set()
            server.service._executor.join(timeout=10)
            newer = server.client.submit_study(_study())
            assert server.client.status(newer["id"])["state"] == "queued"
            server.client.cancel(newer["id"])
            newer_log = server.service.log_dir / f"{newer['id']}.ndjson"
            assert newer_log.read_bytes() == b"".join(
                _raw_lines(server.client, newer["id"])
            )
            assert b'"cancelled"' in newer_log.read_bytes()
            for restarted in (False, True):
                if restarted:
                    server.close()
                    server = _Server(tmp_path)
                    started.append(server)
                assert server.client.status(job_id)["state"] == "done"
                assert _raw_lines(server.client, job_id) == live
                assert _raw_lines(server.client, job_id, start=3) == live[3:]
                assert server.client.result(job_id).to_dict() == (
                    _result_from(live).to_dict()
                )
                assert server.client.watch(job_id).to_dict() == (
                    _result_from(live).to_dict()
                )
                assert server.client.status(newer["id"])["state"] == (
                    "cancelled"
                )
        finally:
            for opened in started:
                opened.close()


def test_terminal_state_is_journaled_after_its_log(tmp_path, monkeypatch):
    """The journal records a terminal state only once the execution's
    log holds the terminal event, so a crash between the two re-runs
    the execution instead of restoring it from a partial log."""
    seen = []
    record_state = JobJournal.record_state

    def spy(self, execution, state, error=None):
        if state in TERMINAL_STATES:
            log = tmp_path / "state" / "events" / f"{execution}.ndjson"
            seen.append((state, json.loads(log.read_bytes().splitlines()[-1])))
        record_state(self, execution, state, error=error)

    monkeypatch.setattr(JobJournal, "record_state", spy)
    service = SimulationService(
        ResultStore(tmp_path / "store"), state_dir=tmp_path / "state"
    )
    try:
        job, _ = service.submit(JobRequest(study=_study().to_data()))
        deadline = time.time() + 60
        while not job.terminal and time.time() < deadline:
            time.sleep(0.02)
    finally:
        service.shutdown()
    assert [(state, last["event"]) for state, last in seen] == [
        ("done", "done")
    ]


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_stateless_shutdown_closes_its_files(tmp_path):
    """Without a ``--state-dir`` the event logs and the span file share
    a private temp root: shutdown closes the span writer and removes
    the root, and no open descriptor points into it."""
    service = SimulationService(ResultStore(tmp_path / "store"))
    root = service.log_dir.parent
    try:
        assert service.spanlog.path == root / "spans.ndjson"
        job, _ = service.submit(JobRequest(study=_study().to_data()))
        deadline = time.time() + 60
        while not job.terminal and time.time() < deadline:
            time.sleep(0.02)
        assert service.spanlog.for_trace(job.execution.trace_id)
    finally:
        service.shutdown()
    assert not root.exists()
    inside = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # closed since the listing
        if target.startswith(f"{root}{os.sep}"):
            inside.append(target)
    assert inside == []


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
@pytest.mark.parametrize("journal", [True, False], ids=["state-dir", "temp"])
def test_server_memory_and_files_stay_flat_per_finished_job(
    tmp_path, journal
):
    """40 warm jobs on a server with a ``--state-dir`` or without one
    (logs in a private temp dir): between job 10 and job 40 the process
    keeps ≤ 16 KB of traced memory per finished job (a server that
    keeps every job's events held ~45 KB each here) and at most 2 more
    open files."""
    server = create_server(
        host="127.0.0.1",
        port=0,
        cache_dir=tmp_path / "store",
        state_dir=tmp_path / "state" if journal else None,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    study = _study()
    try:
        client.watch(client.submit_study(study)["id"])  # fills the store
        tracemalloc.start()
        try:
            for n in range(1, 41):
                job = client.submit_study(study)
                client.watch(job["id"])
                if n in (10, 40):
                    time.sleep(0.05)  # the handler thread hangs up
                    gc.collect()
                    traced = tracemalloc.get_traced_memory()[0]
                    fds = len(os.listdir("/proc/self/fd"))
                    if n == 10:
                        traced10, fds10 = traced, fds
        finally:
            tracemalloc.stop()
        per_job = (traced - traced10) / 30
        assert per_job <= 16 * 1024, f"{per_job / 1024:.1f} KB per job"
        assert fds - fds10 <= 2, (fds10, fds)
    finally:
        server.initiate_shutdown()
        server.server_close()
        thread.join(timeout=10)
