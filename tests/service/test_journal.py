"""Durability layer: write-ahead journal, torn-tail tolerance, and
in-process restart (journal replay -> resumed / restored jobs)."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import (
    EventLog,
    JobJournal,
    JobRequest,
    ResultStore,
    RetryPolicy,
    SimulationService,
    read_ndjson_tolerant,
)

from .conftest import tiny_study

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _physics(result_dict):
    out = dict(result_dict)
    out.pop("meta", None)
    return out


def _request(**kw):
    return JobRequest(study=tiny_study().to_data(), **kw)


def _wait_terminal(service, job_id, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = service.status(job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached a terminal state")


class TestTolerantReader:
    def test_clean_file_roundtrips(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_text('{"a": 1}\n{"a": 2}\n')
        records, torn = read_ndjson_tolerant(path)
        assert records == [{"a": 1}, {"a": 2}]
        assert torn is False

    def test_missing_file_is_empty(self, tmp_path):
        records, torn = read_ndjson_tolerant(tmp_path / "absent")
        assert records == [] and torn is False

    def test_torn_tail_truncated_and_warned(self, tmp_path, caplog):
        path = tmp_path / "log.ndjson"
        path.write_text('{"a": 1}\n{"a": 2}\n{"a": 3, "b')
        with caplog.at_level("WARNING", logger="repro.service"):
            records, torn = read_ndjson_tolerant(path)
        assert records == [{"a": 1}, {"a": 2}]
        assert torn is True
        assert "torn tail" in caplog.text
        # the file is physically clean again: next append glues safely
        assert path.read_text() == '{"a": 1}\n{"a": 2}\n'
        records, torn = read_ndjson_tolerant(path)
        assert torn is False

    def test_decodable_line_without_newline_is_dropped(self, tmp_path):
        # the newline never landed: a crashed appender's *next* write
        # would have glued onto this line, so it cannot be trusted
        path = tmp_path / "log.ndjson"
        path.write_text('{"a": 1}\n{"a": 2}')
        records, torn = read_ndjson_tolerant(path)
        assert records == [{"a": 1}]
        assert torn is True
        assert path.read_text() == '{"a": 1}\n'

    def test_sigkill_mid_append_leaves_replayable_log(self, tmp_path):
        """Regression: SIGKILL a process busy appending to an event
        log; what reached its file must replay as a clean prefix,
        never raise."""
        script = (
            "import sys\n"
            "from repro.service.journal import EventLog\n"
            "log = EventLog(sys.argv[1])\n"
            "i = 0\n"
            "while True:\n"
            "    log.append({'i': i, 'pad': 'x' * 512})\n"
            "    i += 1\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        path = tmp_path / "e.ndjson"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(path)], env=env
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                if path.exists() and path.stat().st_size > 4096:
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("appender never produced output")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        records, _ = read_ndjson_tolerant(path, label="event log")
        assert len(records) > 0
        assert [r["i"] for r in records] == list(range(len(records)))
        # and the truncated file now parses clean
        assert read_ndjson_tolerant(path)[1] is False


class TestEventLog:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "e.ndjson"
        log = EventLog(path)
        log.append({"event": "start", "seq": 0})
        log.append({"event": "done", "seq": 1})
        assert log.close() is True
        events, torn = read_ndjson_tolerant(path, label="event log")
        assert [e["event"] for e in events] == ["start", "done"]
        assert torn is False

    def test_fresh_truncates_previous_run(self, tmp_path):
        path = tmp_path / "e.ndjson"
        old = EventLog(path)
        old.append({"seq": 0})
        old.close()
        log = EventLog(path)
        log.append({"seq": 0, "new": True})
        log.close()
        events, _ = read_ndjson_tolerant(path, label="event log")
        assert events == [{"seq": 0, "new": True}]

    def test_torn_log_reports_it_at_close(self, tmp_path, monkeypatch):
        from repro.service import chaos

        monkeypatch.setenv("REPRO_CHAOS", "torn-event:after=2")
        chaos.reset()
        try:
            path = tmp_path / "e.ndjson"
            log = EventLog(path)
            for seq in range(3):
                log.append({"seq": seq})
            assert log.close() is False  # the file misses lines
        finally:
            monkeypatch.delenv("REPRO_CHAOS")
            chaos.reset()
        assert len(EventLog.read_lines(path)) == 1  # torn tail dropped
        events, torn = read_ndjson_tolerant(path, label="event log")
        assert events == [{"seq": 0}] and torn is True


class TestJobJournal:
    def test_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        req = _request(client="alice", priority=2)
        journal.record_job("j000001", "key-a", req)
        journal.record_state("key-a", "running")
        journal.record_job("j000002", "key-a", req)
        journal.record_cancel("j000002")
        journal.record_state("key-a", "failed", error="boom")
        view = journal.replay()
        assert set(view.jobs) == {"j000001", "j000002"}
        assert view.jobs["j000001"].key == "key-a"
        assert view.jobs["j000001"].cancelled is False
        assert view.jobs["j000002"].cancelled is True
        assert view.jobs["j000001"].request.client == "alice"
        assert view.states == {"key-a": "failed"}
        assert view.errors == {"key-a": "boom"}
        journal.close()

    def test_replay_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = JobJournal(path)
        journal.record_job("j000001", "key-a", _request())
        journal.close()
        with open(path, "a") as fh:  # crash mid-append
            fh.write('{"rec": "state", "key": "key-a", "sta')
        view = JobJournal(path).replay()
        assert view.torn is True
        assert set(view.jobs) == {"j000001"}
        assert view.states == {}

    def test_compact_preserves_net_state(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = JobJournal(path)
        req = _request()
        journal.record_job("j000001", "key-a", req)
        for state in ("running", "done"):
            journal.record_state("key-a", state)
        journal.record_state("key-a", "running")  # churn
        journal.record_state("key-a", "done")
        before = journal.replay()
        journal.compact(before)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert len(lines) == 2  # one job record + one net state
        after = JobJournal(path).replay()
        assert after.states == before.states
        assert set(after.jobs) == set(before.jobs)
        # the journal stays appendable after compaction
        journal.record_state("key-a", "running")
        assert JobJournal(path).replay().states == {"key-a": "running"}
        journal.close()

    def test_records_name_their_execution(self, tmp_path):
        """Jobs ride executions by id, so two executions of one key keep
        their own states; records that name no execution (older trees)
        stand for their key's execution, and compaction names it."""
        path = tmp_path / "journal.ndjson"
        req = _request()
        key = "ab" * 32
        with open(path, "w") as fh:  # an older tree's records
            for record in (
                {"rec": "job", "id": "j000001", "key": key,
                 "request": req.to_data()},
                {"rec": "state", "key": key, "state": "done"},
            ):
                fh.write(json.dumps(record) + "\n")
        journal = JobJournal(path)
        journal.record_job("j000002", key, req, execution="j000002")
        journal.record_job("j000003", key, req, execution="j000002")
        journal.record_state("j000002", "cancelled")
        view = journal.replay()
        riding = {job.id: job.execution for job in view.jobs.values()}
        assert riding == {
            "j000001": key, "j000002": "j000002", "j000003": "j000002"
        }
        assert view.states == {key: "done", "j000002": "cancelled"}
        journal.compact(view)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert all("execution" in record for record in records)
        assert all("key" not in r for r in records if r["rec"] == "state")
        after = JobJournal(path).replay()
        assert after.states == view.states
        assert {j.id: j.execution for j in after.jobs.values()} == riding
        journal.close()


class TestRestart:
    def _service(self, store_dir, state_dir, start_executor=True):
        return SimulationService(
            ResultStore(store_dir),
            state_dir=state_dir,
            retry=RetryPolicy(base_delay=0.01, max_delay=0.05),
            start_executor=start_executor,
        )

    def test_queued_job_survives_restart_and_completes(self, tmp_path):
        """A job acknowledged but never started (the 'crash before the
        executor got there' case) is re-enqueued on restart, keeps its
        id, and finishes bit-identical to an offline run."""
        store_dir = tmp_path / "store"
        state_dir = tmp_path / "state"
        first = self._service(store_dir, state_dir, start_executor=False)
        job, attached = first.submit(_request())
        assert attached is False
        assert first.status(job.id)["state"] == "queued"
        # no shutdown: a crash journals nothing further

        second = self._service(store_dir, state_dir)
        assert second.restored_jobs == 1
        assert second.resumed_executions == 1
        status = _wait_terminal(second, job.id)
        assert status["state"] == "done"
        assert status["resumed"] is True
        result = second.job(job.id).execution.result
        offline = tiny_study().run(workers=1)
        assert _physics(result.to_dict()) == _physics(offline.to_dict())
        second.shutdown()

    def test_restored_job_ids_do_not_collide(self, tmp_path):
        store_dir = tmp_path / "store"
        state_dir = tmp_path / "state"
        first = self._service(store_dir, state_dir, start_executor=False)
        job, _ = first.submit(_request())
        second = self._service(store_dir, state_dir, start_executor=False)
        other = JobRequest(
            study=tiny_study(seed=11, label="other").to_data()
        )
        new_job, _ = second.submit(other)
        assert new_job.id != job.id
        assert int(new_job.id.lstrip("j")) > int(job.id.lstrip("j"))

    def test_terminal_job_restored_readonly(self, tmp_path):
        """A finished job keeps answering status / events / result
        across a restart, replayed from its on-disk event log."""
        store_dir = tmp_path / "store"
        state_dir = tmp_path / "state"
        first = self._service(store_dir, state_dir)
        job, _ = first.submit(_request())
        _wait_terminal(first, job.id)
        done_result = first.job(job.id).execution.result
        done_events = first.job(job.id).execution.events_snapshot()
        first.shutdown()

        second = self._service(store_dir, state_dir)
        assert second.resumed_executions == 0  # nothing to re-run
        status = second.status(job.id)
        assert status["state"] == "done"
        restored = second.job(job.id).execution
        assert restored.events_snapshot() == done_events
        assert _physics(restored.result.to_dict()) == _physics(
            done_result.to_dict()
        )
        second.shutdown()

    def test_v1_event_log_still_restores(self, tmp_path):
        """``data/state_v1.tar.gz`` is a ``--state-dir`` written by the
        last tree that split large channels out of ``point`` events
        into separate frame lines (``repro.job-event/v1``; one probed
        point, frames forced at 4 rows).  Its finished job still
        restores: status, the raw event replay and ``/result``."""
        import shutil
        import threading

        from repro.service import ServiceClient, create_server

        shutil.unpack_archive(
            Path(__file__).parent / "data" / "state_v1.tar.gz", tmp_path
        )
        server = create_server(
            port=0,
            cache_dir=tmp_path / "store",
            state_dir=tmp_path / "state",
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}"
            )
            assert server.service.restored_jobs == 1
            status = client.status("j000001")
            assert status["state"] == "done"
            assert status["points_done"] == 1
            events = list(client.stream("j000001"))
            assert {e["schema"] for e in events} == {"repro.job-event/v1"}
            kinds = [e["event"] for e in events]
            assert kinds[:2] == ["start", "point"]
            assert kinds[-1] == "done"
            assert len(set(kinds[2:-1])) == 1  # the v1 frame lines
            result = client.result("j000001")
            [point] = result.scenarios[0].curves[0].points
            assert point.channel("link_util").num_rows > 4
            assert client.watch("j000001").to_dict() == result.to_dict()
        finally:
            server.initiate_shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_retired_error_state_reruns_with_a_warning(
        self, tmp_path, caplog
    ):
        """A ``--state-dir`` from a tree that still had the ``error``
        state: the journal's last word on an execution is a hand-written
        ``error`` record.  Not terminal, so the restart re-runs it to
        ``done`` — after one warning naming the execution and the
        state."""
        store_dir = tmp_path / "store"
        state_dir = tmp_path / "state"
        first = self._service(store_dir, state_dir, start_executor=False)
        job, _ = first.submit(_request())
        execution = first.job(job.id).execution
        key = execution.key
        first.journal.close()  # the crash: nothing journaled after this
        with open(state_dir / "journal.ndjson", "a") as fh:
            fh.write(
                json.dumps(
                    {
                        "rec": "state",
                        "execution": execution.id,
                        "state": "error",
                        "error": "Traceback (most recent call last): ...",
                    }
                )
                + "\n"
            )

        with caplog.at_level("WARNING", logger="repro.service"):
            second = self._service(store_dir, state_dir)
        warned = [
            rec.getMessage()
            for rec in caplog.records
            if "unknown state" in rec.getMessage()
        ]
        assert warned == [
            f"journal: execution {key[:12]} recorded unknown state "
            "'error'; re-running it"
        ]
        assert second.resumed_executions == 1
        assert _wait_terminal(second, job.id)["state"] == "done"
        second.shutdown()

    def test_v1_state_dir_restores_again_after_compaction(self, tmp_path):
        """The first restart of ``data/state_v1.tar.gz`` compacts its
        journal into records that name the execution (its key, the
        name of its log); the next restart restores the same job from
        the same log."""
        import shutil

        shutil.unpack_archive(
            Path(__file__).parent / "data" / "state_v1.tar.gz", tmp_path
        )
        seen = []
        for _ in range(2):
            service = self._service(tmp_path / "store", tmp_path / "state")
            try:
                assert service.restored_jobs == 1
                assert service.status("j000001")["state"] == "done"
                execution = service.job("j000001").execution
                seen.append(
                    (execution.events_snapshot(), execution.result_data())
                )
            finally:
                service.shutdown()
        assert seen[0] == seen[1] and seen[0][1] is not None
        journal = tmp_path / "state" / "journal.ndjson"
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert {r["execution"] for r in records} == {records[0]["key"]}

    def test_unsafe_execution_id_is_dropped(self, tmp_path, caplog):
        """An execution id that is neither a job id nor an execution key
        never names a file: the restart drops its job with a warning
        and leaves the file the id points at alone."""
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        outside = tmp_path / "outside.ndjson"
        blob = b'{"event": "start"}\n{"torn'
        outside.write_bytes(blob)
        req = _request()
        with open(state_dir / "journal.ndjson", "w") as fh:
            for record in (
                {"rec": "job", "id": "j000001", "key": req.execution_key(),
                 "request": req.to_data(), "execution": "../../outside"},
                {"rec": "state", "execution": "../../outside",
                 "state": "running"},
            ):
                fh.write(json.dumps(record) + "\n")
        with caplog.at_level("WARNING", logger="repro.service"):
            service = self._service(tmp_path / "store", state_dir)
        try:
            assert service.restored_jobs == 0
            with pytest.raises(KeyError):
                service.status("j000001")
        finally:
            service.shutdown()
        assert outside.read_bytes() == blob
        assert "neither a job id nor an execution key" in caplog.text

    def test_cancelled_queued_job_stays_cancelled(self, tmp_path):
        store_dir = tmp_path / "store"
        state_dir = tmp_path / "state"
        first = self._service(store_dir, state_dir, start_executor=False)
        job, _ = first.submit(_request())
        first.cancel(job.id)

        second = self._service(store_dir, state_dir, start_executor=False)
        assert second.status(job.id)["state"] == "cancelled"
        assert second.resumed_executions == 0

    def test_interrupted_running_job_resumes_from_store(self, tmp_path):
        """The mid-sweep crash: state 'running' journaled, one point
        already in the store.  The restart re-enqueues the execution
        and the finished point replays as a cache hit."""
        store_dir = tmp_path / "store"
        state_dir = tmp_path / "state"
        first = self._service(store_dir, state_dir)
        job, _ = first.submit(_request())
        _wait_terminal(first, job.id)
        first.shutdown()
        assert len(ResultStore(store_dir)) == 2  # both points landed

        # forge the crash: rewrite the journal as if the terminal
        # state never landed (killed while 'running')
        journal_path = state_dir / "journal.ndjson"
        lines = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
            if line
        ]
        kept = [
            rec
            for rec in lines
            if not (
                rec.get("rec") == "state"
                and rec.get("state") == "done"
            )
        ]
        journal_path.write_text(
            "".join(json.dumps(rec) + "\n" for rec in kept)
        )

        second = self._service(store_dir, state_dir)
        assert second.resumed_executions == 1
        status = _wait_terminal(second, job.id)
        assert status["state"] == "done"
        assert status["cache_hits"] == 2  # fully replayed, zero re-sim
        result = second.job(job.id).execution.result
        offline = tiny_study().run(workers=1)
        assert _physics(result.to_dict()) == _physics(offline.to_dict())
        second.shutdown()
