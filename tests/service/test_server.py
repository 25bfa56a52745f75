"""HTTP surface of the simulation service (real sockets, tiny studies)."""

import os
import time

import pytest

from repro.api import Scenario, Study
from repro.engine.spec import ENGINE_VERSION
from repro.service import (
    JobRequest,
    ResultStore,
    ServiceError,
    SimulationService,
    create_server,
)

from .conftest import slow_study, tiny_study


def _physics(result_dict):
    out = dict(result_dict)
    out.pop("meta", None)
    return out


class TestEndpoints:
    def test_health_and_stats(self, service):
        client, _ = service
        health = client.health()
        assert health["ok"] is True
        assert health["engine_version"] == ENGINE_VERSION
        stats = client.stats()
        assert stats["scheduler"]["jobs"] == 0
        assert stats["store"]["entries"] == 0

    def test_submit_watch_result(self, service):
        client, _ = service
        study = tiny_study()
        job = client.submit_study(study)
        assert job["state"] in ("queued", "running")
        assert job["points_total"] == study.num_points()
        events = []
        result = client.watch(job["id"], on_event=events.append)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "done"
        assert kinds.count("point") == study.num_points()
        # seq numbering is gapless
        assert [e["seq"] for e in events] == list(range(len(events)))
        # the result endpoint serves the same payload post-completion
        again = client.result(job["id"])
        assert again.to_dict() == result.to_dict()
        # bit-identical physics vs the offline path
        offline = study.run(workers=1)
        assert _physics(result.to_dict()) == _physics(offline.to_dict())

    def test_result_conflicts_while_running(self, service):
        client, _ = service
        job = client.submit_study(slow_study())
        with pytest.raises(ServiceError) as err:
            client.result(job["id"])
        assert err.value.code == 409
        client.cancel(job["id"])

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.status("j999999")
        assert err.value.code == 404
        with pytest.raises(ServiceError) as err:
            list(client.stream("j999999"))
        assert err.value.code == 404

    def test_bad_study_payload_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.submit(JobRequest(study={"nonsense": True}))
        assert err.value.code == 400

    def test_unknown_endpoint_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/api/nope")
        assert err.value.code == 404

    def test_jobs_listing(self, service):
        client, _ = service
        job = client.submit_study(tiny_study())
        client.watch(job["id"])
        jobs = client.jobs()
        assert [j["id"] for j in jobs] == [job["id"]]
        assert jobs[0]["state"] == "done"


class TestTenancy:
    def test_inflight_cap_is_429(self, tmp_path):
        import threading

        from repro.service import ServiceClient, create_server

        server = create_server(
            host="127.0.0.1", port=0, cache_dir=tmp_path,
            max_inflight_per_client=1,
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}"
        )
        try:
            first = client.submit_study(slow_study(), client="capped")
            with pytest.raises(ServiceError) as err:
                client.submit_study(
                    tiny_study(seed=99), client="capped"
                )
            assert err.value.code == 429
            # other clients are unaffected
            other = client.submit_study(
                tiny_study(seed=98), client="free"
            )
            client.cancel(first["id"])
            client.watch(other["id"])
        finally:
            server.initiate_shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_cancel_mid_run_stops_at_point_boundary(self, service):
        client, _ = service
        job = client.submit_study(slow_study())
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(job["id"])["points_done"] >= 1:
                break
            time.sleep(0.05)
        else:
            pytest.fail("job never completed a point")
        client.cancel(job["id"])
        status = client.status(job["id"])
        assert status["state"] == "cancelled"
        with pytest.raises(ServiceError, match="cancelled"):
            client.watch(job["id"])
        final = client.status(job["id"])
        assert final["points_done"] < final["points_total"]
        # the executor survives and takes new work
        ok = client.submit_study(tiny_study())
        client.watch(ok["id"])

    def test_completed_points_of_cancelled_job_stay_cached(self, service):
        client, server = service
        job = client.submit_study(slow_study())
        while client.status(job["id"])["points_done"] < 1:
            time.sleep(0.05)
        client.cancel(job["id"])
        done = client.status(job["id"])["points_done"]
        assert server.service.store.stats(scan_meta=False)[
            "entries"
        ] >= done

    def test_cancelled_job_leaves_only_whole_entries(self, service):
        """A cancel mid-run needs no cleanup: the store holds parseable
        entries and no temp file once the executor has moved on."""
        import json

        from repro.network.stats import SimResult

        client, server = service
        job = client.submit_study(slow_study())
        while client.status(job["id"])["points_done"] < 1:
            time.sleep(0.05)
        client.cancel(job["id"])
        # the executor is serial: once the next job is done, the
        # cancelled one has let go of the store
        client.watch(client.submit_study(tiny_study())["id"])
        root = server.service.store.root
        assert list(root.glob(".tmp-*")) == []
        for path in root.glob("*.json"):
            SimResult.from_dict(json.loads(path.read_text())["result"])


class TestWarmResubmission:
    def test_resubmit_replays_from_store(self, service):
        client, _ = service
        study = tiny_study()
        first = client.submit_study(study)
        result1 = client.watch(first["id"])
        events = []
        second = client.submit_study(study)
        result2 = client.watch(second["id"], on_event=events.append)
        status = client.status(second["id"])
        assert status["cache_hits"] == status["points_total"]
        sources = {
            e["source"] for e in events if e["event"] == "point"
        }
        assert sources == {"cache"}
        assert result2.to_dict()["scenarios"] == (
            result1.to_dict()["scenarios"]
        )

    def test_done_event_reports_store_stats(self, service):
        client, _ = service
        job = client.submit_study(tiny_study())
        done = [
            e
            for e in client.stream(job["id"])
            if e["event"] == "done"
        ]
        assert len(done) == 1
        cache = done[0]["cache"]
        assert cache["name"] == "cache_stats"
        counters = dict(cache["rows"])
        assert counters["entries"] == 2.0


class TestSharedPoints:
    def test_aliased_curves_run_once(self, tmp_path):
        """Two scenarios hold one spec under different labels: each key
        is simulated once and every point still streams."""
        import threading

        from repro.api import Scenario, Study
        from repro.service import ServiceClient, create_server

        spec = tiny_study().scenarios[0].specs[0]
        study = Study(
            name="alias", title="aliased curves",
            scenarios=(
                Scenario(
                    name="a", title="a", specs=(spec.with_label("Ring"),)
                ),
                Scenario(
                    name="b", title="b",
                    specs=(spec.with_label("Healthy"),),
                ),
            ),
        )
        server = create_server(
            host="127.0.0.1", port=0, cache_dir=tmp_path / "store",
            state_dir=tmp_path / "state", default_workers=1,
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}"
        )

        def shared():
            return sum(
                sample["value"]
                for metric in client.metrics()["metrics"]
                if metric["name"] == "engine_points_total"
                for sample in metric["samples"]
                if sample["labels"].get("source") == "shared"
            )

        try:
            before = shared()
            job = client.submit_study(study)
            events = []
            result = client.watch(job["id"], on_event=events.append)
            status = client.status(job["id"])
            # the registry is process-global: the job's own delta
            shared_points = shared() - before
        finally:
            server.initiate_shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert status["points_done"] == status["points_total"] == 4
        ring, healthy = (scn.curves[0] for scn in result.scenarios)
        assert (ring.label, healthy.label) == ("Ring", "Healthy")
        assert [r.to_dict() for r in ring.results] == [
            r.to_dict() for r in healthy.results
        ]
        assert shared_points == 2  # Healthy's keys came from Ring
        assert len([e for e in events if e["event"] == "point"]) == 4
        [done] = [e for e in events if e["event"] == "done"]
        assert dict(done["cache"]["rows"])["entries"] == 2


class TestSharedDirectory:
    def test_a_second_server_on_the_directory_replays_every_point(
        self, tmp_path
    ):
        """Servers share a store directory with no coordination: what
        one computed, the next one replays as ``cache``."""
        import threading

        from repro.service import ServiceClient, create_server

        def run_on_fresh_server():
            server = create_server(
                host="127.0.0.1", port=0, cache_dir=tmp_path / "store",
                default_workers=1,
            )
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}"
            )
            try:
                events = []
                job = client.submit_study(tiny_study())
                result = client.watch(job["id"], on_event=events.append)
            finally:
                server.initiate_shutdown()
                server.server_close()
                thread.join(timeout=10)
            sources = [e["source"] for e in events if e["event"] == "point"]
            return result, sources

        first, cold = run_on_fresh_server()
        second, warm = run_on_fresh_server()
        assert cold == ["fresh", "fresh"] and warm == ["cache", "cache"]
        assert _physics(second.to_dict()) == _physics(first.to_dict())


class TestOldLockFiles:
    def test_a_live_pid_lock_file_does_not_hold_a_job(self, service):
        """Nothing reads the ``<key>.lock`` files an older version
        left in a store directory: a job whose keys all carry one, held
        by a live pid, simulates its points at once."""
        import os

        from repro.engine.spec import point_key

        client, server = service
        study = tiny_study()
        root = server.service.store.root
        [spec] = study.scenarios[0].specs
        for rate in spec.rates:
            (root / f"{point_key(spec, rate)}.lock").write_text(
                f"{os.getpid()} {time.time():.3f}"
            )
        t0 = time.monotonic()
        events = []
        client.watch(client.submit_study(study)["id"],
                     on_event=events.append)
        assert time.monotonic() - t0 < 10
        sources = [e["source"] for e in events if e["event"] == "point"]
        assert sources == ["fresh"] * len(spec.rates)
        [done] = [e for e in events if e["event"] == "done"]
        assert dict(done["cache"]["rows"])["entries"] == len(spec.rates)


class TestEventStreamTransport:
    def test_warm_jobs_leave_no_reset_or_traceback(
        self, service, capsys, caplog, monkeypatch
    ):
        """The client reads a stream to its terminal chunk before
        hanging up and the server does not reuse a streaming
        connection, so neither side ever touches a reset socket: 30
        warm jobs print no ``socketserver`` traceback and log no
        warning; accepted sockets have Nagle off (a response is a few
        small writes, and the last used to wait ~40 ms on the client's
        delayed ACK)."""
        import logging
        import socket

        client, server = service
        nodelay = []
        handler = server.RequestHandlerClass
        setup = handler.setup

        def recording_setup(self):
            setup(self)
            nodelay.append(
                self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        monkeypatch.setattr(handler, "setup", recording_setup)
        study = tiny_study()
        first = client.watch(client.submit_study(study)["id"])  # fills the store
        with caplog.at_level(logging.DEBUG, logger="repro.service"):
            for _ in range(30):
                job = client.submit_study(study)
                assert client.watch(job["id"]).to_dict()[
                    "scenarios"
                ] == first.to_dict()["scenarios"]
        # handler threads finish their connection after the client
        # returned; give the last one a beat
        time.sleep(0.2)
        assert "Exception occurred" not in capsys.readouterr().err
        assert [
            r.getMessage()
            for r in caplog.records
            if r.levelno >= logging.WARNING
        ] == []
        assert len(nodelay) >= 62 and all(nodelay)

    def test_stream_ends_on_the_terminal_event_not_the_state(
        self, service, caplog, monkeypatch
    ):
        """``state`` turns terminal before the journal write and the
        terminal event.  A subscriber that loops inside that window
        waits for the event; it used to see a finished execution with
        nothing left, end the stream, and make the client reconnect."""
        import logging

        from repro.service.jobs import Execution

        notify = Execution._notify

        def slow_notify(self, state):
            notify(self, state)
            if state == "done":
                time.sleep(0.02)  # a slow journal fsync

        monkeypatch.setattr(Execution, "_notify", slow_notify)
        client, _ = service
        with caplog.at_level(logging.DEBUG, logger="repro.service"):
            for _ in range(5):
                job = client.submit_study(tiny_study())
                assert list(client.stream(job["id"]))[-1]["event"] == "done"
        assert [
            r.getMessage()
            for r in caplog.records
            if "reconnecting" in r.getMessage()
        ] == []

    def test_a_batch_of_events_is_one_chunk(self, service):
        """A late subscriber's whole history is one ``wait_events``
        batch, so it arrives as one chunk then the terminal chunk, on
        a connection the server announces it will close."""
        import http.client
        import json

        client, _ = service
        job = client.submit_study(tiny_study())
        history = list(client.stream(job["id"]))

        conn = http.client.HTTPConnection(client.host, client.port)
        try:
            conn.request("GET", f"/api/jobs/{job['id']}/events")
            resp = conn.getresponse()
            assert resp.getheader("Connection") == "close"
            assert resp.getheader("Transfer-Encoding") == "chunked"
            raw = resp.fp  # below http.client's chunk decoding
            size = int(raw.readline(), 16)
            body = raw.read(size)
            assert raw.readline() == b"\r\n"
            assert raw.readline() == b"0\r\n"  # terminal chunk next
            assert raw.readline() == b"\r\n"
            assert raw.read() == b""  # and the server hung up
        finally:
            conn.close()
        events = [json.loads(line) for line in body.splitlines()]
        assert events == history and len(events) >= 4


class TestHostileInputs:
    """Malformed cursors and bodies get a 400 with a JSON error — never
    a handler traceback and a dropped connection."""

    @staticmethod
    def _raw(client, method, path, body=None):
        import http.client
        import json

        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()

    @pytest.mark.parametrize("cursor", ["abc", "-2"])
    def test_bad_event_cursor_is_400(self, service, capsys, cursor):
        client, _ = service
        job = client.submit_study(tiny_study())
        client.watch(job["id"])
        code, body = self._raw(
            client, "GET", f"/api/jobs/{job['id']}/events?from={cursor}"
        )
        assert code == 400 and "'from'" in body["error"]
        assert "Exception occurred" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, hint",
        [
            ("[1, 2]", "job request must be a JSON object"),
            ('{"study": {"name": "x", "scenarios": [1]}}',
             "scenario must be a JSON object"),
            (None, "workers must be a positive integer, got -3"),
        ],
    )
    def test_bad_job_body_is_400(self, service, capsys, payload, hint):
        import json

        client, _ = service
        if payload is None:  # a valid study with a negative pool size
            payload = json.dumps(
                {"study": tiny_study().to_data(), "workers": -3}
            )
        code, body = self._raw(client, "POST", "/api/jobs", payload)
        assert code == 400 and hint in body["error"]
        assert "Exception occurred" not in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [-0.5, float("nan"), float("inf")])
    def test_bad_rate_is_400(self, service, capsys, rate):
        """A rate the kernel cannot run is refused at the door, not
        accepted and then failed after every supervised attempt."""
        import json

        client, _ = service
        study = tiny_study().to_data()
        study["scenarios"][0]["specs"][0]["rates"] = [rate]
        code, body = self._raw(
            client, "POST", "/api/jobs", json.dumps({"study": study})
        )
        assert code == 400
        assert f"rate must be a finite number >= 0, got {rate}" in (
            body["error"]
        )
        assert "Exception occurred" not in capsys.readouterr().err


class TestDefaultWorkers:
    """Built without ``default_workers``, the service resolves a job's
    workers as ``run`` does: ``REPRO_WORKERS``, else the CPU count,
    clamped to the job's chunks and the CPUs."""

    @pytest.fixture()
    def resolved(self, monkeypatch):
        """Each ``(workers, chunks, pool size)`` the engine resolves."""
        from repro.engine import executor

        calls = []
        real = executor._resolve_workers

        def spy(workers, chunks):
            calls.append((workers, chunks, real(workers, chunks)))
            return calls[-1][2]

        monkeypatch.setattr(executor, "_resolve_workers", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        return calls

    def test_a_served_job_resolves_like_run(self, tmp_path, resolved):
        specs = tuple(
            tiny_study(rates=(0.1, 0.2), label=label, seed=seed)
            .scenarios[0].specs[0]
            for label, seed in (("a", 3), ("b", 5))
        )
        study = Study.wrap(Scenario(name="two", specs=specs, title="two"))
        study.run()  # as `repro-dragonfly run` does without --workers
        service = SimulationService(ResultStore(tmp_path / "store"))
        try:
            assert service.default_workers is None
            job, _ = service.submit(JobRequest(study=study.to_data()))
            deadline = time.time() + 120
            while service.status(job.id)["state"] not in ("done", "failed"):
                assert time.time() < deadline
                time.sleep(0.02)
            assert service.status(job.id)["state"] == "done"
        finally:
            service.shutdown(wait=True)
        by_run, by_job = resolved
        assert by_job == by_run
        workers, chunks, pool = by_run
        assert workers is None and pool == min(4, chunks) > 1

    def test_create_server_and_serve_default_to_none(
        self, tmp_path, monkeypatch
    ):
        server = create_server(port=0, cache_dir=tmp_path / "store")
        try:
            assert server.service.default_workers is None
        finally:  # never served: no serve_forever loop to stop
            server.service.shutdown(wait=True)
            server.server_close()

        import repro.obs
        import repro.service
        from repro import cli

        seen = {}

        def fake_server(**kwargs):
            seen.update(kwargs)
            raise ValueError("not serving in a test")

        monkeypatch.setattr(repro.service, "create_server", fake_server)
        monkeypatch.setattr(repro.obs, "setup_logging", lambda **kw: None)
        assert cli.main(["serve", "--cache-dir", str(tmp_path)]) == 2
        assert seen["default_workers"] is None
