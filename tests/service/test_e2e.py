"""End-to-end acceptance: concurrent clients, exactly-once compute,
identical streams, bit-identical offline parity, inline telemetry."""

import threading

from repro.service import ServiceClient

from .conftest import slow_study, tiny_study


def _physics(result_dict):
    out = dict(result_dict)
    out.pop("meta", None)
    return out


class TestConcurrentClients:
    def test_two_clients_one_computation(self, service):
        """The ISSUE's CI demo, as a test: two clients submit the same
        study concurrently; the sweep is computed once; both stream
        identical telemetry; both results match ``Study.run``."""
        client, server = service
        study = slow_study()
        # a second, independent client connection (own sockets)
        other = ServiceClient(client.address)

        first = client.submit_study(study, client="alice")
        second = other.submit_study(study, client="bob")
        assert first["attached"] is False
        assert second["attached"] is True
        assert second["attached_to"] == first["id"]
        assert first["key"] == second["key"]

        streams = {}

        def follow(who, cli, job_id):
            streams[who] = list(cli.stream(job_id))

        threads = [
            threading.Thread(
                target=follow, args=("alice", client, first["id"])
            ),
            threading.Thread(
                target=follow, args=("bob", other, second["id"])
            ),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)

        # identical streamed telemetry, event for event
        assert streams["alice"] == streams["bob"]
        kinds = [e["event"] for e in streams["alice"]]
        assert kinds[0] == "start" and kinds[-1] == "done"
        assert kinds.count("point") == study.num_points()
        points = [e for e in streams["alice"] if e["event"] == "point"]
        assert all(e["source"] == "fresh" for e in points)

        # exactly once: the store holds each unique point exactly once
        stats = server.service.store.stats(scan_meta=False)
        assert stats["entries"] == study.num_points()

        # bit-identical to the offline path (modulo run bookkeeping)
        from repro.api import StudyResult

        done = streams["alice"][-1]
        service_result = StudyResult.from_dict(done["result"])
        offline = study.run(workers=1)
        assert _physics(service_result.to_dict()) == _physics(
            offline.to_dict()
        )

        # both jobs report completion against one shared execution
        for job_id in (first["id"], second["id"]):
            status = client.status(job_id)
            assert status["state"] == "done"
            assert status["points_done"] == study.num_points()


#: every event kind a stream may carry (``repro.job-event/v2``).
EVENT_KINDS = {
    "start", "point", "retry", "done", "failed", "cancelled", "detached",
}


class TestInlineChannels:
    def test_point_events_carry_their_channels(self, service):
        """A ``point`` event is the point's whole ``SimResult.to_dict()``
        — metric channels inline, however many rows — and equals the
        offline run's; the stream has one shape per result."""
        client, _ = service
        study = tiny_study()
        metrics = ("link_util", "misroute")
        job = client.submit_study(study, metrics=metrics)

        raw = list(client.stream(job["id"]))
        assert {e["event"] for e in raw} <= EVENT_KINDS
        assert {e["schema"] for e in raw} == {"repro.job-event/v2"}
        points = [e for e in raw if e["event"] == "point"]
        assert len(points) == study.num_points()

        offline = study.with_metrics(list(metrics)).run(workers=1)
        [curve] = offline.scenarios[0].curves
        by_rate = {p.rate: p.result.to_dict() for p in curve.points}
        for event in points:
            assert set(event) == {
                "schema", "seq", "event", "scenario", "curve", "rate",
                "source", "points_done", "points_total", "result",
            }
            assert event["result"] == by_rate[event["rate"]]
            channels = event["result"]["channels"]
            assert list(channels) == list(metrics)
            assert len(channels["link_util"]["rows"]) > 4

        # watch() hands consumers the events exactly as streamed
        seen = []
        result = client.watch(job["id"], on_event=seen.append)
        assert seen == raw
        assert _physics(result.to_dict()) == _physics(offline.to_dict())


class TestLateSubscriber:
    def test_attach_after_completion_replays_full_history(self, service):
        client, _ = service
        job = client.submit_study(tiny_study())
        first = list(client.stream(job["id"]))
        # a late reader of the same job sees the identical history
        late = list(client.stream(job["id"]))
        assert late == first
        # and an offset read resumes mid-stream
        tail = list(client.stream(job["id"], start=2))
        assert tail == first[2:]
