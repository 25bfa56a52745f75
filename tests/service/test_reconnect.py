"""Stream resilience: dropped connections are survived transparently
via the ``?from=N`` replay cursor — gapless, exactly-once, bit-exact."""

import pytest

from repro.service import chaos

from .conftest import tiny_study


def _physics(result_dict):
    out = dict(result_dict)
    out.pop("meta", None)
    return out


@pytest.fixture()
def drop_stream(monkeypatch):
    """Arm the server-side drop-stream fault after the job completes
    (so the run itself is clean, only the streams are torn)."""

    def arm(directives):
        monkeypatch.setenv("REPRO_CHAOS", directives)
        chaos.reset()

    yield arm
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()


class TestStreamReconnect:
    def test_dropped_stream_reassembles_gapless(
        self, service, drop_stream
    ):
        """The server tears the connection down every third event; the
        client reconnects from its cursor and the reassembled history
        is gapless and bit-exact against the server's event list."""
        client, server = service
        job = client.submit_study(tiny_study())
        clean = list(client.stream(job["id"]))  # runs to completion
        assert clean[-1]["event"] == "done"

        drop_stream("drop-stream:every=3")
        events = list(client.stream(job["id"]))
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events == clean
        snapshot = server.service.job(job["id"]).execution.events_snapshot()
        assert events == snapshot

    def test_watch_survives_drops_with_probed_points(
        self, service, drop_stream
    ):
        """watch() over a torn stream of channel-carrying point events
        still delivers each event once and returns the exact result."""
        client, _ = service
        study = tiny_study()
        job = client.submit_study(study, metrics=("link_util",))
        clean = []
        baseline = client.watch(job["id"], on_event=clean.append)

        drop_stream("drop-stream:every=4")
        torn = []
        result = client.watch(job["id"], on_event=torn.append)
        assert torn == clean
        assert _physics(result.to_dict()) == _physics(
            baseline.to_dict()
        )
        points = [e for e in torn if e["event"] == "point"]
        assert len(points) == study.num_points()
        for point in points:
            assert "link_util" in point["result"]["channels"]

        offline = study.with_metrics(["link_util"]).run(workers=1)
        assert _physics(result.to_dict()) == _physics(offline.to_dict())

    def test_drop_mid_live_run_still_terminates(
        self, service, drop_stream
    ):
        """Drops while the job is still computing: the reconnecting
        stream ends at the terminal event exactly once."""
        client, _ = service
        drop_stream("drop-stream:every=3")
        job = client.submit_study(tiny_study())
        events = list(client.stream(job["id"]))
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert [e["event"] for e in events].count("done") == 1
        assert events[-1]["event"] == "done"

    def test_reconnect_budget_exhausts(self, service, drop_stream):
        """A server that drops before every event defeats the budget:
        the stream gives up (instead of looping forever) and watch()
        surfaces the missing terminal event as an error."""
        from repro.service import ServiceClient, ServiceError

        client, _ = service
        job = client.submit_study(tiny_study())
        list(client.stream(job["id"]))  # let it finish cleanly

        drop_stream("drop-stream")  # fire on every check
        hostile = ServiceClient(
            client.address, retries=1, backoff=0.001, reconnects=2
        )
        assert list(hostile.stream(job["id"])) == []  # bounded retries
        with pytest.raises(ServiceError, match="without a terminal"):
            hostile.watch(job["id"])
