"""Service CLI verbs driven through ``main()`` against a live server."""

import json
import threading

import pytest

from repro.cli import _live_metrics_line, main
from repro.service import ResultStore, chaos
from repro.service.jobs import Execution

from .conftest import tiny_study


@pytest.fixture()
def served(service, tmp_path):
    """(client, server, argv tail selecting this server)."""
    client, server = service
    return client, server, ["--server", client.address]


def _study_file(tmp_path) -> str:
    """Path for the input study — OUTSIDE the store root (the service
    fixture uses ``tmp_path`` as its cache dir, and any ``*.json``
    there would be counted as a store entry)."""
    inputs = tmp_path / "inputs"
    inputs.mkdir(exist_ok=True)
    return str(inputs / "study.json")


def _submit_id(capsys, served, study_path, extra=()):
    _, _, server_args = served
    rc = main(["submit", study_path, *extra, *server_args])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out.strip().splitlines()[-1], captured


class TestSubmitWatch:
    def test_submit_prints_bare_job_id(self, capsys, served, tmp_path):
        study_path = _study_file(tmp_path)
        tiny_study().save(study_path)
        job_id, captured = _submit_id(capsys, served, study_path)
        # stdout is exactly the id, so JOB=$(submit ...) works in shell
        assert captured.out.strip() == job_id
        assert job_id.startswith("j")
        assert "point(s)" in captured.err

    def test_watch_streams_and_writes_results(
        self, capsys, served, tmp_path
    ):
        client, _, server_args = served
        study_path = _study_file(tmp_path)
        tiny_study().save(study_path)
        job_id, _ = _submit_id(capsys, served, study_path)
        out_file = tmp_path / "result.json"
        rc = main(
            ["watch", job_id, "--out", str(out_file), *server_args]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "tiny service study" in captured.out
        assert f"[{tiny_study().num_points()}/" in captured.err
        saved = json.loads(out_file.read_text())
        assert saved["name"] == "tiny"

    def test_submit_watch_combined(self, capsys, served, tmp_path):
        _, _, server_args = served
        study_path = _study_file(tmp_path)
        tiny_study().save(study_path)
        rc = main(["submit", study_path, "--watch", *server_args])
        captured = capsys.readouterr()
        assert rc == 0
        assert "tiny service study" in captured.out

    def test_watch_unknown_job_fails_fast(self, capsys, served):
        _, _, server_args = served
        assert main(["watch", "j999999", *server_args]) == 2
        assert "error" in capsys.readouterr().err

    def test_status_lists_jobs(self, capsys, served, tmp_path):
        _, _, server_args = served
        study_path = _study_file(tmp_path)
        tiny_study().save(study_path)
        job_id, _ = _submit_id(capsys, served, study_path)
        main(["watch", job_id, *server_args])
        capsys.readouterr()
        assert main(["status", *server_args]) == 0
        listing = capsys.readouterr().out
        assert job_id in listing and "done" in listing
        assert main(["status", job_id, *server_args]) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["id"] == job_id
        assert detail["state"] == "done"

    def test_unreachable_server_is_an_error(self, capsys):
        rc = main(
            ["status", "--server", "http://127.0.0.1:1"]  # nothing there
        )
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err


class TestCacheVerb:
    def test_stats_reports_mix_and_warns_on_stale(
        self, capsys, served, tmp_path
    ):
        client, server, server_args = served
        study_path = _study_file(tmp_path)
        tiny_study().save(study_path)
        job_id, _ = _submit_id(capsys, served, study_path)
        main(["watch", job_id, *server_args])
        capsys.readouterr()
        cache_dir = str(server.service.store.root)
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries            2" in out
        assert "v3: 2" in out or "version mix" in out
        assert "WARNING" not in out
        # plant a stale-version entry and expect the warning
        store = ResultStore(cache_dir)
        payload = json.loads(
            next(iter(store.root.glob("*.json"))).read_text()
        )
        payload["meta"]["engine"] = 1
        (store.root / "stale.json").write_text(json.dumps(payload))
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "WARNING" in capsys.readouterr().out

    def test_clear(self, capsys, served, tmp_path):
        client, server, server_args = served
        study_path = _study_file(tmp_path)
        tiny_study().save(study_path)
        job_id, _ = _submit_id(capsys, served, study_path)
        main(["watch", job_id, *server_args])
        capsys.readouterr()
        cache_dir = str(server.service.store.root)
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert len(ResultStore(cache_dir)) == 0

    def test_clear_removes_old_lock_files(self, capsys, tmp_path):
        """A directory written by an older version can hold
        ``<key>.lock`` files beside its entries; a wipe takes them too."""
        store = ResultStore(tmp_path / "store")
        tiny_study().run(workers=1, cache=store)
        for path in list(store.root.glob("*.json")):
            path.with_suffix(".lock").write_text("12345 0.0")
        rc = main(["cache", "clear", "--cache-dir", str(store.root)])
        assert rc == 0
        assert "removed 2" in capsys.readouterr().out
        assert list(store.root.iterdir()) == []

    def test_offline_run_replays_a_store_the_service_filled(
        self, capsys, served, tmp_path
    ):
        client, server, server_args = served
        study_path = _study_file(tmp_path)
        tiny_study().save(study_path)
        job_id, _ = _submit_id(capsys, served, study_path)
        main(["watch", job_id, *server_args])
        capsys.readouterr()
        cache_dir = str(server.service.store.root)
        rc = main(["run", study_path, "--cache-dir", cache_dir])
        assert rc == 0
        assert "# cache: 2 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_prune_requires_bounds(self, capsys, tmp_path):
        rc = main(["cache", "prune", "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "prune needs" in capsys.readouterr().err

    def test_prune_evicts(self, capsys, served, tmp_path):
        client, server, server_args = served
        study_path = _study_file(tmp_path)
        tiny_study().save(study_path)
        job_id, _ = _submit_id(capsys, served, study_path)
        main(["watch", job_id, *server_args])
        capsys.readouterr()
        cache_dir = str(server.service.store.root)
        rc = main(
            ["cache", "prune", "--cache-dir", cache_dir,
             "--max-entries", "1"]
        )
        assert rc == 0
        assert "evicted 1" in capsys.readouterr().out


class TestRunProgress:
    def test_run_progress_lines(self, capsys, tmp_path):
        study_path = _study_file(tmp_path)
        tiny_study().save(study_path)
        assert main(["run", study_path, "--progress"]) == 0
        err = capsys.readouterr().err
        n = tiny_study().num_points()
        assert f"[{n}/{n}]" in err
        assert "(fresh)" in err

    def test_run_progress_tags_cache_replays(self, capsys, tmp_path):
        study_path = _study_file(tmp_path)
        tiny_study().save(study_path)
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["run", study_path, "--cache-dir", cache_dir, "--progress"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["run", study_path, "--cache-dir", cache_dir, "--progress"]
        ) == 0
        err = capsys.readouterr().err
        assert "(cache)" in err and "(fresh)" not in err


class TestLiveMetrics:
    """``metrics --live`` reads the series the service registers."""

    @staticmethod
    def _line(client):
        line = _live_metrics_line(client.metrics(fmt="json"))
        return dict(field.split("=") for field in line.split())

    def test_line_counts_running_jobs_and_retries(
        self, served, monkeypatch
    ):
        client, _, _ = served
        gate, paused = threading.Event(), threading.Event()
        record_point = Execution.record_point

        def held(self, *args):
            paused.set()
            gate.wait(timeout=60)
            record_point(self, *args)

        monkeypatch.setattr(Execution, "record_point", held)
        job = client.submit_study(tiny_study())
        try:
            assert paused.wait(timeout=30)
            running = self._line(client)
        finally:
            gate.set()
        client.watch(job["id"])
        assert running["running"] == "1"
        assert self._line(client)["running"] == "0"

        monkeypatch.setattr(Execution, "record_point", record_point)
        before = self._line(client)
        monkeypatch.setenv("REPRO_CHAOS", "fail-point:times=1:match=m@")
        chaos.reset()
        try:
            # a fresh seed: its points are computed, so one of them fails
            job = client.submit_study(tiny_study(seed=5))
            assert client.watch(job["id"]) is not None
        finally:
            monkeypatch.delenv("REPRO_CHAOS")
            chaos.reset()
        assert client.status(job["id"])["attempts"] == 2
        after = self._line(client)
        assert int(after["retries"]) - int(before["retries"]) == 1
