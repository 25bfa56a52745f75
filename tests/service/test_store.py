"""The result store (``ResultStore`` = the engine's ``ResultCache``):
bounds, stats, eviction and wipe."""

import json
import os
import time

import pytest

from repro.engine.spec import ENGINE_VERSION
from repro.network.stats import SimResult
from repro.service import ResultStore

from .conftest import tiny_study


def _result(rate=0.5):
    return SimResult(
        offered_rate=rate, effective_offered=rate, accepted_rate=rate * 0.8,
        avg_latency=9.0, p50_latency=8.0, p99_latency=20.0,
        packets_measured=100, packets_delivered=90, flits_ejected=400,
        active_chips=16, measure_cycles=300, avg_hops=2.5,
    )


class TestStoreBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", _result())
        assert "k1" in store
        got = store.get("k1")
        assert got == _result()
        assert store.hits == 1

    def test_store_is_the_result_cache(self):
        """One class: the service's store is the engine's cache."""
        import repro.engine
        import repro.service

        assert repro.service.ResultStore is repro.engine.ResultCache

    def test_counts_hits_and_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k2", _result(0.3))
        assert store.get("k2") == _result(0.3)
        assert store.get("nope") is None
        assert (store.hits, store.misses, len(store)) == (1, 1, 1)
        assert store.root == tmp_path
        assert store.clear() == 1 and len(store) == 0

    def test_put_stamps_engine_version(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", _result(), meta={"label": "x"})
        payload = json.loads((tmp_path / "k1.json").read_text())
        assert payload["meta"]["engine"] == ENGINE_VERSION
        assert payload["meta"]["label"] == "x"

    def test_put_keeps_a_callers_engine_stamp(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", _result(), meta={"engine": ENGINE_VERSION - 1})
        payload = json.loads((tmp_path / "k.json").read_text())
        assert payload["meta"]["engine"] == ENGINE_VERSION - 1
        assert store.stats()["stale_entries"] == 1

    def test_store_on_a_file_path_is_refused(self, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_text("")
        with pytest.raises(ValueError, match="not a directory"):
            ResultStore(path)

    def test_entries_are_oldest_first_and_skip_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        for key in ("b", "a", "c"):
            store.put(key, _result())
            time.sleep(0.01)
        (tmp_path / ".tmp-abandoned.part").write_text('{"half": ')
        assert [key for key, _, _, _ in store.entries()] == ["b", "a", "c"]

    def test_bounds_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=0)
        # a bound below 1 is an error on prune too, not a wipe
        store = ResultStore(tmp_path)
        store.put("k", _result())
        with pytest.raises(ValueError, match="max_entries"):
            store.prune(max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            store.prune(max_bytes=0)
        assert "k" in store


class TestEviction:
    def test_lru_eviction_by_entries(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=3)
        for i in range(5):
            store.put(f"k{i}", _result())
            time.sleep(0.01)  # distinct mtimes
        assert len(store) == 3
        assert store.evicted == 2
        # the oldest entries went first
        assert "k0" not in store and "k1" not in store
        assert "k4" in store

    def test_hit_refreshes_recency(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        store.put("old", _result())
        time.sleep(0.01)
        store.put("mid", _result())
        time.sleep(0.01)
        assert store.get("old") is not None  # touch: now most recent
        time.sleep(0.01)
        store.put("new", _result())
        assert "old" in store
        assert "mid" not in store

    def test_offline_replay_refreshes_recency(self, tmp_path):
        """A ``Study.run(cache=dir)`` hit is a use too: ``cache prune``
        keeps recently replayed points over a newer, unread entry."""
        study = tiny_study()
        study.run(workers=1, cache=tmp_path)
        store = ResultStore(tmp_path)
        points = len(store)
        replayed = {key for key, _, _, _ in store.entries()}
        store.put("unread", _result())
        past = time.time() - 1000
        for key in replayed:
            os.utime(tmp_path / f"{key}.json", (past, past))

        study.run(workers=1, cache=tmp_path)  # every point a hit
        assert store.prune(max_entries=points) == 1
        assert {key for key, _, _, _ in store.entries()} == replayed

    def test_hit_survives_eviction_by_another_process(
        self, tmp_path, monkeypatch
    ):
        """Another process sharing the directory may evict an entry
        between its read and the recency touch: the read still counts."""
        from repro.engine import cache as cache_mod

        store = ResultStore(tmp_path)
        store.put("k", _result())
        real_utime = os.utime

        def evicted_first(target, *args, **kwargs):
            (tmp_path / "k.json").unlink()
            return real_utime(target, *args, **kwargs)

        monkeypatch.setattr(cache_mod.os, "utime", evicted_first)
        assert store.get("k") == _result()
        assert (store.hits, len(store)) == (1, 0)

    def test_eviction_by_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a", _result())
        per_entry = (tmp_path / "a.json").stat().st_size
        store.max_bytes = int(per_entry * 2.5)  # room for two entries
        time.sleep(0.01)
        store.put("b", _result())
        time.sleep(0.01)
        store.put("c", _result())
        assert len(store) == 2
        assert "a" not in store

    def test_unbounded_prune_is_a_no_op(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(3):
            store.put(f"k{i}", _result())
        assert store.prune() == 0
        assert len(store) == 3 and store.evicted == 0

    def test_old_lock_files_are_not_entries(self, tmp_path):
        """A ``<key>.lock`` left by an older version neither counts as
        an entry nor pins its key: eviction goes by recency alone."""
        store = ResultStore(tmp_path, max_entries=1)
        store.put("pinned", _result())
        (tmp_path / "pinned.lock").write_text("12345 0.0")
        time.sleep(0.01)
        store.put("fresh", _result())
        assert "pinned" not in store and "fresh" in store
        assert len(store) == store.stats(scan_meta=False)["entries"] == 1
        assert (tmp_path / "pinned.lock").exists()

    def test_explicit_prune_overrides(self, tmp_path):
        store = ResultStore(tmp_path)  # unbounded
        for i in range(4):
            store.put(f"k{i}", _result())
            time.sleep(0.01)
        assert store.prune(max_entries=2) == 2
        assert len(store) == 2


class TestTotals:
    """Entry and byte totals come from one scan, then every ``put``,
    ``prune`` and ``clear`` keeps them equal to a fresh scan."""

    @staticmethod
    def _scan(path):
        sizes = [p.stat().st_size for p in path.glob("*.json")]
        return len(sizes), sum(sizes)

    @staticmethod
    def _totals(store):
        stats = store.stats(scan_meta=False)
        return stats["entries"], stats["bytes"]

    def test_put_overwrite_prune_and_clear_keep_totals_exact(
        self, tmp_path
    ):
        (tmp_path / "before.json").write_text('{"key": "before"}')
        store = ResultStore(tmp_path)
        assert self._totals(store) == self._scan(tmp_path) == (1, 17)
        for i in range(4):
            store.put(f"k{i}", _result(0.1 * (i + 1)))
            time.sleep(0.01)
        assert self._totals(store) == self._scan(tmp_path)
        store.put("k1", _result(0.123456789))  # an overwrite counts once
        assert self._totals(store) == self._scan(tmp_path)
        assert self._totals(store)[0] == 5
        assert store.prune(max_entries=2) == 3
        assert self._totals(store) == self._scan(tmp_path) != (0, 0)
        store.clear()
        assert self._totals(store) == (0, 0) == self._scan(tmp_path)

    def test_known_totals_take_no_scan(self, tmp_path, monkeypatch):
        """After the first scan, neither a stats read nor a put within
        the bounds scans the directory again; a put past a bound does
        (to evict), once."""
        store = ResultStore(tmp_path, max_entries=3)
        store.put("a", _result())
        scans = []
        entries = ResultStore.entries

        def counted(self):
            scans.append(1)
            return entries(self)

        monkeypatch.setattr(ResultStore, "entries", counted)
        for key in ("b", "c"):
            time.sleep(0.01)
            store.put(key, _result())
            store.stats_channel()
        assert scans == []
        time.sleep(0.01)
        store.put("d", _result())
        assert scans == [1] and "a" not in store
        assert self._totals(store) == self._scan(tmp_path)

    def test_full_stats_scan_picks_up_other_writers(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("mine", _result())
        assert self._totals(store)[0] == 1
        other = ResultStore(tmp_path)
        other.put("theirs", _result())
        assert self._totals(store)[0] == 1  # counted by its own writes
        assert store.stats(scan_meta=True)["entries"] == 2
        assert self._totals(store) == self._scan(tmp_path)


class TestStats:
    def test_stats_reports_version_mix_and_stale(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", _result())
        # an entry stamped by an older engine
        old = {
            "key": "old",
            "result": _result().to_dict(),
            "meta": {"engine": ENGINE_VERSION - 1},
        }
        (tmp_path / "old.json").write_text(json.dumps(old))
        # a pre-stamping entry with no meta at all
        bare = {"key": "bare", "result": _result().to_dict()}
        (tmp_path / "bare.json").write_text(json.dumps(bare))
        stats = store.stats(scan_meta=True)
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["version_mix"] == {
            f"v{ENGINE_VERSION}": 1,
            f"v{ENGINE_VERSION - 1}": 1,
            "unknown": 1,
        }
        assert stats["stale_entries"] == 2

    def test_stats_scan_counts_an_unreadable_entry_as_unknown(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        store.put("good", _result())
        (tmp_path / "torn.json").write_text('{"key": "torn", "res')
        stats = store.stats(scan_meta=True)
        assert stats["version_mix"] == {
            f"v{ENGINE_VERSION}": 1, "unknown": 1,
        }
        assert stats["stale_entries"] == 1
        assert store.get("torn") is None

    def test_stats_without_scan_skips_the_version_mix(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", _result())
        stats = store.stats(scan_meta=False)
        assert "version_mix" not in stats and "stale_entries" not in stats
        assert set(stats) == {
            "root", "entries", "bytes", "engine_version",
            "hits", "misses", "evicted",
        }

    def test_store_metrics_count_hits_misses_and_evictions(self, tmp_path):
        from repro.obs import REGISTRY

        def total(name):
            return sum(
                sample["value"]
                for metric in REGISTRY.collect()
                if metric["name"] == name
                for sample in metric["samples"]
            )

        names = (
            "store_hits_total", "store_misses_total",
            "store_evictions_total",
        )
        before = [total(name) for name in names]
        store = ResultStore(tmp_path, max_entries=1)
        store.put("a", _result())
        time.sleep(0.01)
        store.put("b", _result())
        store.get("a")
        store.get("b")
        after = [total(name) for name in names]
        # the registry is process-global: compare deltas
        assert [x - y for x, y in zip(after, before)] == [1, 1, 1]

    def test_stats_channel_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", _result())
        store.get("k")
        chan = store.stats_channel()
        assert chan.name == "cache_stats"
        counters = dict(chan.rows)
        assert counters["entries"] == 1.0
        assert counters["hits"] == 1.0
        # numeric counters only; the root rides in the channel meta
        assert "root" not in counters
        assert all(isinstance(v, float) for v in counters.values())
        assert chan.meta["root"] == str(tmp_path)
        # round-trips through the wire form
        from repro.metrics import MetricChannel

        assert MetricChannel.from_dict(chan.to_dict()).to_dict() == (
            chan.to_dict()
        )

    def test_clear_removes_entries_and_old_lock_files(self, tmp_path):
        """A directory written by an older version can hold
        ``<key>.lock`` files that nothing reads any more: a wipe takes
        them along with the entries and leaves the directory empty."""
        store = ResultStore(tmp_path)
        store.put("k", _result())
        (tmp_path / "other.lock").write_text("12345 0.0")
        assert store.clear() == 1
        assert len(store) == 0
        assert list(tmp_path.iterdir()) == []
