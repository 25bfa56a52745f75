"""ResultStore: bounds, stats, single-flight adapter semantics."""

import json
import os
import time

import pytest

from repro.engine.spec import ENGINE_VERSION
from repro.network.stats import SimResult
from repro.service import ResultStore, SingleFlight, SingleFlightCache


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

    def test_store_is_a_result_cache(self, tmp_path):
        """One set of files, one class hierarchy: the engine's cache
        reads what the store wrote and the other way round."""
        from repro.engine import ResultCache

        store = ResultStore(tmp_path)
        assert isinstance(store, ResultCache)
        ResultCache(tmp_path).put("k2", _result(0.3))
        assert store.get("k2") == _result(0.3)
        assert store.get("nope") is None
        assert (store.hits, store.misses, len(store)) == (1, 1, 1)
        assert store.root == tmp_path
        store.put("k3", _result())
        assert ResultCache(tmp_path).get("k3") == _result()
        assert store.clear() == 2 and len(store) == 0

    def test_put_stamps_engine_version(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", _result(), meta={"label": "x"})
        payload = json.loads((tmp_path / "k1.json").read_text())
        assert payload["meta"]["engine"] == ENGINE_VERSION
        assert payload["meta"]["label"] == "x"

    def test_bounds_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=0)


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

    def test_locked_keys_survive_eviction(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=1)
        store.put("pinned", _result())
        store.single_flight.try_acquire("pinned")
        time.sleep(0.01)
        store.put("fresh", _result())
        # over the bound, but the locked entry cannot be evicted
        assert "pinned" in store
        store.single_flight.release("pinned")

    def test_explicit_prune_overrides(self, tmp_path):
        store = ResultStore(tmp_path)  # unbounded
        for i in range(4):
            store.put(f"k{i}", _result())
            time.sleep(0.01)
        assert store.prune(max_entries=2) == 2
        assert len(store) == 2


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

    def test_stats_channel_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", _result())
        store.get("k")
        chan = store.stats_channel()
        assert chan.name == "cache_stats"
        counters = dict(chan.rows)
        assert counters["entries"] == 1.0
        assert counters["hits"] == 1.0
        # round-trips through the wire form
        from repro.metrics import MetricChannel

        assert MetricChannel.from_dict(chan.to_dict()).to_dict() == (
            chan.to_dict()
        )

    def test_clear_removes_entries_and_locks(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", _result())
        store.single_flight.try_acquire("other")
        assert store.clear() == 1
        assert len(store) == 0
        assert list(tmp_path.glob("*.lock")) == []


class TestSingleFlight:
    def test_acquire_is_exclusive(self, tmp_path):
        a, b = SingleFlight(tmp_path), SingleFlight(tmp_path)
        assert a.try_acquire("k")
        assert not b.try_acquire("k")
        assert b.holder("k") == os.getpid()
        a.release("k")
        assert b.try_acquire("k")
        b.release("k")

    def test_wait_returns_when_released(self, tmp_path):
        import threading

        a, b = SingleFlight(tmp_path), SingleFlight(tmp_path)
        a.try_acquire("k")
        timer = threading.Timer(0.1, a.release, args=("k",))
        timer.start()
        assert b.wait("k", timeout=5.0)
        assert b.waits == 1
        timer.join()

    def test_wait_times_out(self, tmp_path):
        a, b = SingleFlight(tmp_path), SingleFlight(tmp_path)
        a.try_acquire("k")
        assert not b.wait("k", timeout=0.1)
        a.release("k")

    def test_stale_age_lock_is_stolen(self, tmp_path):
        sf = SingleFlight(tmp_path, stale_after=0.05)
        # a live-pid lock that is simply too old
        path = tmp_path / "k.lock"
        path.write_text(f"{os.getpid()} 0.0")
        old = time.time() - 60
        os.utime(path, (old, old))
        assert sf.try_acquire("k")
        assert sf.steals == 1
        sf.release("k")


class TestSingleFlightCache:
    def test_owner_computes_and_releases_on_put(self, tmp_path):
        store = ResultStore(tmp_path)
        cache = SingleFlightCache(store)
        assert cache.get("k") is None  # miss -> we own the key
        assert store.single_flight.locked("k")
        cache.put("k", _result())
        assert not store.single_flight.locked("k")
        assert cache.computed == 1
        assert cache.get("k") == _result()

    def test_close_releases_unused_locks(self, tmp_path):
        store = ResultStore(tmp_path)
        with store.single_flight_cache() as cache:
            assert cache.get("skipped") is None  # e.g. saturation cutoff
            assert store.single_flight.locked("skipped")
        assert not store.single_flight.locked("skipped")

    def test_second_get_of_an_owned_key_does_not_wait(self, tmp_path):
        """Asking twice for a key this cache already owns returns the
        miss at once: the lock is ours, so waiting on it could only
        time out."""
        store = ResultStore(tmp_path)
        with SingleFlightCache(store, hold_wait=5) as cache:
            t0 = time.monotonic()
            assert cache.get("k") is None
            assert cache.get("k") is None
            assert time.monotonic() - t0 < 0.5
            assert cache.fallbacks == 0
            assert store.single_flight.waits == 0
            assert store.single_flight.locked("k")

    def test_holder_timeout_falls_back_to_compute(self, tmp_path):
        store = ResultStore(tmp_path)
        foreign = SingleFlight(tmp_path)
        foreign.try_acquire("busy")
        cache = SingleFlightCache(store, wait_timeout=0.1, hold_wait=0.1)
        cache.get("mine")  # own something -> short hold_wait applies
        assert cache.get("busy") is None  # timed out waiting
        assert cache.fallbacks == 1
        # the fallback may still publish; both sides write identical bytes
        cache.put("busy", _result())
        assert store.get("busy") == _result()
        cache.close()
        foreign.release("busy")

    def test_waiter_picks_up_published_result(self, tmp_path):
        import threading

        store = ResultStore(tmp_path)
        owner = SingleFlightCache(store)
        assert owner.get("k") is None

        def publish():
            time.sleep(0.1)
            owner.put("k", _result())

        thread = threading.Thread(target=publish)
        thread.start()
        waiter = SingleFlightCache(ResultStore(tmp_path))
        got = waiter.get("k")  # blocks until the owner publishes
        thread.join()
        assert got == _result()
        assert waiter.computed == 0

    def test_release_inside_the_wait_window_is_not_a_steal(self, tmp_path):
        """The owner publishes and releases between the waiter's lock
        check and its stale-lock inspection: the waiter must read the
        published entry, not take the key and simulate it again."""
        owner = SingleFlightCache(ResultStore(tmp_path))
        assert owner.get("k") is None
        store = ResultStore(tmp_path)
        sf = store.single_flight
        check = sf.locked

        def locked_then_owner_finishes(key):
            held = check(key)
            if held and owner.computed == 0:
                owner.put("k", _result())  # publish + release right here
            return held

        sf.locked = locked_then_owner_finishes
        waiter = SingleFlightCache(store)
        assert waiter.get("k") == _result()
        assert not waiter._owned and not check("k")
        assert sf.steals == 0 and waiter.fallbacks == 0


class TestRestartHygiene:
    """SingleFlight.clear(): a restarting server removes only *dead*
    holders' locks, so siblings sharing the store keep their in-flight
    computations."""

    def _dead_pid(self):
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_dead_holder_lock_cleared(self, tmp_path):
        sf = SingleFlight(tmp_path)
        (tmp_path / "orphan.lock").write_text(
            f"{self._dead_pid()} {time.time():.3f}"
        )
        assert sf.clear() == 1
        assert not sf.locked("orphan")

    def test_live_holder_lock_survives_default_clear(self, tmp_path):
        sf = SingleFlight(tmp_path)
        assert sf.try_acquire("mine")  # held by this (live) process
        assert sf.clear() == 0
        assert sf.locked("mine")
        # the store-wipe path takes everything regardless
        assert sf.clear(all_locks=True) == 1
        assert not sf.locked("mine")

    def test_fresh_unreadable_lock_gets_grace(self, tmp_path):
        # a sibling between O_CREAT and writing its pid: empty file,
        # seconds old -- not provably dead yet
        sf = SingleFlight(tmp_path)
        path = tmp_path / "halfborn.lock"
        path.write_text("")
        assert sf.clear() == 0
        assert sf.locked("halfborn")
        # ...but an *old* empty lock is an orphaned crash artifact
        past = time.time() - 60
        os.utime(path, (past, past))
        assert sf.clear() == 1
        assert not sf.locked("halfborn")

    def test_store_clear_wipes_all_locks(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", _result())
        assert store.single_flight.try_acquire("k")  # live, ours
        store.clear()
        assert len(store) == 0
        assert not store.single_flight.locked("k")
