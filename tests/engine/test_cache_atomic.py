"""ResultCache crash safety: a torn write must never look like a hit.

Regression tests for the atomic write protocol (temp file +
``os.replace``): a writer dying mid-``put`` leaves either the complete
entry or nothing — readers see a miss, never a half-written payload —
and abandoned temp files are invisible to the entry glob.
"""

import json
import os

import pytest

from repro.engine import ExperimentSpec, ResultCache, run_experiments
from repro.engine.spec import point_key
from repro.network import SimParams, SimResult


def _spec(rates=(0.5,)):
    return ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=SimParams(
            warmup_cycles=100, measure_cycles=300, drain_cycles=150, seed=3
        ),
        rates=list(rates), label="atomic",
    )


def _result(**over):
    base = dict(
        offered_rate=0.5, effective_offered=0.5, accepted_rate=0.4,
        avg_latency=9.0, p50_latency=8.0, p99_latency=20.0,
        packets_measured=100, packets_delivered=90, flits_ejected=400,
        active_chips=16, measure_cycles=300, avg_hops=2.5,
    )
    base.update(over)
    return SimResult(**base)


class TestCrashMidWrite:
    def test_failed_put_leaves_no_entry_and_no_visible_temp(self, tmp_path):
        cache = ResultCache(tmp_path)
        # an unserialisable extra makes json.dump raise midway through
        # writing the temp file — exactly a "crash" between open and
        # os.replace
        poisoned = _result(extras={"bad": object()})
        with pytest.raises(TypeError):
            cache.put("deadbeef", poisoned)
        assert "deadbeef" not in cache
        assert cache.get("deadbeef") is None
        assert len(cache) == 0
        # the temp path was cleaned up by put's error path
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_abandoned_temp_is_not_an_entry(self, tmp_path):
        # simulate a writer killed *between* mkstemp and os.replace:
        # the temp file survives but must never be globbed as an entry
        cache = ResultCache(tmp_path)
        (tmp_path / ".tmp-orphan.part").write_text('{"half": ')
        assert len(cache) == 0
        cache.put("aa", _result())
        assert len(cache) == 1
        # clear() reclaims the orphan too
        assert cache.clear() == 1
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_truncated_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("bb", _result())
        path = tmp_path / "bb.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn write
        assert cache.get("bb") is None
        assert cache.misses == 1

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "cc.json").write_text(json.dumps({"not": "a result"}))
        assert cache.get("cc") is None

    def test_engine_recovers_from_torn_entry(self, tmp_path):
        """End to end: a torn cache file is recomputed and overwritten."""
        spec = _spec()
        cache = ResultCache(tmp_path)
        [first] = run_experiments([spec], workers=1, cache=cache)
        key = point_key(spec, spec.rates[0])
        path = tmp_path / f"{key}.json"
        assert path.exists()
        path.write_text(path.read_text()[:40])
        cache2 = ResultCache(tmp_path)
        [again] = run_experiments([spec], workers=1, cache=cache2)
        assert again.results == first.results
        # the entry was rewritten and is valid JSON again
        assert json.loads(path.read_text())["key"] == key


class TestVersionStamp:
    def test_engine_stamps_entries_with_engine_version(self, tmp_path):
        from repro.engine.spec import ENGINE_VERSION

        spec = _spec()
        cache = ResultCache(tmp_path)
        run_experiments([spec], workers=1, cache=cache)
        [path] = tmp_path.glob("*.json")
        meta = json.loads(path.read_text())["meta"]
        assert meta["engine"] == ENGINE_VERSION
        assert meta["label"] == "atomic"
        assert meta["rate"] == spec.rates[0]


class TestBounds:
    def test_bounded_cache_evicts_during_a_run(self, tmp_path):
        """An offline run may bound its cache: every write beyond
        ``max_entries`` evicts, and a rerun still returns the same
        sweep (replaying what stayed, simulating what went)."""
        spec = _spec(rates=(0.1, 0.2, 0.3))
        cache = ResultCache(tmp_path, max_entries=2)
        [first] = run_experiments([spec], workers=1, cache=cache)
        assert (len(cache), cache.evicted) == (2, 1)

        again = ResultCache(tmp_path, max_entries=2)
        [second] = run_experiments([spec], workers=1, cache=again)
        assert second.results == first.results
        assert (again.hits, again.misses) == (2, 1)
        assert len(again) == 2
