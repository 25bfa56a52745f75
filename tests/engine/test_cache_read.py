"""ResultCache.get: what a hit reads, what stays a miss, what leaks.

A hit is one ``os.open``, ``os.read`` until a read comes back short,
one ``json.loads``, an mtime touch through the descriptor and a
``close``; every unreadable or malformed entry is a miss, counted
once on the instance and once on the ``store_*_total`` counters.
"""

import json
import os
import time

import pytest

from repro.engine import ExperimentSpec, ResultCache, run_experiments
from repro.engine import cache as cache_mod
from repro.engine.spec import point_key
from repro.network import SimParams, SimResult
from repro.obs import REGISTRY


def _result(**over):
    base = dict(
        offered_rate=0.5, effective_offered=0.5, accepted_rate=0.4,
        avg_latency=9.0, p50_latency=8.0, p99_latency=20.0,
        packets_measured=100, packets_delivered=90, flits_ejected=400,
        active_chips=16, measure_cycles=300, avg_hops=2.5,
    )
    base.update(over)
    return SimResult(**base)


def _counters():
    return (
        REGISTRY.get("store_hits_total").value(),
        REGISTRY.get("store_misses_total").value(),
    )


def _entry(path, text=None):
    """Make ``path`` a valid entry, or write ``text`` there."""
    if text is None:
        text = json.dumps({"key": path.stem, "result": _result().to_dict()})
    path.write_text(text)


CORRUPT = {
    "zero_bytes": lambda p: p.write_bytes(b""),
    "truncated": lambda p: _entry(p, p.read_text()[:50]),
    "non_utf8": lambda p: p.write_bytes(
        p.read_bytes().replace(b'"key"', b'"k\xff\xfe"')
    ),
    "wrong_shape": lambda p: _entry(p, json.dumps({"not": "a result"})),
    "not_an_object": lambda p: _entry(p, "[1, 2, 3]"),
    "directory": lambda p: (p.unlink(), p.mkdir()),
}


class TestMisses:
    def test_missing_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        before = _counters()
        assert cache.get("absent") is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert _counters() == (before[0], before[1] + 1)

    @pytest.mark.parametrize("kind", sorted(CORRUPT))
    def test_unreadable_entry_is_one_miss(self, tmp_path, kind):
        cache = ResultCache(tmp_path)
        path = tmp_path / "k.json"
        _entry(path)
        CORRUPT[kind](path)
        os.utime(path, (1_000_000, 1_000_000))
        before = _counters()
        assert cache.get("k") is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert _counters() == (before[0], before[1] + 1)
        # a miss is no use: its recency stays where it was
        assert path.stat().st_mtime == 1_000_000

    def test_rewritten_entry_hits_again(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = tmp_path / "k.json"
        path.write_text('{"key": ')
        assert cache.get("k") is None
        cache.put("k", _result())
        assert cache.get("k") == _result()
        assert (cache.hits, cache.misses) == (1, 1)


class TestHits:
    def test_hit_counts_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", _result())
        before = _counters()
        assert cache.get("k") == _result()
        assert (cache.hits, cache.misses) == (1, 0)
        assert _counters() == (before[0] + 1, before[1])

    def test_hit_moves_the_mtime(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", _result())
        path = tmp_path / "k.json"
        os.utime(path, (1_000_000, 1_000_000))
        start = time.time()
        assert cache.get("k") == _result()
        assert path.stat().st_mtime >= start - 1

    @pytest.mark.parametrize("chunk", ["default", "small", "exact"])
    def test_entry_past_one_chunk_reads_back_equal(
        self, tmp_path, monkeypatch, chunk
    ):
        """A probed point carries its ``link_util`` rows; a chunk
        smaller than the entry makes ``get`` read on, and one the size
        of the entry ends on an empty read."""
        spec = ExperimentSpec.create(
            topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
            routing="xy_mesh", traffic="uniform",
            params=SimParams(
                warmup_cycles=50, measure_cycles=150, drain_cycles=100,
                seed=3,
            ),
            rates=[0.3], metrics=["link_util"],
        )
        [curve] = run_experiments(
            [spec], workers=1, cache=ResultCache(tmp_path)
        )
        [stored] = curve.results
        assert stored.channels["link_util"].rows
        key = point_key(spec, 0.3)
        size = (tmp_path / f"{key}.json").stat().st_size
        if chunk == "small":
            monkeypatch.setattr(cache_mod, "_READ_CHUNK", 1000)
            assert size > 3 * 1000
        elif chunk == "exact":
            monkeypatch.setattr(cache_mod, "_READ_CHUNK", size)
        reads = []
        real_read = os.read

        def counted(fd, n):
            data = real_read(fd, n)
            reads.append(len(data))
            return data

        monkeypatch.setattr(cache_mod.os, "read", counted)
        cache = ResultCache(tmp_path)
        assert cache.get(key) == stored
        assert sum(reads) == size
        assert (cache.hits, cache.misses) == (1, 0)
        chunk_size = cache_mod._READ_CHUNK
        assert len(reads) == size // chunk_size + 1
        assert reads[-1] < chunk_size


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_mixed_reads_leave_no_descriptor_open(tmp_path):
    cache = ResultCache(tmp_path)
    keys = []
    for i, kind in enumerate(["hit", "missing", *sorted(CORRUPT)]):
        key = f"{kind}{i}"
        if kind != "missing":
            _entry(tmp_path / f"{key}.json")
        if kind in CORRUPT:
            CORRUPT[kind](tmp_path / f"{key}.json")
        keys.append(key)
    open_before = len(os.listdir("/proc/self/fd"))
    for n in range(2000):
        cache.get(keys[n % len(keys)])
    assert len(os.listdir("/proc/self/fd")) == open_before
    per_key = 2000 // len(keys)
    assert (cache.hits, cache.misses) == (per_key, 2000 - per_key)
