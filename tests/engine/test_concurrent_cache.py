"""Two processes, one store directory, no torn entry.

Nothing coordinates processes that share a store directory: both may
simulate a point the other is simulating.  What holds without any lock
is that every write is a temp file plus ``os.replace`` of the same
deterministic bytes.  So two processes running one sweep at once end
with bit-identical curves, and the directory holds one parseable entry
per distinct point key and no abandoned temp file.  One side writes
through the service's ``ResultStore`` and the other through the plain
``ResultCache`` that ``run --cache-dir`` uses.
"""

import json
import multiprocessing

import pytest

from repro.engine import ExperimentSpec, ResultCache, run_experiments
from repro.engine.spec import point_key
from repro.network import SimParams
from repro.network.stats import SimResult
from repro.service import ResultStore

PARAMS = SimParams(
    warmup_cycles=100, measure_cycles=300, drain_cycles=150, seed=3
)
RATES = [0.2, 0.4, 0.6, 0.8]


def _specs():
    mesh = dict(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", params=PARAMS, rates=RATES,
    )
    return [
        ExperimentSpec.create(traffic="uniform", label="uniform", **mesh),
        ExperimentSpec.create(
            traffic="bit_transpose", label="bit_transpose", **mesh
        ),
    ]


def _cache(kind, root):
    return ResultStore(root) if kind == "store" else ResultCache(root)


def _run(kind, root, workers, barrier, conn):
    """Child: run the sweep through a ``kind`` cache over ``root``."""
    cache = _cache(kind, root)
    barrier.wait(timeout=30)
    curves = run_experiments(_specs(), workers=workers, cache=cache)
    conn.send([[r.to_dict() for r in c.results] for c in curves])
    conn.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_two_processes_on_one_directory_leave_whole_entries(
    tmp_path, workers
):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    procs, pipes = [], []
    for kind in ("store", "cache"):
        parent_conn, child_conn = ctx.Pipe()
        procs.append(
            ctx.Process(
                target=_run,
                args=(kind, str(tmp_path), workers, barrier, child_conn),
            )
        )
        pipes.append(parent_conn)
    for proc in procs:
        proc.start()
    reports = [conn.recv() for conn in pipes]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0

    assert reports[0] == reports[1]
    entries = sorted(tmp_path.glob("*.json"))
    for path in entries:
        SimResult.from_dict(json.loads(path.read_text())["result"])
    assert list(tmp_path.glob(".tmp-*.part")) == []
    keys = {
        point_key(spec, rate)
        for spec, curve in zip(_specs(), reports[0])
        for rate in RATES[: len(curve)]
    }
    assert {path.stem for path in entries} == keys


def _rewrite(kind, root, key, result, times, barrier):
    """Child: write one key ``times`` times through a ``kind`` cache."""
    cache = _cache(kind, root)
    barrier.wait(timeout=30)
    for _ in range(times):
        cache.put(key, result, meta={"engine": 0})


def test_readers_never_see_a_torn_entry_while_writers_race(tmp_path):
    """Two processes rewrite one key over and over while this one
    reads it: once the entry exists, every read parses whole."""
    [curve] = run_experiments(_specs()[:1], workers=1)
    key, result = "racing", curve.results[0]
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(3)
    procs = [
        ctx.Process(
            target=_rewrite,
            args=(kind, str(tmp_path), key, result, 300, barrier),
        )
        for kind in ("store", "cache")
    ]
    for proc in procs:
        proc.start()
    reader = ResultCache(tmp_path)
    barrier.wait(timeout=30)
    reads = 0
    while any(proc.is_alive() for proc in procs) or reads == 0:
        if key in reader:
            assert reader.get(key) == result
            reads += 1
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    assert reads > 0 and reader.misses == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{key}.json"]


def test_a_third_run_replays_every_point(tmp_path):
    """A directory one process filled replays in full for another."""
    [first] = run_experiments(_specs()[:1], workers=1,
                              cache=ResultStore(tmp_path))
    offline = ResultCache(tmp_path)
    [again] = run_experiments(_specs()[:1], workers=1, cache=offline)
    assert (offline.hits, offline.misses) == (len(first.results), 0)
    assert [r.to_dict() for r in again.results] == [
        r.to_dict() for r in first.results
    ]
