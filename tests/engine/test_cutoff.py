"""Saturation cutoffs in the engine: nothing past the knee is
simulated, cached, reported or replayed.

A chunk carries its budget of saturated points down to ``run_batch``
(the cutoff minus the saturations already known before its first
rate), the cache replay reads a sweep only up to its cutoff, and a
warm resubmission through the service's store (a ``ResultCache``) reads exactly
the returned points and schedules no work.
"""

import concurrent.futures
import os

import pytest

from repro.engine import ExperimentSpec, ResultCache, run_experiments
from repro.engine import executor
from repro.engine.spec import point_key
from repro.network import SimParams

PARAMS = SimParams(
    warmup_cycles=100, measure_cycles=300, drain_cycles=150, seed=3
)
#: the 4-terminal switch saturates near 1.0: 0.4 is the only rate below
RATES = [0.4, 1.5, 2.2, 3.0, 3.5]


def switch(label="sw", seed=3, rates=RATES):
    return ExperimentSpec.create(
        topology="switch",
        topology_opts={"num_terminals": 4, "terminal_latency": 1},
        routing="switch_star", traffic="uniform",
        params=PARAMS.scaled(seed=seed), rates=rates, label=label,
    )


def run(specs, **kwargs):
    calls = []

    def on_point(si, ri, rate, res, source):
        calls.append((si, ri, res, source))

    return run_experiments(specs, on_point=on_point, **kwargs), calls


def stored(cache, spec):
    """Rate indices of ``spec`` with a cache entry."""
    return [
        ri for ri, rate in enumerate(spec.rates)
        if cache.get(point_key(spec, rate)) is not None
    ]


@pytest.mark.parametrize("stop", [1, 2])
@pytest.mark.parametrize("workers", [1, 2])
def test_nothing_past_the_cutoff(tmp_path, monkeypatch, workers, stop):
    if workers > 1:
        # a real pool, one chunk per sweep: no chunk starts while an
        # earlier rate of its sweep is in flight
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(
            executor, "_chunk_width", lambda spec, share: len(spec.rates)
        )
    specs = [switch(), switch(label="sw1", seed=5)]
    cache = ResultCache(tmp_path)
    curves, calls = run(
        specs, workers=workers, cache=cache, stop_after_saturation=stop
    )
    for si, (spec, curve) in enumerate(zip(specs, curves)):
        n = len(curve.results)
        assert n == 1 + stop  # 0.4, then `stop` saturated points
        assert [ri for sj, ri, _, _ in calls if sj == si] == list(range(n))
        assert stored(cache, spec) == list(range(n))
    assert {c[3] for c in calls} == {"fresh"}
    serial, _ = run(specs, workers=1, stop_after_saturation=stop)
    assert [c.results for c in curves] == [c.results for c in serial]


def test_chunk_budget_counts_saturations_before_it(tmp_path, monkeypatch):
    """A chunk that starts after a saturated point gets the cutoff
    minus that saturation as its budget, and stops when it is spent."""
    monkeypatch.setattr(executor, "_chunk_width", lambda spec, share: 2)
    batches = []
    run_batch = executor.run_batch

    def spy(graph, routing, traffic, params, lanes, **kwargs):
        out = run_batch(graph, routing, traffic, params, lanes, **kwargs)
        batches.append((len(lanes), kwargs["stop_after"], len(out)))
        return out

    monkeypatch.setattr(executor, "run_batch", spy)
    spec = switch()
    cache = ResultCache(tmp_path)
    [curve], calls = run(
        [spec], workers=1, cache=cache, stop_after_saturation=2
    )
    # (0.4, 1.5): one saturation, all returned; (2.2, 3.0) starts after
    # it with budget 1 and ends at 2.2
    assert batches == [(2, 2, 2), (2, 1, 1)]
    assert curve.rates == RATES[:3]
    assert stored(cache, spec) == [0, 1, 2]
    assert len(calls) == 3


def test_needed_stops_at_the_kth_known_saturation():
    results = {
        0: run_experiments([switch(rates=[0.4])], workers=1)[0].results[0],
        2: run_experiments([switch(rates=[2.2])], workers=1)[0].results[0],
    }
    assert not results[0].saturated and results[2].saturated
    assert executor._needed(5, results, 1) == [1]
    assert executor._needed(5, results, 2) == [1, 3, 4]
    assert executor._needed(3, {**results, 1: results[0]}, 1) == []


def test_warm_replay_reads_exactly_the_stored_points(
    tmp_path, monkeypatch
):
    store = ResultCache(tmp_path / "store")
    specs = [switch(), switch(label="sw1", seed=5)]
    first, _ = run(specs, workers=1, cache=store)
    points = sum(len(c.results) for c in first)
    assert len(store) == points

    # a decided study asks no core and opens no pool
    def forbidden(*args, **kwargs):
        raise AssertionError("a fully replayed study scheduled work")

    monkeypatch.setattr(executor, "resolve_core", forbidden)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    hits, misses = store.hits, store.misses
    second, calls = run(specs, workers=2, cache=store)
    assert (store.hits - hits, store.misses - misses) == (points, 0)
    assert [c.results for c in second] == [c.results for c in first]
    assert [(si, ri, res) for si, ri, res, _ in calls] == [
        (si, ri, res)
        for si, curve in enumerate(first)
        for ri, res in enumerate(curve.results)
    ]
    assert {c[3] for c in calls} == {"cache"}
