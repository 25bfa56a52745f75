"""One simulation per point key within a run.

``point_key(spec, rate)`` is a result's identity and the label is not
part of it, so two curves holding one spec share every point.  The
engine simulates such a key once, stores it once and hands its result
to every point that carries it, each with its own ``on_point`` event
and the owner's source.
"""

import concurrent.futures
import os

import pytest

from repro.engine import ResultCache, run_experiments
from repro.engine import executor
from repro.engine.spec import point_key, point_seed
from repro.obs import trace

from .test_on_point import _mesh, _switch

#: the 4-terminal switch saturates near 1.0: 0.4 is its only rate below
OVER = [0.4, 1.5, 2.2]


def _specs():
    """Two keys per spec, three distinct specs: m0 and m1 are aliases."""
    return [_mesh("m0"), _switch("sw"), _mesh("m1")]


def _keys(specs):
    return {point_key(s, r) for s in specs for r in s.rates}


def _collect(specs, **kwargs):
    calls = []

    def on_point(si, ri, rate, res, source):
        calls.append((si, ri, rate, res, source))

    return run_experiments(specs, on_point=on_point, **kwargs), calls


@pytest.fixture()
def lanes(monkeypatch):
    """Every ``(seed, rate)`` lane this process hands to ``run_batch``."""
    seen = []
    run_batch = executor.run_batch

    def spy(graph, routing, traffic, params, batch, **kwargs):
        seen.extend(batch)
        return run_batch(graph, routing, traffic, params, batch, **kwargs)

    monkeypatch.setattr(executor, "run_batch", spy)
    return seen


@pytest.fixture()
def pool(monkeypatch):
    """A real two-worker pool: workers x threads <= cpu_count would
    clamp it to one otherwise."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("REPRO_SIM_THREADS", "1")


def test_aliased_scenarios_get_identical_curves():
    from repro.api import Scenario, Study

    metrics = ["link_util", "timeseries"]
    ring = _mesh("Ring").with_metrics(metrics)
    healthy = _mesh("Healthy").with_metrics(metrics)
    study = Study(
        name="alias", title="alias",
        scenarios=(
            Scenario(name="schedules", specs=(ring,), title="s"),
            Scenario(name="degraded", specs=(healthy,), title="d"),
        ),
    )
    first, second = (
        scn.curves[0] for scn in study.run(workers=1).scenarios
    )
    assert (first.label, second.label) == ("Ring", "Healthy")
    assert first.rates == second.rates == list(healthy.rates)
    assert [r.to_dict() for r in first.results] == [
        r.to_dict() for r in second.results
    ]
    assert all(r.channels for r in second.results)
    [alone] = run_experiments([healthy], workers=1)
    assert [r.to_dict() for r in alone.results] == [
        r.to_dict() for r in second.results
    ]


def test_run_batch_sees_each_key_once(lanes):
    specs = _specs()
    curves = run_experiments(specs, workers=1)
    assert sorted(lanes) == sorted(
        (point_seed(s, r), r) for s in specs[:2] for r in s.rates
    )
    assert curves[0].results == curves[2].results
    assert curves[2].label == "m1"


def test_on_point_once_per_point_with_owner_source(tmp_path, lanes):
    specs = _specs()
    spans = []
    shared = executor._M_POINTS.value(source="shared")
    fresh = executor._M_POINTS.value(source="fresh")
    trace.add_sink(spans.append)
    try:
        curves, calls = _collect(
            specs, workers=1, cache=ResultCache(tmp_path)
        )
    finally:
        trace.remove_sink(spans.append)
    assert sorted((si, ri) for si, ri, *_ in calls) == [
        (si, ri) for si, s in enumerate(specs) for ri in range(len(s.rates))
    ]
    assert {c[4] for c in calls} == {"fresh"}
    for si, ri, rate, res, _ in calls:
        assert rate == specs[si].rates[ri]
        assert curves[si].results[ri] is res
    # honest accounting: "fresh" counts simulated points only
    assert executor._M_POINTS.value(source="fresh") - fresh == len(lanes)
    assert executor._M_POINTS.value(source="shared") - shared == 2
    [run] = [s for s in spans if s["name"] == "engine.run"]
    assert run["attrs"]["shared"] == 2


def test_cache_gets_one_write_per_key(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    puts = []
    put = cache.put

    def spy(key, *args, **kwargs):
        puts.append(key)
        put(key, *args, **kwargs)

    monkeypatch.setattr(cache, "put", spy)
    specs = _specs()
    run_experiments(specs, workers=1, cache=cache)
    assert sorted(puts) == sorted(_keys(specs))
    assert len(cache) == len(_keys(specs)) == 4


@pytest.mark.parametrize("workers", [1, 2])
def test_owner_cut_before_a_shared_rate(
    request, monkeypatch, lanes, workers
):
    """The owner saturates at 1.5 and never reaches 2.2: the alias that
    needs 2.2 simulates it, and 0.4 is still shared."""
    if workers > 1:
        request.getfixturevalue("pool")
        # one chunk per sweep: none starts while an earlier rate of its
        # sweep is in flight
        monkeypatch.setattr(
            executor, "_chunk_width", lambda spec, threads: len(spec.rates)
        )
    owner = _switch("owner").with_rates(OVER)
    alias = _switch("alias").with_rates([0.4, 2.2])
    curves, calls = _collect([owner, alias], workers=workers)
    assert curves[0].rates == [0.4, 1.5]
    assert curves[1].rates == [0.4, 2.2]
    assert curves[1].results[0] == curves[0].results[0]
    # the events are exactly the curves' points
    assert sorted((si, ri) for si, ri, *_ in calls) == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    if workers == 1:
        # the owner's chunk stops at 1.5; 2.2 then runs for the alias.
        # A packed chunk hands run_batch all of its rates (the batch
        # stops at the cutoff); one-rate chunks never hand it 2.2.
        owned = OVER if executor._chunk_width(owner, 1) > 1 else OVER[:2]
        assert [rate for _, rate in lanes] == owned + [2.2]
    [solo] = run_experiments([alias], workers=1)
    assert curves[1].results == solo.results


@pytest.mark.parametrize(
    "owned, alias_rates, curve, ran",
    [
        # 1.5 is known and saturated: the alias runs 0.4 alone, then its
        # cutoff is 1.5 and 2.2 is never simulated
        ([1.5], [0.4, 1.5, 2.2], [0.4, 1.5], [1.5, 0.4]),
        # the alias saturates at its first rate: the shared 0.4 lies
        # past its cutoff and gets no event
        ([0.4], [1.5, 0.4], [1.5], [0.4, 1.5]),
    ],
)
def test_shared_point_waits_for_earlier_rates(
    lanes, owned, alias_rates, curve, ran
):
    owner = _switch("owner").with_rates(owned)
    alias = _switch("alias").with_rates(alias_rates)
    curves, calls = _collect([owner, alias], workers=1)
    assert curves[1].rates == curve
    assert [rate for _, rate in lanes] == ran
    assert sorted((si, ri) for si, ri, *_ in calls) == [(0, 0)] + [
        (1, ri) for ri in range(len(curve))
    ]


def test_pool_never_runs_one_key_twice(pool, monkeypatch):
    monkeypatch.setattr(executor, "_chunk_width", lambda spec, threads: 1)
    inflight, submitted = set(), []
    base = concurrent.futures.ProcessPoolExecutor

    class Tracking(base):
        def submit(self, fn, spec, rates, *args):
            keys = {point_key(spec, r) for r in rates}
            assert not keys & inflight, "a key went in flight twice"
            inflight.update(keys)
            submitted.extend(keys)
            future = super().submit(fn, spec, rates, *args)
            future.add_done_callback(
                lambda _: inflight.difference_update(keys)
            )
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Tracking)
    specs = [_mesh("a"), _switch("sw"), _mesh("b"), _mesh("c")]
    curves = run_experiments(specs, workers=2)
    assert sorted(submitted) == sorted(_keys(specs))
    serial = run_experiments(specs, workers=1)
    assert [c.results for c in curves] == [c.results for c in serial]
    assert curves[0].results == curves[2].results == curves[3].results


def test_warm_rerun_replays_every_alias_from_the_cache(
    tmp_path, monkeypatch
):
    specs = _specs()
    cold = run_experiments(specs, workers=1, cache=ResultCache(tmp_path))

    def forbidden(*args, **kwargs):
        raise AssertionError("a fully cached study scheduled work")

    monkeypatch.setattr(executor, "resolve_core", forbidden)
    warm = ResultCache(tmp_path)
    curves, calls = _collect(specs, workers=1, cache=warm)
    assert (warm.hits, warm.misses) == (len(_keys(specs)), 0)
    assert len(calls) == sum(len(s.rates) for s in specs)
    assert {c[4] for c in calls} == {"cache"}
    assert [c.results for c in curves] == [c.results for c in cold]
