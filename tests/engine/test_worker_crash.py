"""Engine crash containment: a dead worker process fails only the
chunks it was carrying — retried under probation, then blamed as a
poison chunk — never the whole run."""

import os

import pytest

from repro.engine.cache import ResultCache
from repro.engine.executor import (
    PointFailure,
    run_experiments,
)
from repro.engine.spec import ExperimentSpec
from repro.network import SimParams, native_available
from repro.service import chaos

PARAMS = SimParams(
    warmup_cycles=100, measure_cycles=200, drain_cycles=150, seed=9
)

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)


def mesh_spec(rates, label="m", **over):
    kw = dict(
        topology="mesh",
        topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh",
        traffic="uniform",
        params=PARAMS,
        rates=list(rates),
        label=label,
    )
    kw.update(over)
    return ExperimentSpec.create(**kw)


def sweeps_equal(a, b):
    assert a.rates == b.rates
    for ra, rb in zip(a.results, b.results):
        assert ra.to_dict() == rb.to_dict()


@pytest.fixture()
def arm_chaos(monkeypatch):
    def arm(directives):
        monkeypatch.setenv("REPRO_CHAOS", directives)
        chaos.reset()

    yield arm
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()


@pytest.fixture()
def pool_cpus(monkeypatch):
    """Crash containment needs a real worker pool; on a single-CPU box
    ``_resolve_workers`` would clamp ``workers=2`` down to the inline
    branch and ``crash-worker`` (child-only) could never fire."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


@pytest.fixture(
    params=[
        pytest.param("reference", id="width1"),
        pytest.param(None, id="width8", marks=needs_native),
    ]
)
def width(request, monkeypatch):
    """Both chunk widths go through the one scheduler and the one
    crash handler: one-rate chunks (a reference-core session) and
    packed chunks (the compiled kernel)."""
    if request.param is None:
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        return 8
    monkeypatch.setenv("REPRO_SIM_CORE", request.param)
    return 1


def two_specs():
    return [
        mesh_spec([0.1, 0.2], label="a"),
        mesh_spec([0.1, 0.2], label="b", traffic="bit_reverse"),
    ]


class TestCrashContainment:
    def test_single_worker_crash_is_contained(
        self, tmp_path, arm_chaos, pool_cpus, width
    ):
        """One worker SIGKILLs itself mid-chunk; the run completes and
        every point is bit-identical to the crash-free baseline."""
        specs = two_specs()
        baseline = run_experiments(specs, workers=1)

        arm_chaos(f"crash-worker:once={tmp_path}/crash.marker")
        survived = run_experiments(specs, workers=2)
        assert os.path.exists(tmp_path / "crash.marker")
        for s, b in zip(survived, baseline):
            sweeps_equal(s, b)

    def test_poison_chunk_blamed_not_the_run(
        self, tmp_path, arm_chaos, pool_cpus, width
    ):
        """A chunk that crashes its worker on every attempt raises
        PointFailure naming its spec and rates — and the innocent
        chunks' results are already in the cache."""
        arm_chaos("crash-worker:match=b@0.2")
        cache = ResultCache(tmp_path / "cache")
        blamed = r"b \(.*rate\(s\) 0\.200 crashed its worker"
        if width > 1:  # the poison rate takes its whole chunk with it
            blamed = r"b \(.*rate\(s\) 0\.100, 0\.200 crashed its worker"
        with pytest.raises(PointFailure, match=blamed):
            run_experiments(two_specs(), workers=2, cache=cache)
        # everything outside the poison chunk landed before the blame
        assert len(cache) == (3 if width == 1 else 2)

    def test_chunk_error_propagates_at_once(self, arm_chaos, width):
        """A raising (not crashing) chunk is not re-run by the engine:
        its first error surfaces (the service supervisor retries)."""
        from repro.service.chaos import ChaosError

        arm_chaos("fail-point:times=1")
        with pytest.raises(ChaosError):
            run_experiments([mesh_spec([0.1, 0.2])], workers=1)

    def test_finished_chunks_replay_after_a_chunk_error(
        self, tmp_path, arm_chaos, width
    ):
        """A transient error ends the run, but the chunks that finished
        before it are in the cache: the next attempt (the service
        supervisor's retry) replays them and simulates only the rest,
        bit-identical to a clean run."""
        from repro.service.chaos import ChaosError

        specs = two_specs()
        baseline = run_experiments(specs, workers=1)
        arm_chaos("fail-point:times=1:match=b@0.2")
        with pytest.raises(ChaosError):
            run_experiments(specs, workers=1, cache=ResultCache(tmp_path))
        finished = 3 if width == 1 else 2
        assert len(ResultCache(tmp_path)) == finished

        cache = ResultCache(tmp_path)
        retried = run_experiments(specs, workers=1, cache=cache)
        assert cache.hits == finished
        for s, b in zip(retried, baseline):
            sweeps_equal(s, b)
