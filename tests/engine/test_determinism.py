"""Engine determinism: serial == parallel == cache replay, bit for bit."""

import json
import os

import pytest

from repro.engine import ExperimentSpec, ResultCache, run_experiments, simulate_point
from repro.engine.spec import point_key
from repro.network import SimParams, SimResult

PARAMS = SimParams(
    warmup_cycles=100, measure_cycles=300, drain_cycles=150, seed=3
)

RATES = [0.5, 1.0, 1.5, 2.2, 3.0]


def mesh_spec(label="mesh", seed=3):
    return ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=PARAMS.scaled(seed=seed), rates=RATES, label=label,
    )


def switch_spec():
    return ExperimentSpec.create(
        topology="switch",
        topology_opts={"num_terminals": 4, "terminal_latency": 1},
        routing="switch_star", traffic="uniform",
        params=PARAMS, rates=RATES, label="switch",
    )


@pytest.fixture(
    params=[None, "reference"], ids=["default-core", "reference-core"]
)
def pooled_session(request, monkeypatch):
    """Packed chunks (compiled kernel, when there is one) and one-rate
    chunks (reference core), each with room for a two-worker pool."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    if request.param is None:
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
    else:
        monkeypatch.setenv("REPRO_SIM_CORE", request.param)


class TestSerialParallelEquivalence:
    def test_bit_identical_results(self, pooled_session):
        specs = [mesh_spec(), switch_spec()]
        serial = run_experiments(specs, workers=1, stop_after_saturation=2)
        parallel = run_experiments(specs, workers=2, stop_after_saturation=2)
        for s, par in zip(serial, parallel):
            assert s.rates == par.rates
            assert s.results == par.results

    def test_sweep_cutoff_matches_serial_semantics(self, pooled_session):
        # the 4-terminal switch saturates near 1.0, so the cutoff bites
        [sweep] = run_experiments(
            [switch_spec()], workers=2, stop_after_saturation=1
        )
        assert len(sweep.rates) < len(RATES)
        assert sweep.results[-1].saturated
        assert not any(r.saturated for r in sweep.results[:-1])

    def test_point_is_independent_of_execution_order(self):
        spec = mesh_spec()
        alone = simulate_point(spec, RATES[2])
        [sweep] = run_experiments([spec], workers=1)
        assert sweep.results[2] == alone

    def test_different_seed_changes_results(self):
        [a] = run_experiments([mesh_spec(seed=3)], workers=1)
        [b] = run_experiments([mesh_spec(seed=4)], workers=1)
        assert a.results != b.results


class TestCache:
    def test_round_trip_without_resimulation(self, tmp_path):
        spec = mesh_spec()
        cache = ResultCache(tmp_path)
        [first] = run_experiments([spec], workers=1, cache=cache)
        stored = len(cache)
        assert stored == len(first.rates)

        replay_cache = ResultCache(tmp_path)
        [second] = run_experiments([spec], workers=1, cache=replay_cache)
        # every returned point came from disk; nothing was re-simulated
        assert replay_cache.hits == len(first.rates)
        assert len(replay_cache) == stored
        assert second.rates == first.rates
        assert second.results == first.results

    def test_extending_rates_only_simulates_new_points(self, tmp_path):
        # stop_after_saturation high enough that no cutoff interferes:
        # the appended point must actually be needed
        cache = ResultCache(tmp_path)
        run_experiments(
            [mesh_spec()], workers=1, cache=cache, stop_after_saturation=9
        )
        stored = len(cache)
        assert stored == len(RATES)

        extended = mesh_spec().with_rates(RATES + [3.5])
        replay = ResultCache(tmp_path)
        run_experiments(
            [extended], workers=1, cache=replay, stop_after_saturation=9
        )
        assert replay.hits == stored
        assert len(replay) == stored + 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = mesh_spec()
        cache = ResultCache(tmp_path)
        res = simulate_point(spec, 0.5)
        key = point_key(spec, 0.5)
        cache.put(key, res)
        (tmp_path / f"{key}.json").write_text("{not json")
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.misses == 1

    def test_simresult_json_round_trip(self):
        res = simulate_point(mesh_spec(), 0.5)
        clone = SimResult.from_dict(
            json.loads(json.dumps(res.to_dict()))
        )
        assert clone == res

    def test_simresult_round_trip_preserves_nan(self):
        res = simulate_point(mesh_spec(), 0.5)
        res.avg_latency = float("nan")
        clone = SimResult.from_dict(res.to_dict())
        assert clone.avg_latency != clone.avg_latency  # NaN survives
