"""Per-point completion callbacks, inline, pooled and replayed.

``run_experiments(on_point=...)`` must fire exactly once per simulated
point — wherever its chunk ran (this process, a pool worker) or
whether it was replayed from the cache — with the right indices and
source tag, and the callback must observe the same result object that
lands in the sweep.
"""

import os

import pytest

from repro.engine import ExperimentSpec, ResultCache, run_experiments
from repro.engine import executor
from repro.network import SimParams

PARAMS = SimParams(
    warmup_cycles=100, measure_cycles=300, drain_cycles=150, seed=3
)
RATES = [0.4, 0.8]


def _mesh(label="m0", seed=3):
    return ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=PARAMS.scaled(seed=seed), rates=RATES, label=label,
    )


def _switch(label="sw", seed=3):
    return ExperimentSpec.create(
        topology="switch",
        topology_opts={"num_terminals": 4, "terminal_latency": 1},
        routing="switch_star", traffic="uniform",
        params=PARAMS.scaled(seed=seed), rates=RATES, label=label,
    )


def _collect(**kwargs):
    calls = []

    def on_point(si, ri, rate, res, source):
        calls.append((si, ri, rate, res, source))

    sweeps = run_experiments(on_point=on_point, **kwargs)
    return sweeps, calls


class TestEnginePaths:
    def test_serial_fires_once_per_point(self):
        specs = [_mesh(), _switch()]
        sweeps, calls = _collect(specs=specs, workers=1)
        assert len(calls) == 4
        assert sorted((si, ri) for si, ri, *_ in calls) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]
        assert {c[4] for c in calls} == {"fresh"}
        for si, ri, rate, res, _ in calls:
            assert rate == RATES[ri]
            assert sweeps[si].results[ri] == res

    def test_pool_fires_in_parent_per_chunk(self, tmp_path, monkeypatch):
        """Pooled chunks report from the parent as each one completes:
        one ``fresh`` event per simulated point, a chunk's points in
        rate order, and nothing past a cutoff — the chunk stops there,
        so its events and cache entries are exactly the curve's."""
        # a real pool: the clamp to the CPU count would shrink it
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        # one chunk per sweep on both cores (the reference core runs
        # one rate per chunk otherwise, completing in the pool's order)
        monkeypatch.setattr(
            executor, "_chunk_width", lambda spec, share: len(spec.rates)
        )
        parent = os.getpid()
        # the 4-terminal switch saturates near 1.0: the cutoff bites
        rates = [0.4, 1.5, 2.2, 3.0]
        specs = [
            _switch().with_rates(rates),
            _switch(label="sw1", seed=5).with_rates(rates),
        ]
        cache = ResultCache(tmp_path)
        pids, calls = [], []

        def on_point(si, ri, rate, res, source):
            pids.append(os.getpid())
            calls.append((si, ri, rate, res, source))

        sweeps = run_experiments(
            specs, workers=2, cache=cache, on_point=on_point
        )
        assert set(pids) == {parent}
        assert {c[4] for c in calls} == {"fresh"}
        assert len(calls) == len(cache) == sum(len(s.rates) for s in sweeps)
        for si, sweep in enumerate(sweeps):
            assert len(sweep.rates) < len(rates)
            events = [(ri, res) for sj, ri, _, res, _ in calls if sj == si]
            assert events == list(enumerate(sweep.results))

    def test_inline_packed_chunks(self):
        specs = [_mesh(), _mesh(label="m1", seed=5)]
        serial = run_experiments(specs, workers=1)
        sweeps, calls = _collect(specs=specs, workers=1)
        assert [s.results for s in sweeps] == [s.results for s in serial]
        assert len(calls) == 4

    def test_cache_replay_tags_source(self, tmp_path):
        spec = _mesh()
        cache = ResultCache(tmp_path)
        _, first = _collect(specs=[spec], workers=1, cache=cache)
        assert {c[4] for c in first} == {"fresh"}
        _, second = _collect(
            specs=[spec], workers=1, cache=ResultCache(tmp_path)
        )
        assert {c[4] for c in second} == {"cache"}
        assert len(second) == len(RATES)

    def test_callback_exception_propagates(self):
        class Boom(Exception):
            pass

        def on_point(*_):
            raise Boom

        with pytest.raises(Boom):
            run_experiments([_switch()], workers=1, on_point=on_point)


class TestStudyLevel:
    def test_study_run_maps_scenario_and_curve_names(self):
        from repro.api import Scenario, Study

        scenario = Scenario(
            name="cb", specs=(_mesh(), _switch()), title="callbacks"
        )
        study = Study.wrap(scenario)
        seen = []

        def on_point(scn, label, rate, res, source):
            seen.append((scn, label, rate, source))

        result = study.run(workers=1, on_point=on_point)
        assert len(seen) == study.num_points() == 4
        assert {s[0] for s in seen} == {"cb"}
        labels = {curve.label for curve in result.scenarios[0].curves}
        assert {s[1] for s in seen} == labels

    def test_num_points_counts_rates(self):
        from repro.api import Scenario, Study

        study = Study.wrap(
            Scenario(name="n", specs=(_mesh(), _switch()), title="n")
        )
        assert study.num_points() == 2 * len(RATES)
