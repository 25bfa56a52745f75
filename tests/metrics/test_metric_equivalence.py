"""Cross-core metric equivalence: probe channels agree bit-for-bit.

All three cores read the same packet table off the shared front end
(no schedule is pinned here), so the post-run probe decode must
produce *identical* channels — on the smoke scenario's configurations
and on a degraded (faulted) switchless system, whose repair routes
exercise the probe layer's route decoding on an irregular graph.
"""

from pathlib import Path

import pytest

from repro.api import load_study
from repro.engine.spec import ExperimentSpec, build_experiment
from repro.network import SimParams, Simulator, native_available

REPO = Path(__file__).resolve().parents[2]

CORES = ["array", "reference"] + (
    ["native"] if native_available() else []
)

PROBES = [
    "link_util", "vc_util", "latency_hist", "timeseries", "misroute",
    "ejection_fairness",
]


def channels_per_core(spec, rate):
    graph, routing, traffic = build_experiment(spec)
    out = {}
    for core in CORES:
        sim = Simulator(
            graph, routing, traffic, spec.params, core=core, probes=PROBES
        )
        res = sim.run(rate)
        out[core] = {
            name: ch.to_dict() for name, ch in res.channels.items()
        }
    return out


def assert_identical(per_core):
    ref_core = CORES[0]
    ref = per_core[ref_core]
    assert sorted(ref) == sorted(PROBES)
    for core in CORES[1:]:
        for name in ref:
            assert per_core[core][name] == ref[name], (
                f"{core} core's {name} channel diverged from {ref_core}"
            )


def smoke_specs():
    study = load_study(REPO / "scenarios" / "smoke.json")
    return [
        pytest.param(spec, id=spec.label or spec.topology)
        for scenario in study.scenarios
        for spec in scenario.specs
    ]


class TestHealthy:
    @pytest.mark.parametrize("spec", smoke_specs())
    def test_smoke_scenario_channels_identical(self, spec):
        for rate in spec.rates:
            assert_identical(channels_per_core(spec, rate))


class TestDegraded:
    def degraded_spec(self):
        return ExperimentSpec.create(
            topology="switchless",
            topology_opts={
                "mesh_dim": 3, "chiplet_dim": 1, "num_local": 2,
                "num_global": 1,
            },
            routing="switchless",
            routing_opts={"mode": "minimal"},
            traffic="uniform",
            faults={"model": "random", "link_rate": 0.08, "seed": 3},
            params=SimParams(
                warmup_cycles=120, measure_cycles=300, drain_cycles=200,
                seed=9,
            ),
            rates=[0.25],
            label="SW-less-degraded",
        )

    def test_degraded_channels_identical(self):
        spec = self.degraded_spec()
        per_core = channels_per_core(spec, spec.rates[0])
        assert_identical(per_core)

    def test_degraded_misroute_uses_observed_floor(self):
        """Repaired routes may exceed the healthy graph's BFS distance;
        the probe must not report negative excess."""
        spec = self.degraded_spec()
        per_core = channels_per_core(spec, spec.rates[0])
        hist = per_core[CORES[0]]["misroute"]
        assert all(row[0] >= 0 for row in hist["rows"])
