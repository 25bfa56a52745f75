"""``run_batch(stop_after=k)``: lanes run as the rates of a cut curve.

Every core returns the same prefix — through the k-th saturated lane —
and each returned lane equals its solo ``Simulator`` run.  Lanes run one
after another, so no lane past the cutoff is built or run.
"""

import pytest

from repro.engine.spec import ExperimentSpec, build_experiment
from repro.network import SimParams, Simulator, native_available, run_batch

PARAMS = SimParams(
    warmup_cycles=100, measure_cycles=300, drain_cycles=150, seed=3
)

#: the 4-terminal switch saturates near 1.0 flits/cycle/chip; lanes
#: need not be in increasing rate order
LANES = [(11, 0.4), (12, 1.5), (13, 0.5), (14, 2.2), (15, 0.3), (16, 3.0)]

CORES = [
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="no C compiler"
        ),
    ),
    "reference",
]


@pytest.fixture(scope="module")
def switch():
    spec = ExperimentSpec.create(
        topology="switch",
        topology_opts={"num_terminals": 4, "terminal_latency": 1},
        routing="switch_star", traffic="uniform",
        params=PARAMS, rates=[0.4], label="sw",
    )
    return build_experiment(spec)


def solo(switch, seed, rate):
    return Simulator(
        *switch, PARAMS.scaled(seed=seed), core="reference"
    ).run(rate)


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("stop_after, kept", [(1, 2), (2, 4), (3, 6)])
def test_prefix_through_kth_saturated_lane(switch, core, stop_after, kept):
    got = run_batch(*switch, PARAMS, LANES, core=core, stop_after=stop_after)
    assert len(got) == kept
    assert sum(res.saturated for res in got) == stop_after
    assert got[-1].saturated
    assert got == [solo(switch, seed, rate) for seed, rate in LANES[:kept]]


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("stop_after, ran", [(1, 2), (2, 4), (3, 6)])
def test_lanes_past_the_deciding_wave_never_run(
    switch, monkeypatch, core, stop_after, ran
):
    """Exactly the lanes through the cutoff lane are built and run, in
    lane order: the lanes after it get no simulator at all."""
    built, calls = [], []
    init, run = Simulator.__init__, Simulator.run

    def spy_init(self, *args, **kw):
        built.append(args[3].seed)
        init(self, *args, **kw)

    def spy_run(self, rate, **kw):
        calls.append(rate)
        return run(self, rate, **kw)

    monkeypatch.setattr(Simulator, "__init__", spy_init)
    monkeypatch.setattr(Simulator, "run", spy_run)
    got = run_batch(*switch, PARAMS, LANES, core=core, stop_after=stop_after)
    # lanes 1, 3 and 5 are the saturated ones
    assert len(got) == ran
    assert built == [seed for seed, _ in LANES[:ran]]
    assert calls == [rate for _, rate in LANES[:ran]]
