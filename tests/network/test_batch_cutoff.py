"""``run_batch(stop_after=k)``: lanes run as the rates of a cut curve.

Every core returns the same prefix — through the k-th saturated lane —
and each returned lane equals its solo ``Simulator`` run.  The native
core runs lanes in waves of kernel threads; under
``REPRO_SIM_THREADS=4`` a wave holds lanes past the cutoff, which run
and are dropped, so the prefix rule is checked inside a wave too.
"""

import numpy as np
import pytest

from repro.engine.spec import ExperimentSpec, build_experiment
from repro.network import SimParams, Simulator, native_available, run_batch
from repro.network.native import NativeBatch

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


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_lanes_past_the_deciding_wave_never_run(switch, threads):
    """Lanes after the wave holding the cutoff are neither resolved nor
    given kernel state (none is allocated before a lane's wave); every
    lane is still listed, and a lane that ran keeps its conservation
    counters with its rings freed."""
    batch = NativeBatch(*switch, PARAMS, [seed for seed, _ in LANES])
    got = batch.run(
        [rate for _, rate in LANES], threads=threads, stop_after=1
    )
    assert len(got) == 2
    assert len(batch.lanes) == len(LANES)
    ran = max(2, threads)
    assert [len(core._packets) > 0 for core in batch.lanes] == [
        i < ran for i in range(len(LANES))
    ]
    for core in batch.lanes:
        assert core._n_buf is None
    # unrun lanes never allocated kernel state either
    for core in batch.lanes[ran:]:
        assert not [
            name
            for name, value in vars(core).items()
            if name.startswith("_n_") and isinstance(value, (np.ndarray, list))
        ]
        for name in ("_n_credits", "_n_owner", "_n_b_head", "_n_b_len",
                     "_n_ne_arr", "_n_sq_off", "_n_aw_n", "_n_rr_link"):
            assert getattr(core, name) is None, name
        assert core.flits_in_flight() == 0
    saturated = batch.lanes[1]
    assert saturated.flits_in_flight() == (
        saturated.total_flits_injected - saturated.total_flits_ejected
    )
