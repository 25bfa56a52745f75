"""What the native front end holds per packet, and that holding less
changes no result.

A schedule is two int64 columns, a plane-resolved route arena is its
resolve scratch shrunk in place, and ``run_batch`` releases each
unprobed lane's packets as soon as its wave is read back.  The traced
peak of one lane bounds the first two: a schedule that also kept its
events as Python-int lists, or an arena copied out of its scratch,
goes over it.
"""

from __future__ import annotations

import ctypes
import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import SwitchlessConfig, build_switchless
from repro.network import (
    InjectionSchedule,
    NativeBatch,
    SimParams,
    native_available,
    run_batch,
)
from repro.network.native import NativeCore
from repro.routing import SwitchlessRouting
from repro.traffic import UniformTraffic

pytestmark = pytest.mark.skipif(
    not native_available(), reason="needs the compiled kernel"
)

PARAMS = SimParams(warmup_cycles=100, measure_cycles=300, drain_cycles=60)

#: traced peak of one unprobed minimal-routing lane, per measured
#: packet: ~211 B, against ~344 B with list-backed schedules and the
#: route arena copied out of its resolve scratch.
PEAK_BYTES_PER_PACKET = 280


@pytest.fixture(scope="module")
def system():
    return build_switchless(SwitchlessConfig.radix8_equiv())


def _lane(system, mode="minimal"):
    return (
        system.graph,
        SwitchlessRouting(system, mode),
        UniformTraffic(system.graph),
    )


def test_traced_peak_per_packet_of_one_lane(system):
    """~240K measured packets through ``run_batch``: the traced peak
    counts the full resolve scratch and every Python object, so the
    redundant copies show whatever the allocator does with pages."""
    lane = _lane(system)
    params = PARAMS.scaled(measure_cycles=10_000, seed=5)
    # kernel loaded, plane built, link tables shared: not per packet
    run_batch(*lane, PARAMS, [(1, 0.3)], core="native", threads=1)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        [res] = run_batch(
            *lane, params, [(7, 0.3)], core="native", threads=1
        )
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.packets_measured > 200_000
    assert peak / res.packets_measured < PEAK_BYTES_PER_PACKET


def test_schedule_columns_are_int64_arrays_whatever_goes_in():
    lists = InjectionSchedule([0, 0, 3, 7], [5, 2, 5, 1], horizon=9)
    arrays = InjectionSchedule(
        np.array([0, 0, 3, 7], dtype=np.int32),
        np.array([5, 2, 5, 1]),
        horizon=9,
    )
    assert lists == arrays
    assert lists != InjectionSchedule([0, 0, 3, 7], [5, 2, 5, 1], 10)
    assert lists != InjectionSchedule([0, 1, 3, 7], [5, 2, 5, 1], 9)
    for sched in (lists, arrays):
        assert isinstance(sched.cycles, np.ndarray)
        assert sched.cycles.dtype == np.int64
        assert sched.nodes.dtype == np.int64
        assert len(sched) == sched.offered_packets() == 4
    assert len(InjectionSchedule()) == 0
    with pytest.raises(ValueError, match="aligned"):
        InjectionSchedule([0, 1], [3], horizon=2)


@pytest.mark.parametrize("mode", ["minimal", "valiant"])
def test_scalar_and_compiled_front_ends_fill_the_same_table(system, mode):
    """One schedule through the scalar loop (stdlib draws, Python
    ``route()`` for Valiant) and through the draw pass + plane: same
    packets, same routes hop for hop, same RNG state afterwards."""
    params = PARAMS.scaled(seed=11)
    cores = [NativeCore(*_lane(system, mode), params) for _ in range(2)]
    schedule = cores[0].make_schedule(0.5)
    scalar, compiled = cores
    scalar._resolve_packets(schedule, scalar._open(0.5))
    assert compiled._resolve_packets_vec(schedule, compiled._open(0.5))

    a, b = scalar._packets, compiled._packets
    assert len(a) > 1000
    for row in ("t0", "meas", "src", "dst", "hops"):
        np.testing.assert_array_equal(getattr(a, row), getattr(b, row))
    for pid in range(len(a)):
        np.testing.assert_array_equal(
            scalar._routes.lv[a.off[pid]: a.off[pid] + a.hops[pid]],
            compiled._routes.lv[b.off[pid]: b.off[pid] + b.hops[pid]],
        )
    assert scalar._py_rng.getstate() == compiled._py_rng.getstate()
    assert (
        scalar.routing.fallback_count == compiled.routing.fallback_count
    )


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_released_lanes_keep_counters_and_results(system, threads):
    """``run(release=True)`` frees each lane after its wave: results,
    conservation counters and flits left in flight are a retained
    batch's, and nothing per packet or per ``(link, VC)`` is left."""
    seeds, rates = [3, 4, 5, 6, 7], [0.3, 0.9, 0.5, 1.6, 0.7]
    lane = _lane(system)
    retained = NativeBatch(*lane, PARAMS, seeds)
    released = NativeBatch(*lane, PARAMS, seeds)
    want = retained.run(rates, threads=threads)
    got = released.run(rates, threads=threads, release=True)
    assert got == want
    assert got == run_batch(*lane, PARAMS, list(zip(seeds, rates)))
    for kept, freed in zip(retained.lanes, released.lanes):
        assert freed.total_flits_injected == kept.total_flits_injected
        assert freed.total_flits_ejected == kept.total_flits_ejected
        assert freed.flits_in_flight() == kept.flits_in_flight()
        assert freed._packets is None and freed._routes is None
        assert freed._latencies is None
        assert not [
            name
            for name, value in vars(freed).items()
            if name.startswith("_n_") and isinstance(value, (np.ndarray, list))
        ]
    assert any(lane.flits_in_flight() for lane in released.lanes)


def test_packet_ids_are_recorded_for_probed_runs_only(system):
    """Only the probe layer reads the delivered packet ids: an
    unprobed run hands the kernel a NULL ``pid_out`` and gets the
    same result as a probed one."""
    results = []
    for probe in (False, True):
        core = NativeCore(*_lane(system), PARAMS)
        if probe:
            core.enable_probes()
        ctx = core._begin(0.4, None, None)
        st = core._build_state(ctx)
        assert bool(st.pid_out) is probe
        assert core._lib.sim_run(ctypes.byref(st)) == 0
        results.append(core._finish(ctx, st))
        if probe:
            assert len(core._eject_pid) == len(core._latencies) > 0
    assert results[0] == results[1]
