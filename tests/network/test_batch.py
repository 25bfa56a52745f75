"""Batched native execution: draw exactness and lane bit-identity.

The batch contract is absolute: N lanes packed into one
``sim_run_batch`` call produce results **bit-identical** to N serial
per-lane runs, for any thread count, any lane count, healthy or
degraded topologies, with or without probes.  These tests pin
injection schedules so both cores (reference, native) must
agree with the batched lanes exactly, and they drive the compiled
pre-pass through its edges (fault-masked traffic declines, a
non-power-of-two permutation scope draws only for its tail).
"""

import random

import numpy as np
import pytest

from repro.engine.spec import ExperimentSpec, build_experiment
from repro.network import (
    SimParams,
    Simulator,
    native_available,
    resolve_threads,
    run_batch,
)
from repro.network.native import THREADS_ENV, NativeBatch
from repro.network.vecrandom import DestRows, VecRandom

PARAMS = SimParams(
    warmup_cycles=150, measure_cycles=300, drain_cycles=300, seed=11
)


def mesh_spec(**over):
    kw = dict(
        topology="mesh",
        topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh",
        traffic="uniform",
        params=PARAMS,
        rates=[0.3],
        label="mesh",
    )
    kw.update(over)
    return ExperimentSpec.create(**kw)


def switchless_spec(**over):
    kw = dict(
        topology="switchless",
        topology_opts={"preset": "radix8_equiv"},
        routing="switchless",
        routing_opts={"mode": "minimal"},
        traffic="uniform",
        traffic_opts={"scope": ("group", 0)},
        params=PARAMS,
        rates=[0.3],
        label="switchless",
    )
    kw.update(over)
    return ExperimentSpec.create(**kw)


# ----------------------------------------------------------------------
# VecRandom: the kernel's draws on the exact MT19937 stream
# ----------------------------------------------------------------------
def randbelow(vr: VecRandom, n: int, count: int) -> np.ndarray:
    """``count`` consecutive ``randrange(n)`` results through the
    kernel's draw: ``count`` events of one source whose destination row
    is ``[0, n)`` with nothing skipped."""
    row = DestRows(
        chain=False, ptr=[0, n], val=None, key=[0], skip=[-1], fixed=[-1]
    )
    return vr.draw(np.zeros(count, dtype=np.int64), row)[0]


class TestVecRandom:
    def test_word_stream_matches_getrandbits(self):
        """A 32-bit draw is one raw word (only 2**32 - 1 is rejected),
        so the kernel's words are getrandbits(32)'s, across twists."""
        for seed in (0, 7, 123456):
            rng = random.Random(seed)
            vr = VecRandom.for_rng(random.Random(seed))
            words = randbelow(vr, 2**32 - 1, 2000)
            expect = [rng.getrandbits(32) for _ in range(2000)]
            assert words.tolist() == [w for w in expect if w < 2**32 - 1]

    @pytest.mark.parametrize(
        "n",
        [1, 2, 3, 5, 7, 17, 100, 127, 128, 129, 1023, 2**31 - 5, 2**32 - 1],
    )
    def test_draw_matches_randrange(self, n):
        rng = random.Random(99)
        vec = random.Random(99)
        vr = VecRandom.for_rng(vec)
        draws = randbelow(vr, n, 800)
        expect = [rng.randrange(n) for _ in range(800)]
        assert draws.tolist() == expect

    def test_commit_restores_exact_state(self):
        scalar = random.Random(5)
        vec = random.Random(5)
        vr = VecRandom.for_rng(vec)
        randbelow(vr, 1000, 500)
        vr.commit()
        for _ in range(500):
            scalar.randrange(1000)
        assert vec.getstate() == scalar.getstate()
        # and the streams keep agreeing after the committed block
        assert [vec.randrange(17) for _ in range(50)] == [
            scalar.randrange(17) for _ in range(50)
        ]

    def test_interleaved_vector_and_scalar_draws(self):
        scalar = random.Random(21)
        vec = random.Random(21)
        out_s, out_v = [], []
        for block in (3, 100, 1, 257):
            vr = VecRandom.for_rng(vec)
            out_v.extend(randbelow(vr, 63, block).tolist())
            vr.commit()
            out_v.append(vec.randrange(63))
            out_s.extend(scalar.randrange(63) for _ in range(block))
            out_s.append(scalar.randrange(63))
        assert out_v == out_s

    def test_subclassed_rng_declined(self):
        class Loaded(random.Random):
            def random(self):  # pragma: no cover - never called
                return 0.5

        assert VecRandom.for_rng(Loaded(1)) is None


# ----------------------------------------------------------------------
# resolve_threads
# ----------------------------------------------------------------------
class TestResolveThreads:
    def test_explicit_clamped_to_lanes(self):
        assert resolve_threads(3, 16) == 3
        assert resolve_threads(16, 3) == 3
        assert resolve_threads(4, 1) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "2")
        assert resolve_threads(8) == 2
        monkeypatch.setenv(THREADS_ENV, "64")
        assert resolve_threads(8) == 8  # still clamped to lanes

    def test_floor_of_one(self, monkeypatch):
        assert resolve_threads(8, 0) == 1
        assert resolve_threads(0, 4) == 1
        # the environment knob is outside input: rejected, not floored
        monkeypatch.setenv(THREADS_ENV, "0")
        with pytest.raises(ValueError, match=THREADS_ENV):
            resolve_threads(8)


# ----------------------------------------------------------------------
# batched lanes == serial runs, bit for bit
# ----------------------------------------------------------------------
needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native core"
)

SERIAL_CORES = ["reference", "native"]


def pinned_setup(spec, lanes):
    """Build the experiment once and pin one schedule per lane."""
    graph, routing, traffic = build_experiment(spec)
    schedules = []
    for seed, rate in lanes:
        sim = Simulator(
            graph, routing, traffic, spec.params.scaled(seed=int(seed))
        )
        schedules.append(sim.make_schedule(rate))
    return graph, routing, traffic, schedules


def serial_results(spec, lanes, schedules, core, *, probes=None):
    graph, routing, traffic = build_experiment(spec)
    out = []
    for (seed, rate), sched in zip(lanes, schedules):
        sim = Simulator(
            graph,
            routing,
            traffic,
            spec.params.scaled(seed=int(seed)),
            core=core,
            probes=probes,
        )
        out.append(sim.run(rate, schedule=sched))
    return out


@needs_native
class TestBatchBitIdentity:
    LANES = [(101, 0.15), (202, 0.3), (303, 0.3), (404, 0.45), (505, 0.6)]

    @pytest.mark.parametrize("spec_fn", [mesh_spec, switchless_spec])
    def test_batch_matches_every_serial_core(self, spec_fn):
        spec = spec_fn()
        graph, routing, traffic, schedules = pinned_setup(spec, self.LANES)
        batched = run_batch(
            graph,
            routing,
            traffic,
            spec.params,
            self.LANES,
            core="native",
            schedules=schedules,
        )
        for core in SERIAL_CORES:
            serial = serial_results(spec, self.LANES, schedules, core)
            for i, (b, s) in enumerate(zip(batched, serial)):
                assert b.to_dict() == s.to_dict(), (
                    f"lane {i} diverged from serial {core} core"
                )

    def test_degraded_links_batch_matches_serial(self):
        """link_rate faults keep the routing deterministic, so the
        batch stays on the shared-route/vectorized path — and must
        still match the scalar serial runs exactly."""
        spec = mesh_spec(
            faults={"model": "random", "link_rate": 0.05, "seed": 3}
        )
        graph, routing, traffic, schedules = pinned_setup(spec, self.LANES)
        batched = run_batch(
            graph, routing, traffic, spec.params, self.LANES,
            core="native", schedules=schedules,
        )
        serial = serial_results(spec, self.LANES, schedules, "reference")
        for b, s in zip(batched, serial):
            assert b.to_dict() == s.to_dict()

    def test_failed_chips_batch_matches_serial(self):
        """FaultMaskedTraffic publishes no draw rows, so the compiled
        pre-pass declines and lanes resolve scalar — results must be
        unaffected either way."""
        spec = mesh_spec(
            faults={"model": "fixed", "failed_chips": [1]}
        )
        graph, routing, traffic, schedules = pinned_setup(spec, self.LANES)
        batched = run_batch(
            graph, routing, traffic, spec.params, self.LANES,
            core="native", schedules=schedules,
        )
        serial = serial_results(spec, self.LANES, schedules, "reference")
        for b, s in zip(batched, serial):
            assert b.to_dict() == s.to_dict()

    @pytest.mark.parametrize("mode", ["minimal", "valiant"])
    def test_degraded_hotspot_matches_reference(self, mode):
        """Fault-masked traffic publishes no draw rows (the base
        pattern's would bypass the mask), so a degraded hotspot run
        resolves scalar on the native core, Min or Valiant — and stays
        bit-identical to the reference core."""
        spec = switchless_spec(
            traffic="hotspot",
            traffic_opts={"num_hot": 3},
            routing_opts={"mode": mode},
            faults={"model": "fixed", "failed_chips": [0, 5]},
        )
        lanes = self.LANES[:3]
        graph, routing, traffic, schedules = pinned_setup(spec, lanes)
        batched = run_batch(
            graph, routing, traffic, spec.params, lanes,
            core="native", schedules=schedules,
        )
        serial = serial_results(spec, lanes, schedules, "reference")
        for b, s in zip(batched, serial):
            assert b.to_dict() == s.to_dict()

    @pytest.mark.parametrize(
        "traffic_kind", ["bit_reverse", "bit_shuffle", "bit_transpose"]
    )
    def test_permutation_traffic_batch_matches_serial(self, traffic_kind):
        spec = mesh_spec(traffic=traffic_kind)
        lanes = self.LANES[:3]
        graph, routing, traffic, schedules = pinned_setup(spec, lanes)
        batched = run_batch(
            graph, routing, traffic, spec.params, lanes,
            core="native", schedules=schedules,
        )
        serial = serial_results(spec, lanes, schedules, "reference")
        for b, s in zip(batched, serial):
            assert b.to_dict() == s.to_dict()

    def test_non_pow2_permutation_scope_matches_serial(self):
        """A 13-node scope exercises the uniform-fallback tail of the
        permutation's draw rows (draws consumed in event order)."""
        spec = mesh_spec(
            traffic="bit_reverse",
            traffic_opts={"scope": ("nodes", list(range(13)))},
        )
        lanes = self.LANES[:3]
        graph, routing, traffic, schedules = pinned_setup(spec, lanes)
        batched = run_batch(
            graph, routing, traffic, spec.params, lanes,
            core="native", schedules=schedules,
        )
        serial = serial_results(spec, lanes, schedules, "reference")
        for b, s in zip(batched, serial):
            assert b.to_dict() == s.to_dict()

    def test_probed_batch_matches_probed_serial(self):
        spec = mesh_spec()
        lanes = self.LANES[:3]
        probes = ["link_util", "latency_hist"]
        graph, routing, traffic, schedules = pinned_setup(spec, lanes)
        batched = run_batch(
            graph, routing, traffic, spec.params, lanes,
            core="native", schedules=schedules, probes=probes,
        )
        serial = serial_results(
            spec, lanes, schedules, "reference", probes=list(probes)
        )
        for b, s in zip(batched, serial):
            assert b.to_dict() == s.to_dict()
            assert set(b.channels) == {"link_util", "latency_hist"}
            for name in b.channels:
                assert (
                    b.channels[name].to_dict() == s.channels[name].to_dict()
                )


@needs_native
class TestBatchLaneEdges:
    def lanes(self, n, rate=0.3):
        return [(1000 + 17 * i, rate) for i in range(n)]

    @pytest.mark.parametrize("n_lanes,threads", [
        (1, 1),     # single lane
        (1, 8),     # threads clamp to one lane
        (5, 2),     # odd remainder: 5 lanes over 2 threads
        (3, 16),    # more threads than lanes
        (7, 3),     # another odd split
    ])
    def test_every_lane_split_is_bit_identical(self, n_lanes, threads):
        spec = mesh_spec()
        lanes = self.lanes(n_lanes)
        graph, routing, traffic, schedules = pinned_setup(spec, lanes)
        batched = run_batch(
            graph, routing, traffic, spec.params, lanes,
            core="native", schedules=schedules, threads=threads,
        )
        serial = serial_results(spec, lanes, schedules, "native")
        for b, s in zip(batched, serial):
            assert b.to_dict() == s.to_dict()

    def test_threads_env_respected(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "3")
        spec = mesh_spec()
        lanes = self.lanes(6)
        graph, routing, traffic, schedules = pinned_setup(spec, lanes)
        batched = run_batch(
            graph, routing, traffic, spec.params, lanes,
            core="native", schedules=schedules,
        )
        serial = serial_results(spec, lanes, schedules, "native")
        for b, s in zip(batched, serial):
            assert b.to_dict() == s.to_dict()

    def test_batch_is_one_shot(self):
        spec = mesh_spec()
        graph, routing, traffic = build_experiment(spec)
        batch = NativeBatch(
            graph, routing, traffic, spec.params, [1, 2]
        )
        batch.run([0.2, 0.2])
        with pytest.raises(RuntimeError, match="one-shot"):
            batch.run([0.2, 0.2])

    def test_lane_count_mismatch_rejected(self):
        spec = mesh_spec()
        graph, routing, traffic = build_experiment(spec)
        batch = NativeBatch(graph, routing, traffic, spec.params, [1, 2])
        with pytest.raises(ValueError, match="rates"):
            batch.run([0.2])

    @pytest.mark.parametrize("core", SERIAL_CORES)
    def test_unpinned_batch_matches_unpinned_serial(self, core):
        """Free-running lanes sample their own schedules from their
        seed-derived streams — identical to free-running serial runs
        on both cores."""
        spec = switchless_spec()
        lanes = self.lanes(4)
        graph, routing, traffic = build_experiment(spec)
        batched = run_batch(
            graph, routing, traffic, spec.params, lanes, core="native"
        )
        serial = []
        for seed, rate in lanes:
            sim = Simulator(
                graph,
                routing,
                traffic,
                spec.params.scaled(seed=int(seed)),
                core=core,
            )
            serial.append(sim.run(rate))
        for b, s in zip(batched, serial):
            assert b.to_dict() == s.to_dict()


class TestRunBatchFacade:
    def test_non_native_core_fallback_matches_per_lane(self):
        spec = mesh_spec()
        lanes = [(11, 0.2), (22, 0.35)]
        graph, routing, traffic, schedules = pinned_setup(spec, lanes)
        batched = run_batch(
            graph, routing, traffic, spec.params, lanes,
            core="reference", schedules=schedules,
        )
        serial = serial_results(spec, lanes, schedules, "reference")
        for b, s in zip(batched, serial):
            assert b.to_dict() == s.to_dict()

    def test_unknown_core_rejected(self):
        spec = mesh_spec()
        graph, routing, traffic = build_experiment(spec)
        with pytest.raises(ValueError, match="unknown simulation core"):
            run_batch(
                graph, routing, traffic, spec.params, [(1, 0.2)],
                core="turbo",
            )

    def test_schedule_count_mismatch_rejected(self):
        spec = mesh_spec()
        graph, routing, traffic = build_experiment(spec)
        with pytest.raises(ValueError, match="schedules"):
            run_batch(
                graph, routing, traffic, spec.params,
                [(1, 0.2), (2, 0.2)], schedules=[None],
            )


# ----------------------------------------------------------------------
# traffic dest_batch (the draw rows through VecRandom) in isolation
# ----------------------------------------------------------------------
class TestDestBatchHooks:
    def _check_hook(self, traffic, srcs):
        """dest_batch over ``srcs`` must equal scalar dest() per event,
        leaving the RNG in the identical state."""
        scalar = random.Random(77)
        vec = random.Random(77)
        vr = VecRandom.for_rng(vec)
        out = traffic.dest_batch(np.asarray(srcs, dtype=np.int64), vr)
        if out is None:
            return False
        vr.commit()
        expect = []
        for s in srcs:
            d = traffic.dest(int(s), scalar)
            expect.append(-1 if d is None else d)
        assert out.tolist() == expect
        assert vec.getstate() == scalar.getstate()
        return True

    def test_uniform_hook_exact(self):
        spec = mesh_spec()
        graph, _, traffic = build_experiment(spec)
        srcs = [n for n in traffic.active_nodes()][:8] * 40
        assert self._check_hook(traffic, srcs)

    def test_permutation_hooks_exact(self):
        for kind in ("bit_reverse", "bit_shuffle", "bit_transpose"):
            spec = mesh_spec(traffic=kind)
            graph, _, traffic = build_experiment(spec)
            srcs = [n for n in traffic.active_nodes()][:8] * 40
            assert self._check_hook(traffic, srcs)

    def test_non_pow2_scope_fallback_exact(self):
        spec = mesh_spec(
            traffic="bit_reverse",
            traffic_opts={"scope": ("nodes", list(range(13)))},
        )
        graph, _, traffic = build_experiment(spec)
        srcs = [n for n in traffic.active_nodes()] * 30
        assert self._check_hook(traffic, srcs)

    def test_adversarial_and_chip_hooks_exact(self):
        for kind, opts in (
            ("hotspot", {"num_hot": 3}),
            ("worst_case", {}),
            ("uniform", {"exclude": "chip"}),
        ):
            _, _, traffic = build_experiment(
                switchless_spec(traffic=kind, traffic_opts=opts)
            )
            srcs = [n for n in traffic.active_nodes()][::7] * 20
            assert self._check_hook(traffic, srcs), kind

    def test_fault_masked_traffic_has_no_hook(self):
        """FaultMaskedTraffic filters dest() per event, so it offers
        neither draw rows nor dest_batch — the compiled pre-pass must
        see None and decline to the scalar path (covered end-to-end by
        the failed-chips and degraded-hotspot bit-identity tests
        above)."""
        spec = mesh_spec(faults={"model": "fixed", "failed_chips": [1]})
        graph, _, traffic = build_experiment(spec)
        assert getattr(traffic, "dest_batch", None) is None
        assert getattr(traffic, "dest_rows", None) is None
