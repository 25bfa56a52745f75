"""Batch execution of experiment specs over a multiprocessing pool.

The unit of work is one ``(spec, rate)`` point.  Points are simulated
with :func:`~repro.engine.spec.point_seed`-derived seeds, so a point's
result is a pure function of the spec and rate — identical whether it
runs in this process, in a pool worker, or in a previous session whose
result is replayed from the :class:`~repro.engine.cache.ResultCache`.

Sweep semantics match :func:`repro.network.sweep.sweep_rates`: rates
are walked in order and the sweep is cut off after
``stop_after_saturation`` saturated points.  The parallel scheduler may
*speculatively* simulate a few points past the eventual cutoff (they
are cached but excluded from the returned sweep), which is what lets a
single sweep's points run concurrently.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import sys
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..network.native import THREADS_ENV, NativeBatch, native_available
from ..obs import REGISTRY
from ..obs import trace as obs_trace
from ..network.simulator import (
    CORE_ENV,
    Simulator,
    _attach_probe_channels,
    run_batch,
)
from ..network.stats import SimResult
from ..network.sweep import LoadSweep, assemble_sweep, cutoff_walk
from .cache import ResultCache
from .spec import (
    ENGINE_VERSION,
    ExperimentSpec,
    build_experiment,
    build_metrics,
    build_routing,
    build_system,
    point_key,
    point_seed,
)

__all__ = [
    "PointCallback",
    "PointFailure",
    "run_experiments",
    "simulate_point",
    "spec_saturation",
]


class PointFailure(RuntimeError):
    """A point (or sweep) that keeps killing its worker process.

    Raised by the pooled schedulers after a crash-suspect re-run solo
    and crashed again through its retry budget — a *poison* input.  A
    dead worker only ever fails the points it was carrying: everything
    else in the run completes (or is retried) normally.
    """

#: signature of the optional per-point completion hook of
#: :func:`run_experiments`: ``on_point(spec_index, rate_index, rate,
#: result, source)`` where ``source`` is ``"cache"`` for replayed
#: points and ``"fresh"`` for newly simulated ones.  Exceptions raised
#: by the hook abort the run (in-flight points of the parallel /
#: batched schedulers still land in the cache first).
PointCallback = Callable[[int, int, float, SimResult, str], None]

logger = logging.getLogger("repro.engine")

# runtime telemetry (repro.obs).  Counters/histograms are recorded in
# the *parent* process only — pool workers have their own (discarded)
# registry copies; their spans still land via the REPRO_SPANLOG file.
_M_POINTS = REGISTRY.counter(
    "engine_points_total",
    "Points delivered by run_experiments "
    "(source=cache replayed, source=fresh simulated)",
    ("source",),
)
_M_POINT_SECONDS = REGISTRY.histogram(
    "engine_point_seconds",
    "Wall time per freshly simulated point (serial path)",
)
_M_CRASHES = REGISTRY.counter(
    "engine_worker_crashes_total",
    "Engine pool crashes (a worker died mid-point/sweep)",
)
_M_BATCH_LANES = REGISTRY.histogram(
    "engine_batch_lanes",
    "Lanes packed per batched kernel dispatch (occupancy)",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)

#: environment override for the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: environment override for the per-point retry budget: how many times
#: a point that *raised* (not crashed) is re-attempted before its error
#: propagates.  Crash retries (dead worker) use the same budget.
POINT_RETRIES_ENV = "REPRO_POINT_RETRIES"

#: environment override for the engine's batched fast path: unset/auto
#: batches whenever the native core is in play; ``0``/``off`` forces
#: the per-point path.
BATCH_ENV = "REPRO_SIM_BATCH"

#: minimum lanes per batch dispatch.  Each chunk is one packed kernel
#: call; points past a saturation cutoff inside the final chunk are
#: speculative (cached but excluded from the sweep), exactly like the
#: parallel scheduler's in-flight points — so the chunk size bounds
#: speculation the same way ``workers`` does there.  Eight lanes
#: amortize per-chunk setup (batch construction, route-plane lookups)
#: measurably better than four while still keeping at most seven
#: speculative points past a cutoff.
_BATCH_CHUNK_MIN = 8

# Worker-local reuse of built topologies and routings: building a graph
# can cost as much as simulating a low-rate point, every point of a
# sweep shares one, and a reused deterministic routing carries its
# (src, dst) -> path memo from point to point.  Keyed by the spec
# fields that define each object.
_SYSTEM_LRU_SIZE = 4
_systems: "OrderedDict[Tuple, object]" = OrderedDict()
_routings: "OrderedDict[Tuple, object]" = OrderedDict()
# Batched path, table-routed configurations only (routings without a
# closed-form route_plane(): meshes, fat-tree, PolarFly, HammingMesh,
# fault-aware repair paths): the donor core carrying the resolved route
# table (arena + memo + sorted mirror), keyed like _routings, so
# consecutive batched sweeps of one configuration skip route
# resolution entirely.  The per-point path keeps its pre-batch
# behaviour (fresh core, lazy resolution per point).
_route_tables: "OrderedDict[Tuple, object]" = OrderedDict()


def _lru_get(table: "OrderedDict[Tuple, object]", key: Tuple, build):
    obj = table.get(key)
    if obj is None:
        obj = build()
        table[key] = obj
        while len(table) > _SYSTEM_LRU_SIZE:
            table.popitem(last=False)
    else:
        table.move_to_end(key)
    return obj


def simulate_point(spec: ExperimentSpec, rate: float) -> SimResult:
    """Simulate one point with its deterministic derived seed."""
    if os.environ.get("REPRO_CHAOS"):
        # fault injection (tests only): lazy so the production path
        # never imports the service layer; see repro.service.chaos
        from ..service import chaos

        chaos.engine_point(f"{spec.label or spec.describe()}@{rate:g}")
    topo_key = (spec.topology, spec.topology_opts)
    system = _lru_get(_systems, topo_key, lambda: build_system(spec))
    # the fault axis is part of the routing identity: a fault-aware
    # wrapper (and its repair trees / route memo) must never be reused
    # for a different fault instance, nor for the healthy system
    routing = _lru_get(
        _routings,
        topo_key + (spec.routing, spec.routing_opts, spec.faults),
        lambda: build_routing(spec, system),
    )
    graph, routing, traffic = build_experiment(
        spec, system=system, routing=routing
    )
    if spec.workload:
        # closed-loop: phase-scheduled injection, window = makespan
        from ..workload.driver import run_closed_loop

        return run_closed_loop(spec, graph, routing, traffic, rate)
    params = spec.params.scaled(seed=point_seed(spec, rate))
    return Simulator(
        graph, routing, traffic, params, probes=build_metrics(spec)
    ).run(rate)


def _point_retries() -> int:
    env = os.environ.get(POINT_RETRIES_ENV)
    if env:
        return max(0, int(env))
    return 1


def _attempt_point(spec: ExperimentSpec, rate: float) -> SimResult:
    """``simulate_point`` with the per-point retry budget applied.

    A raising point is re-attempted up to ``REPRO_POINT_RETRIES`` extra
    times (results are pure functions of ``(spec, rate)``, so a retry
    is exact); the last error propagates.  Worker *crashes* cannot be
    handled here — the pooled schedulers contain those.
    """
    retries = _point_retries()
    attempt = 0
    while True:
        attempt += 1
        try:
            return simulate_point(spec, rate)
        except Exception as exc:
            if attempt > retries:
                raise
            logger.warning(
                "%s rate=%.3f attempt %d failed (%s: %s); retrying",
                spec.describe(),
                rate,
                attempt,
                type(exc).__name__,
                exc,
            )


def _point_task(task: Tuple[int, int, ExperimentSpec, float]):
    """One pooled point, run inside a worker process.

    The span parents to the ``REPRO_TRACEPARENT`` carrier and lands in
    the ``REPRO_SPANLOG`` file (both inherited through the pool), so
    worker-side timings join the submitting job's trace."""
    si, ri, spec, rate = task
    with obs_trace.span(
        "engine.point",
        label=spec.label or spec.describe(),
        rate=rate,
        worker=os.getpid(),
    ):
        res = _attempt_point(spec, rate)
    return si, ri, res


def _resolve_workers(
    workers: Optional[int],
    total_points: int,
    kernel_threads: int = 1,
) -> int:
    """Pool size: explicit/env/cpu-count default, clamped to both the
    amount of work and the machine.  Oversubscribing a CPU-bound
    simulation only adds pool overhead — an early benchmark forced 4
    workers onto a 1-CPU host and reported the resulting 0.7x slowdown
    as a parallel 'speedup'.

    ``kernel_threads`` is how many threads each worker's kernel calls
    will spin up (the batched path's lane threads); the clamp keeps
    ``workers x kernel_threads <= cpu_count`` so process- and
    thread-level parallelism never multiply into oversubscription.
    """
    cpus = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        workers = int(env) if env else cpus
    budget = max(1, cpus // max(1, kernel_threads))
    return max(1, min(workers, total_points, budget))


def _kernel_threads() -> int:
    """Lane threads per batched kernel call (``REPRO_SIM_THREADS`` or
    the CPU count; :func:`repro.network.native.resolve_threads` clamps
    to the actual lane count per call)."""
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _batch_enabled(batch: Optional[bool]) -> bool:
    """Whether run_experiments takes the batched fast path.

    Explicit ``batch=`` wins; otherwise auto: batch when the native
    core would be the session's core (available and not overridden via
    ``REPRO_SIM_CORE``) and ``REPRO_SIM_BATCH`` does not disable it.
    The auto rule keeps non-native sessions on the per-point path,
    whose process pool is what parallelises pure-Python cores.
    """
    if batch is not None:
        return bool(batch)
    env = (os.environ.get(BATCH_ENV) or "").strip().lower()
    if env in ("0", "off", "no", "false"):
        return False
    core = os.environ.get(CORE_ENV)
    if core and core not in ("native",):
        return False
    return native_available()


def _pool_context():
    # fork is the cheap path but is only reliably safe on Linux; macOS
    # made spawn the default because forking a process with Objective-C
    # / Accelerate state aborts or hangs in the child.
    if sys.platform.startswith("linux"):
        methods = mp.get_all_start_methods()
        if "fork" in methods:
            return mp.get_context("fork")
    return mp.get_context("spawn")


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def run_experiments(
    specs: Sequence[ExperimentSpec],
    *,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    stop_after_saturation: int = 1,
    batch: Optional[bool] = None,
    on_point: Optional[PointCallback] = None,
) -> List[LoadSweep]:
    """Run every spec's sweep, fanning points out over a process pool.

    Parameters
    ----------
    specs:
        Experiments to run; one :class:`LoadSweep` is returned per spec,
        in order.
    workers:
        Pool size.  ``None`` reads ``REPRO_WORKERS`` and falls back to
        the CPU count; ``<= 1`` selects the serial in-process path,
        which runs points strictly in rate order (no speculation).
        On the batched path, workers parallelise *sweeps* while kernel
        threads parallelise lanes within a sweep, clamped together so
        ``workers x threads <= cpu_count``.
    cache:
        Optional on-disk store; previously simulated points are loaded
        instead of re-run, and fresh points are written back.
    stop_after_saturation:
        Cut each sweep off after this many saturated points, exactly as
        :func:`repro.network.sweep.sweep_rates` does.
    batch:
        ``True``/``False`` forces the batched fast path on/off;
        ``None`` (default) auto-enables it when the native core is the
        session's core (see ``REPRO_SIM_BATCH``).  Batched results are
        bit-identical to per-point results: each lane keeps its
        :func:`~repro.engine.spec.point_seed`-derived seed, cache
        entries are interchangeable between both paths, and saturation
        cutoffs still stop a sweep (a final chunk may speculate a few
        points past the cutoff, exactly like the parallel scheduler).
    on_point:
        Optional :data:`PointCallback` invoked in *this* process as each
        point completes — cache replays first (``source="cache"``), then
        fresh points in completion order (``source="fresh"``).  Its
        events may be a superset of the returned sweeps: speculative
        points past a saturation cutoff are reported (and cached) but
        excluded from the assembled results.  Raising from the hook
        aborts the run; already-completed points stay cached, which is
        how the service layer implements job cancellation.
    """
    if stop_after_saturation < 1:
        raise ValueError("stop_after_saturation must be >= 1")
    specs = list(specs)
    have: List[Dict[int, SimResult]] = [{} for _ in specs]

    with obs_trace.span("engine.run", specs=len(specs)) as run_span:
        # Replay every cached point first: cutoffs may be decided.
        if cache is not None:
            with obs_trace.span("engine.cache_replay") as replay_span:
                replayed = 0
                for si, spec in enumerate(specs):
                    for ri, rate in enumerate(spec.rates):
                        res = cache.get(point_key(spec, rate))
                        if res is not None:
                            have[si][ri] = res
                            replayed += 1
                            if on_point is not None:
                                on_point(si, ri, rate, res, "cache")
                if replayed:
                    _M_POINTS.inc(replayed, source="cache")
                replay_span.set(points=replayed)

        total_missing = sum(
            1
            for si, spec in enumerate(specs)
            for ri in range(len(spec.rates))
            if ri not in have[si]
        )
        # closed-loop specs can't ride the packed native kernel (the
        # plan needs a per-cycle callback); they take the pooled path
        use_batch = (
            total_missing > 0
            and _batch_enabled(batch)
            and not any(s.workload for s in specs)
        )
        if use_batch:
            threads = _kernel_threads()
            workers = _resolve_workers(
                workers, len(specs), kernel_threads=threads
            )
        else:
            workers = _resolve_workers(workers, total_missing)
        run_span.set(missing=total_missing, workers=workers)
        t0 = time.perf_counter()

        # Advertise the ambient context to pool workers: both pooled
        # schedulers create their pools inside this window, so forked
        # and spawned children alike inherit the carrier and parent
        # their spans correctly (spans land via REPRO_SPANLOG).
        ctx = obs_trace.current_context()
        saved = os.environ.get(obs_trace.TRACEPARENT_ENV)
        saved_pid = os.environ.get(obs_trace.TRACEPARENT_PID_ENV)
        if ctx is not None and obs_trace.tracing_active():
            os.environ[obs_trace.TRACEPARENT_ENV] = (
                obs_trace.format_traceparent(ctx)
            )
            # mark the carrier as ours: only *child* processes read it
            os.environ[obs_trace.TRACEPARENT_PID_ENV] = str(os.getpid())
        try:
            if total_missing == 0:
                pass  # everything replayed from cache
            elif use_batch:
                _run_batched(
                    specs, have, cache, stop_after_saturation, workers,
                    threads, on_point,
                )
            elif workers <= 1:
                _run_serial(
                    specs, have, cache, stop_after_saturation, on_point
                )
            else:
                _run_parallel(
                    specs, have, cache, stop_after_saturation, workers,
                    on_point,
                )
        finally:
            if saved is None:
                os.environ.pop(obs_trace.TRACEPARENT_ENV, None)
            else:
                os.environ[obs_trace.TRACEPARENT_ENV] = saved
            if saved_pid is None:
                os.environ.pop(obs_trace.TRACEPARENT_PID_ENV, None)
            else:
                os.environ[obs_trace.TRACEPARENT_PID_ENV] = saved_pid

        sweeps = [
            assemble_sweep(
                spec.label or spec.describe(),
                spec.rates,
                have[si],
                stop_after_saturation,
            )
            for si, spec in enumerate(specs)
        ]
        logger.info(
            "ran %d spec(s) (%d points missing of %d) with %d "
            "worker(s) in %.2fs",
            len(specs),
            total_missing,
            sum(len(s.rates) for s in specs),
            workers,
            time.perf_counter() - t0,
        )
    return sweeps


def _store(
    cache: Optional[ResultCache],
    spec: ExperimentSpec,
    rate: float,
    res: SimResult,
) -> None:
    if cache is not None:
        cache.put(
            point_key(spec, rate),
            res,
            # the engine version is hashed into the key, so stamping it
            # here is redundant for lookups — but it lets the store's
            # stats scan report the version mix of a long-lived
            # directory (see ``repro-dragonfly cache stats``)
            meta={
                "label": spec.label,
                "rate": rate,
                "engine": ENGINE_VERSION,
            },
        )


def _run_serial(
    specs: Sequence[ExperimentSpec],
    have: List[Dict[int, SimResult]],
    cache: Optional[ResultCache],
    stop_after_saturation: int,
    on_point: Optional[PointCallback] = None,
) -> None:
    for si, spec in enumerate(specs):
        while True:
            complete, ri = cutoff_walk(
                len(spec.rates), have[si], stop_after_saturation
            )
            if complete:
                break
            rate = spec.rates[ri]
            t0 = time.perf_counter()
            with obs_trace.span(
                "engine.point",
                label=spec.label or spec.describe(),
                rate=rate,
            ):
                res = _attempt_point(spec, rate)
            elapsed = time.perf_counter() - t0
            logger.debug(
                "%s rate=%.3f done in %.2fs",
                spec.describe(), rate, elapsed,
            )
            _M_POINTS.inc(source="fresh")
            _M_POINT_SECONDS.observe(elapsed)
            have[si][ri] = res
            with obs_trace.span("store.write", rate=rate):
                _store(cache, spec, rate, res)
            if on_point is not None:
                on_point(si, ri, rate, res, "fresh")


def _run_parallel(
    specs: Sequence[ExperimentSpec],
    have: List[Dict[int, SimResult]],
    cache: Optional[ResultCache],
    stop_after_saturation: int,
    workers: int,
    on_point: Optional[PointCallback] = None,
) -> None:
    """Completion-driven scheduler: workers never idle on a barrier.

    Up to ``workers`` points are in flight at once, drawn round-robin
    across incomplete sweeps in rate order; each completion immediately
    refills the freed worker.  Saturation cutoffs are re-evaluated on
    every completion, so a sweep that saturates stops feeding new points
    (in-flight ones finish, are cached, and are simply excluded by the
    final assembly — results are order-independent thanks to the
    per-point derived seeds).

    **Crash containment.**  A worker dying (SIGKILL, segfault, OOM)
    breaks the whole ``ProcessPoolExecutor``; every in-flight point is
    lost but nothing tells us *which* point killed it.  The lost points
    go on **probation**: a fresh pool re-runs them one at a time, so a
    poison point crashes solo and is blamed definitively — after the
    retry budget it raises :class:`PointFailure`; innocent casualties
    complete on their first probation pass and the scheduler resumes
    full-width.  Completed points are already cached, so a crash never
    loses finished work.
    """
    ctx = _pool_context()
    max_crashes = 1 + _point_retries()
    crashes: Dict[Tuple[int, int], int] = {}
    probation: List[Tuple[int, int]] = []

    def record(si: int, ri: int, res: SimResult) -> None:
        have[si][ri] = res
        _M_POINTS.inc(source="fresh")
        _store(cache, specs[si], specs[si].rates[ri], res)
        if on_point is not None:
            on_point(si, ri, specs[si].rates[ri], res, "fresh")

    def next_points(
        inflight: Set[Tuple[int, int]], limit: int
    ) -> List[Tuple[int, int]]:
        """Points to submit, round-robin across incomplete sweeps."""
        queues = []
        for si, spec in enumerate(specs):
            complete, first = cutoff_walk(
                len(spec.rates), have[si], stop_after_saturation
            )
            if complete:
                continue
            queue = [
                (si, ri)
                for ri in range(first, len(spec.rates))
                if ri not in have[si] and (si, ri) not in inflight
            ]
            if queue:
                queues.append(queue)
        picked: List[Tuple[int, int]] = []
        depth = 0
        while len(picked) < limit and queues:
            progressed = False
            for queue in queues:
                if depth >= len(queue) or len(picked) >= limit:
                    continue
                picked.append(queue[depth])
                progressed = True
            if not progressed:
                break
            depth += 1
        return picked

    while True:
        inflight_now: List[Tuple[int, int]] = []
        try:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=ctx
            ) as pool:
                # probation: crash suspects re-run solo for blame
                while probation:
                    si, ri = probation[0]
                    inflight_now = [(si, ri)]
                    future = pool.submit(
                        _point_task,
                        (si, ri, specs[si], specs[si].rates[ri]),
                    )
                    _, _, res = future.result()
                    record(si, ri, res)
                    probation.pop(0)
                    crashes.pop((si, ri), None)
                inflight_now = []
                futures: Dict = {}

                def submit(si: int, ri: int) -> None:
                    futures[
                        pool.submit(
                            _point_task,
                            (si, ri, specs[si], specs[si].rates[ri]),
                        )
                    ] = (si, ri)

                for si, ri in next_points(set(), workers):
                    submit(si, ri)
                while futures:
                    inflight_now = list(futures.values())
                    done_set, _ = wait(
                        set(futures), return_when=FIRST_COMPLETED
                    )
                    for future in done_set:
                        si, ri = futures.pop(future)
                        _, _, res = future.result()
                        record(si, ri, res)
                        logger.debug(
                            "%s rate=%.3f done (%d in flight)",
                            specs[si].describe(),
                            specs[si].rates[ri],
                            len(futures),
                        )
                    for si, ri in next_points(
                        set(futures.values()), workers - len(futures)
                    ):
                        submit(si, ri)
                return
        except BrokenProcessPool:
            _M_CRASHES.inc()
            lost = [
                (si, ri)
                for si, ri in inflight_now
                if ri not in have[si]
            ]
            if len(lost) == 1:
                point = lost[0]
                crashes[point] = crashes.get(point, 0) + 1
                if crashes[point] >= max_crashes:
                    si, ri = point
                    raise PointFailure(
                        f"{specs[si].describe()} rate="
                        f"{specs[si].rates[ri]:.3f} crashed its worker "
                        f"process {crashes[point]} time(s); giving up "
                        "on this point (other points completed "
                        "normally)"
                    ) from None
            probation = lost + [p for p in probation if p not in lost]
            logger.warning(
                "engine pool crashed (worker died); re-running %d "
                "lost point(s) under probation",
                len(lost),
            )


def _sweep_batch(
    spec: ExperimentSpec,
    have_ri: Dict[int, SimResult],
    stop_after_saturation: int,
    threads: int,
    on_point=None,
) -> Dict[int, SimResult]:
    """Walk one spec's sweep in packed lane batches.

    Each iteration dispatches the next ``max(_BATCH_CHUNK_MIN,
    threads)`` missing rates as one packed batch — per-lane seeds are
    the same :func:`~repro.engine.spec.point_seed` values
    ``simulate_point`` uses, so every point's result is bit-identical
    to the per-point path.  The cutoff walk re-runs between chunks, so
    a saturated sweep stops after at most one speculative chunk.  On
    the native path a routing with a closed-form route plane resolves
    each chunk's packets in bulk and keeps nothing; for table-routed
    configurations consecutive chunks hand the resolved route table
    forward (``route_donor``), so each (src, dst) route is resolved
    once per *sweep*, not once per chunk.  Returns only the newly
    simulated points.
    """
    with obs_trace.span(
        "route.resolve", label=spec.label or spec.describe()
    ):
        topo_key = (spec.topology, spec.topology_opts)
        system = _lru_get(
            _systems, topo_key, lambda: build_system(spec)
        )
        routing_key = topo_key + (
            spec.routing, spec.routing_opts, spec.faults
        )
        routing = _lru_get(
            _routings, routing_key, lambda: build_routing(spec, system)
        )
        graph, routing, traffic = build_experiment(
            spec, system=system, routing=routing
        )
    probes = build_metrics(spec)
    native = (
        os.environ.get(CORE_ENV) in (None, "", "native")
        and native_available()
    )
    # NativeBatch validates the donor (same graph/routing objects,
    # deterministic) and silently ignores a stale one, so a table
    # whose routing was rebuilt after LRU eviction is never misused.
    donor = _route_tables.get(routing_key) if native else None
    chunk_size = max(_BATCH_CHUNK_MIN, threads)
    merged = dict(have_ri)
    new: Dict[int, SimResult] = {}
    while True:
        complete, first = cutoff_walk(
            len(spec.rates), merged, stop_after_saturation
        )
        if complete:
            break
        pending = [
            ri
            for ri in range(first, len(spec.rates))
            if ri not in merged
        ]
        chunk = pending[:chunk_size]
        lanes = [
            (point_seed(spec, spec.rates[ri]), spec.rates[ri])
            for ri in chunk
        ]
        if os.environ.get("REPRO_CHAOS"):
            from ..service import chaos

            for _, lane_rate in lanes:
                chaos.engine_point(
                    f"{spec.label or spec.describe()}@{lane_rate:g}"
                )
        t0 = time.perf_counter()
        _M_BATCH_LANES.observe(len(chunk))
        if native:
            with obs_trace.span(
                "kernel.prepare",
                lanes=len(chunk),
                donor=donor is not None,
            ):
                batch = NativeBatch(
                    graph,
                    routing,
                    traffic,
                    spec.params,
                    [seed for seed, _ in lanes],
                    probes=bool(probes),
                    route_donor=donor,
                )
            with obs_trace.span(
                "kernel.run", lanes=len(chunk), threads=threads
            ):
                results = batch.run(
                    [rate for _, rate in lanes], threads=threads
                )
            donor = batch.route_donor or donor
            if probes:
                with obs_trace.span("probe.decode", lanes=len(chunk)):
                    for (_, rate), core, res in zip(
                        lanes, batch.lanes, results
                    ):
                        _attach_probe_channels(core, rate, probes, res)
        else:
            with obs_trace.span(
                "kernel.run",
                lanes=len(chunk),
                threads=threads,
                core="python",
            ):
                results = run_batch(
                    graph,
                    routing,
                    traffic,
                    spec.params,
                    lanes,
                    threads=threads,
                    probes=probes or None,
                )
        logger.debug(
            "%s batched %d lane(s) in %.2fs",
            spec.describe(), len(chunk), time.perf_counter() - t0,
        )
        for ri, res in zip(chunk, results):
            merged[ri] = res
            new[ri] = res
            if on_point is not None:
                on_point(ri, spec.rates[ri], res)
    if native and donor is not None:
        _route_tables[routing_key] = donor
        _route_tables.move_to_end(routing_key)
        while len(_route_tables) > _SYSTEM_LRU_SIZE:
            _route_tables.popitem(last=False)
    return new


def _sweep_batch_task(task):
    si, spec, have_ri, stop_after_saturation, threads = task
    return si, _sweep_batch(spec, have_ri, stop_after_saturation, threads)


def _run_batched(
    specs: Sequence[ExperimentSpec],
    have: List[Dict[int, SimResult]],
    cache: Optional[ResultCache],
    stop_after_saturation: int,
    workers: int,
    threads: int,
    on_point: Optional[PointCallback] = None,
) -> None:
    """Batched scheduler: one packed kernel call per chunk of rates.

    The unit of pool work is a whole sweep (its chunks must run in
    cutoff order), so processes parallelise across specs while kernel
    threads parallelise lanes within each chunk.  Cache writes stay in
    the parent, as in the per-point schedulers.  ``on_point`` fires in
    the parent: per chunk on the inline path, per completed sweep on
    the pooled path (the callback is not picklable in general, so it
    never crosses into a worker).
    """
    incomplete = [
        si
        for si, spec in enumerate(specs)
        if not cutoff_walk(
            len(spec.rates), have[si], stop_after_saturation
        )[0]
    ]
    if workers > 1 and len(incomplete) > 1:
        ctx = _pool_context()
        max_crashes = 1 + _point_retries()
        crashes: Dict[int, int] = {}
        todo = list(incomplete)
        solo = False  # after a crash, re-run suspects one at a time

        def record_sweep(si: int, new: Dict[int, SimResult]) -> None:
            if new:
                _M_POINTS.inc(len(new), source="fresh")
            for ri in sorted(new):
                res = new[ri]
                have[si][ri] = res
                _store(cache, specs[si], specs[si].rates[ri], res)
                if on_point is not None:
                    on_point(si, ri, specs[si].rates[ri], res, "fresh")

        while todo:
            batch_now = todo[:1] if solo else list(todo)
            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(batch_now)),
                    mp_context=ctx,
                ) as pool:
                    futures = {
                        pool.submit(
                            _sweep_batch_task,
                            (
                                si,
                                specs[si],
                                have[si],
                                stop_after_saturation,
                                threads,
                            ),
                        ): si
                        for si in batch_now
                    }
                    for future in as_completed(futures):
                        si, new = future.result()
                        record_sweep(si, new)
                        todo.remove(si)
            except BrokenProcessPool:
                _M_CRASHES.inc()
                lost = [si for si in batch_now if si in todo]
                if len(lost) == 1:
                    si = lost[0]
                    crashes[si] = crashes.get(si, 0) + 1
                    if crashes[si] >= max_crashes:
                        raise PointFailure(
                            f"sweep {specs[si].describe()} crashed "
                            f"its worker process {crashes[si]} "
                            "time(s); giving up on this sweep (other "
                            "sweeps completed normally)"
                        ) from None
                solo = True
                logger.warning(
                    "engine pool crashed (worker died); re-running "
                    "%d lost sweep(s) one at a time",
                    len(lost),
                )
    else:
        for si in incomplete:

            def _chunk_point(ri, rate, res, si=si):
                have[si][ri] = res
                _M_POINTS.inc(source="fresh")
                _store(cache, specs[si], rate, res)
                if on_point is not None:
                    on_point(si, ri, rate, res, "fresh")

            _sweep_batch(
                specs[si],
                have[si],
                stop_after_saturation,
                threads,
                on_point=_chunk_point,
            )


def spec_saturation(
    spec: ExperimentSpec,
    *,
    lo: float = 0.05,
    hi: float = 4.0,
    tol: float = 0.05,
    max_iter: int = 12,
    cache: Optional[ResultCache] = None,
) -> float:
    """Bisect a spec's saturation rate (engine twin of
    :func:`repro.network.sweep.find_saturation`).

    Probes reuse the worker-local system and, when a ``cache`` is given,
    are persisted like any other point, so repeated searches converge
    from cached probes.
    """

    def probe(rate: float) -> bool:
        res = None
        if cache is not None:
            res = cache.get(point_key(spec, rate))
        if res is None:
            res = simulate_point(spec, rate)
            _store(cache, spec, rate, res)
        return res.saturated

    if probe(lo):
        return 0.0
    if not probe(hi):
        return hi
    good, bad = lo, hi
    for _ in range(max_iter):
        if bad - good <= tol:
            break
        mid = 0.5 * (good + bad)
        if probe(mid):
            bad = mid
        else:
            good = mid
    return good
