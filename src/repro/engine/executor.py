"""Execution of experiment specs: one chunk scheduler, one lane runner.

The unit of work is a *chunk*: the next few missing rates of one spec,
simulated together by :func:`_run_chunk`.  How many is computed, never
set (:func:`_chunk_width`): a packed batch of lanes when the session's
core is the compiled kernel (open-loop and closed-loop specs alike),
one rate otherwise.  Every lane is simulated with its
:func:`~repro.engine.spec.point_seed`-derived seed, so a point's result
is a pure function of the spec and rate — identical whatever chunk it
rode in, whether that chunk ran in this process or in a pool worker,
or in a previous session whose result is replayed from the
:class:`~repro.engine.cache.ResultCache`.

Every spec comes back as one :class:`~repro.network.stats.CurveResult`
(``spec_key`` = the spec's ``config_key()``), the same type
:func:`repro.network.sweep_rates` returns and ``repro.api`` nests into
scenarios, cut by the same rule (:func:`~repro.network.stats.
cutoff_walk`): rates are walked in order and the curve ends after
``stop_after_saturation`` saturated points.  Chunks carry the rule
down to :func:`~repro.network.simulator.run_batch`, which stops at the
cutoff, so nothing past it is simulated or cached — except in a pool,
by a chunk started while earlier rates of its sweep were in flight
(which is what lets a single sweep's points run concurrently).

A point's identity is its :func:`~repro.engine.spec.point_key` (the
label is not part of it), hashed once per point per run.  Each key is
read from the cache once, simulated once — by the first curve that
needs it, never while it is in flight — and stored once; its result
then goes to every other point with that key.
"""

from __future__ import annotations

import logging
import os
import sys
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..network.native import THREADS_ENV, env_int
from ..network.simulator import resolve_core, run_batch
from ..network.stats import CurveResult, PointResult, SimResult, cutoff_walk
from ..obs import REGISTRY
from ..obs import trace as obs_trace
from .cache import ResultCache
from .spec import (
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
]


class PointFailure(RuntimeError):
    """A chunk of points that keeps killing its worker process.

    Raised by the scheduler after a crash-suspect re-ran solo and
    crashed again (:data:`_MAX_CRASHES` crashes) — a *poison* input.  A dead
    worker only ever fails the chunks it was carrying: everything else
    in the run completes (or is retried) normally.
    """

#: signature of the optional per-point completion hook of
#: :func:`run_experiments`: ``on_point(spec_index, rate_index, rate,
#: result, source)`` where ``source`` is ``"cache"`` for replayed
#: points and ``"fresh"`` for newly simulated ones (a point sharing
#: another point's key gets that point's source).  Exceptions raised
#: by the hook abort the run (chunks in flight on pool workers are
#: abandoned; every point reported so far is already in the cache).
PointCallback = Callable[[int, int, float, SimResult, str], None]

#: one unit of scheduled work: ``(spec index, rate indices)``.
Chunk = Tuple[int, Tuple[int, ...]]

logger = logging.getLogger("repro.engine")

# runtime telemetry (repro.obs).  Counters/histograms are recorded in
# the *parent* process only — pool workers have their own (discarded)
# registry copies; their spans land in the span file (see _schedule).
_M_POINTS = REGISTRY.counter(
    "engine_points_total",
    "Points delivered by run_experiments (source=cache replayed, "
    "source=fresh simulated, source=shared another point's key)",
    ("source",),
)
_M_POINT_SECONDS = REGISTRY.histogram(
    "engine_point_seconds",
    "Wall time per freshly simulated point (chunk time / lanes)",
)
_M_CRASHES = REGISTRY.counter(
    "engine_worker_crashes_total",
    "Engine pool crashes (a worker died mid-chunk)",
)
_M_BATCH_LANES = REGISTRY.histogram(
    "engine_batch_lanes",
    "Lanes per simulated chunk (occupancy of a kernel dispatch)",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)

#: environment override for the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: crashes of one chunk's worker (the last one solo, under probation)
#: before the scheduler gives up on it with :class:`PointFailure`.  A
#: chunk that *raises* is not re-run here: results are pure functions
#: of ``(spec, rate)``, so its error propagates at once and the service
#: supervisor retries the whole execution.
_MAX_CRASHES = 2

#: minimum lanes per packed chunk (its lanes stop at the cutoff).
#: Eight lanes amortize per-chunk setup (batch construction,
#: route-plane lookups) measurably better than four.
_BATCH_CHUNK_MIN = 8

# Worker-local reuse of built topologies and routings: building a graph
# can cost as much as simulating a low-rate point, every point of a
# sweep shares one, and a reused deterministic routing carries its
# route table (each pair resolved once) from point to point.  Keyed by
# the spec fields that define each object.  Chunks of a study's specs run round
# robin, so a table smaller than a study's distinct keys misses on every
# chunk; eight holds the largest bundled working set (``resilience``:
# eight routings; ``fig14_allreduce``: five systems).
_SYSTEM_LRU_SIZE = 8
_systems: "OrderedDict[Tuple, object]" = OrderedDict()
_routings: "OrderedDict[Tuple, object]" = OrderedDict()


def _system_key(spec: ExperimentSpec) -> Tuple:
    return (spec.topology, spec.topology_opts)


def _routing_key(spec: ExperimentSpec) -> Tuple:
    # the fault axis is part of the routing identity: a fault-aware
    # wrapper (and its repair trees / route table) must never be reused
    # for a different fault instance, nor for the healthy system
    return _system_key(spec) + (spec.routing, spec.routing_opts, spec.faults)


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


def _chunk_width(spec: ExperimentSpec, threads: int) -> int:
    """Rates of ``spec`` simulated per chunk.

    A packed batch — at least :data:`_BATCH_CHUNK_MIN` lanes, one per
    kernel thread beyond that — when the compiled kernel will run them,
    whether the spec is open-loop or carries a workload (the kernel
    releases a closed-loop plan's phases itself); one otherwise: the
    pure-Python reference core gains nothing from a batch and is
    parallelised by the process pool instead.
    """
    if resolve_core() == "native":
        return max(_BATCH_CHUNK_MIN, threads)
    return 1


def _run_chunk(
    spec: ExperimentSpec, rates: Sequence[float], threads: int,
    stop_after: Optional[int] = None,
) -> List[SimResult]:
    """Simulate ``rates`` of ``spec``, each with its derived seed, up to
    ``stop_after`` saturated points (see ``run_batch``)."""
    label = spec.label or spec.describe()
    if os.environ.get("REPRO_CHAOS"):
        # fault injection (tests only): lazy so the production path
        # never imports the service layer; see repro.service.chaos
        from ..service import chaos

        for rate in rates:
            chaos.engine_point(f"{label}@{rate:g}")
    with obs_trace.span("engine.build", label=label):
        system = _lru_get(
            _systems, _system_key(spec), lambda: build_system(spec)
        )
        routing = _lru_get(
            _routings, _routing_key(spec),
            lambda: build_routing(spec, system),
        )
        graph, routing, traffic = build_experiment(
            spec, system=system, routing=routing
        )
    plans = None
    if spec.workload:
        # closed-loop: each lane's injections follow its own plan of the
        # workload's phases, and its window is the measured makespan
        from ..workload.driver import plan_points

        with obs_trace.span("workload.plan", label=label, lanes=len(rates)):
            plans = plan_points(spec, traffic, rates)
    return run_batch(
        graph,
        routing,
        traffic,
        spec.params,
        [(point_seed(spec, rate), rate) for rate in rates],
        threads=threads,
        probes=build_metrics(spec),
        plans=plans,
        stop_after=stop_after,
    )


def simulate_point(spec: ExperimentSpec, rate: float) -> SimResult:
    """Simulate one point with its deterministic derived seed."""
    return _run_chunk(spec, [rate], 1)[0]


def _chunk_task(
    spec: ExperimentSpec,
    rates: Sequence[float],
    threads: int,
    stop_after: Optional[int] = None,
) -> Tuple[List[SimResult], float]:
    """One chunk, wherever it runs: the results (a prefix of ``rates``
    when ``stop_after`` cut it) and the wall time.  An error propagates
    at once; worker *crashes* are contained by the scheduler.

    In a pool worker the span parents to the pool's trace carrier and
    lands in the carrier's span file (see ``_schedule``), so
    worker-side timings join the submitting job's trace."""
    t0 = time.perf_counter()
    with obs_trace.span(
        "engine.chunk",
        label=spec.label or spec.describe(),
        lanes=len(rates),
        rates=list(rates),
        worker=os.getpid(),
    ):
        results = _run_chunk(spec, rates, threads, stop_after)
    return results, time.perf_counter() - t0


def _resolve_workers(
    workers: Optional[int],
    total_chunks: int,
    kernel_threads: int = 1,
) -> int:
    """Pool size: explicit/env/cpu-count default, clamped to both the
    amount of work and the machine.  Oversubscribing a CPU-bound
    simulation only adds pool overhead — an early benchmark forced 4
    workers onto a 1-CPU host and reported the resulting 0.7x slowdown
    as a parallel 'speedup'.

    ``kernel_threads`` is how many threads each worker's kernel calls
    will spin up (a packed chunk's lane threads); the clamp keeps
    ``workers x kernel_threads <= cpu_count`` so process- and
    thread-level parallelism never multiply into oversubscription.
    """
    cpus = os.cpu_count() or 1
    if workers is None:
        workers = env_int(WORKERS_ENV, cpus)
    elif workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    budget = max(1, cpus // max(1, kernel_threads))
    return max(1, min(workers, total_chunks, budget))


def _pool_context():
    import multiprocessing as mp

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
    on_point: Optional[PointCallback] = None,
) -> List[CurveResult]:
    """Run every spec's sweep, fanning chunks out over a process pool.

    Parameters
    ----------
    specs:
        Experiments to run; one :class:`~repro.network.stats.
        CurveResult` is returned per spec, in order.
    workers:
        Pool size.  ``None`` reads ``REPRO_WORKERS`` and falls back to
        the CPU count; ``<= 1`` runs the same chunks in this process,
        one spec after the other in rate order.  Workers parallelise
        chunks while kernel threads (``REPRO_SIM_THREADS``) parallelise
        the lanes of a packed chunk, clamped together so
        ``workers x threads <= cpu_count``.
    cache:
        Optional on-disk store; previously simulated points are loaded
        instead of re-run, and fresh points are written back.
    stop_after_saturation:
        Cut each sweep off after this many saturated points, exactly as
        :func:`repro.network.sweep_rates` does.
    on_point:
        Optional :data:`PointCallback` invoked in *this* process as each
        point completes — cache replays first (``source="cache"``), then
        fresh points chunk by chunk in completion order, the points of
        one chunk in rate order (``source="fresh"``).  A point whose
        key another point of the run already read or simulated fires
        its own event with that point's source, once every earlier rate
        of its sweep is known.  Its events are
        the returned curves' points, plus (in a pool only) those of
        chunks cut too late, as the module doc says.  Raising from the
        hook aborts the run;
        already-completed points stay cached, which is how the service
        layer implements job cancellation.
    """
    if stop_after_saturation < 1:
        raise ValueError("stop_after_saturation must be >= 1")
    specs = list(specs)
    have: List[Dict[int, SimResult]] = [{} for _ in specs]
    keys: Dict[Tuple[int, int], str] = {}
    # result and source of every key read or simulated in this run
    known: Dict[str, Tuple[SimResult, str]] = {}
    asked: Set[str] = set()
    counts = {"cache": 0, "shared": 0}

    def key_of(si: int, ri: int) -> str:
        """The point's ``point_key``, hashed once per run."""
        if (si, ri) not in keys:
            keys[si, ri] = point_key(specs[si], specs[si].rates[ri])
        return keys[si, ri]

    def fill() -> None:
        """Walk each sweep in rate order up to its cutoff, handing out
        what is known: a point's own cache hit (one ``get`` per key), or
        a key another point read or simulated (``shared``: only at the
        sweep's first missing rate, so the cutoff is already decided)."""
        for si, spec in enumerate(specs):
            saturated, frontier = 0, True
            for ri, rate in enumerate(spec.rates):
                res = have[si].get(ri)
                if res is None:
                    key = key_of(si, ri)
                    if key in known:
                        if frontier:
                            res = known[key][0]
                            counts["shared"] += 1
                    elif cache is not None and key not in asked:
                        asked.add(key)
                        res = cache.get(key)
                        if res is not None:
                            known[key] = (res, "cache")
                            counts["cache"] += 1
                    if res is None:
                        frontier = False
                        continue
                    have[si][ri] = res
                    if on_point is not None:
                        on_point(si, ri, rate, res, known[key][1])
                saturated += res.saturated
                if saturated >= stop_after_saturation:
                    break

    with obs_trace.span("engine.run", specs=len(specs)) as run_span:
        # Replay cached points first, each sweep up to its cutoff.
        if cache is not None:
            with obs_trace.span("engine.cache_replay") as replay_span:
                fill()
                if counts["cache"]:
                    _M_POINTS.inc(counts["cache"], source="cache")
                replay_span.set(points=counts["cache"])

        missing = [
            len(_needed(len(spec.rates), have[si], stop_after_saturation))
            for si, spec in enumerate(specs)
        ]
        threads = env_int(THREADS_ENV, os.cpu_count() or 1)
        # a fully replayed study never asks which core is in play
        widths = [
            _chunk_width(spec, threads) if missing[si] else 1
            for si, spec in enumerate(specs)
        ]
        workers = _resolve_workers(
            workers,
            sum(-(-m // w) for m, w in zip(missing, widths)),
            kernel_threads=threads if max(widths, default=1) > 1 else 1,
        )
        run_span.set(missing=sum(missing), workers=workers)
        t0 = time.perf_counter()
        if any(missing):
            _schedule(
                specs, have, widths, cache, stop_after_saturation,
                workers, threads, on_point, key_of, known,
                fill,
            )
        if counts["shared"]:
            _M_POINTS.inc(counts["shared"], source="shared")
        run_span.set(shared=counts["shared"])

        curves = [
            _curve(spec, have[si], stop_after_saturation)
            for si, spec in enumerate(specs)
        ]
        logger.info(
            "ran %d spec(s) (%d points missing of %d) with %d "
            "worker(s) in %.2fs",
            len(specs),
            sum(missing),
            sum(len(s.rates) for s in specs),
            workers,
            time.perf_counter() - t0,
        )
    return curves


def _needed(
    num_rates: int, results: Dict[int, SimResult], stop_after_saturation: int
) -> List[int]:
    """Missing rate indices before the ``stop_after_saturation``-th
    known saturated point; empty once ``cutoff_walk`` is complete."""
    needed, saturated = [], 0
    for ri in range(num_rates):
        res = results.get(ri)
        if res is None:
            needed.append(ri)
        elif res.saturated:
            saturated += 1
            if saturated >= stop_after_saturation:
                break
    return needed


def _curve(
    spec: ExperimentSpec,
    results: Dict[int, SimResult],
    stop_after_saturation: int,
) -> CurveResult:
    """The curve a serial in-order walk of ``spec`` would return."""
    complete, n = cutoff_walk(
        len(spec.rates), results, stop_after_saturation
    )
    assert complete, f"{spec.describe()}: no result for rate index {n}"
    return CurveResult(
        label=spec.label or spec.describe(),
        points=tuple(
            PointResult(spec.rates[ri], results[ri]) for ri in range(n)
        ),
        spec_key=spec.config_key(),
    )


def _schedule(
    specs: Sequence[ExperimentSpec],
    have: List[Dict[int, SimResult]],
    widths: Sequence[int],
    cache: Optional[ResultCache],
    stop_after_saturation: int,
    workers: int,
    threads: int,
    on_point: Optional[PointCallback],
    key_of: Callable[[int, int], str],
    known: Dict[str, Tuple[SimResult, str]],
    fill: Callable[[], None],
) -> None:
    """Completion-driven chunk scheduler: workers never idle on a
    barrier.

    Up to ``workers`` chunks are in flight at once, drawn round-robin
    across incomplete sweeps in rate order; each completion immediately
    refills the freed worker.  Saturation cutoffs are re-evaluated on
    every completion, so a sweep that saturates stops feeding new
    chunks.  A chunk's budget is the cutoff minus the saturations known
    before its first rate: exact serially, never too small in a pool
    (an in-flight saturation only moves the cutoff earlier); points
    past the final cutoff are excluded by the assembly (results are
    order-independent thanks to the per-point derived seeds).  With ``workers <= 1`` the same chunks
    run one at a time in this process and no pool is created.  Only
    this process records results: ``have``, ``known``, the cache,
    ``on_point`` and the metrics; after each chunk ``fill`` hands its
    keys to the other points that share them.

    **Crash containment.**  A worker dying (SIGKILL, segfault, OOM)
    breaks the whole ``ProcessPoolExecutor``; every in-flight chunk is
    lost but nothing tells us *which* chunk killed it.  The lost chunks
    go on **probation**: a fresh pool re-runs them one at a time, so a
    poison chunk crashes solo and is blamed definitively — after
    :data:`_MAX_CRASHES` crashes it raises :class:`PointFailure`;
    innocent casualties complete on their first probation pass and the
    scheduler resumes full-width.  Completed chunks are already cached, so a crash never
    loses finished work.

    **Tracing.**  Every pool starts its workers with
    :func:`~repro.obs.trace.join` on the carrier taken once here (the
    ambient ``engine.run`` context and the installed span file), so
    worker spans parent to this run and land once in that file.
    """

    def rates_of(chunk: Chunk) -> List[float]:
        si, ris = chunk
        return [specs[si].rates[ri] for ri in ris]

    def task(chunk: Chunk) -> Tuple:
        """Arguments of the chunk's :func:`_chunk_task` call."""
        si, ris = chunk
        known = sum(r.saturated for ri, r in have[si].items() if ri < ris[0])
        # >= 1 when scheduled; a probation re-run may find it spent
        budget = max(1, stop_after_saturation - known)
        return specs[si], rates_of(chunk), threads, budget

    def record(chunk: Chunk, done: Tuple[List[SimResult], float]) -> None:
        si, ris = chunk
        results, seconds = done
        ris = ris[:len(results)]
        logger.debug(
            "%s %d lane(s) done in %.2fs",
            specs[si].describe(), len(ris), seconds,
        )
        _M_BATCH_LANES.observe(len(ris))
        _M_POINTS.inc(len(ris), source="fresh")
        for ri, rate, res in zip(ris, rates_of(chunk), results):
            _M_POINT_SECONDS.observe(seconds / len(ris))
            have[si][ri] = res
            key = key_of(si, ri)
            known[key] = (res, "fresh")
            if cache is not None:
                with obs_trace.span("store.write", rate=rate):
                    cache.put(
                        key, res, meta={"label": specs[si].label, "rate": rate}
                    )
            if on_point is not None:
                on_point(si, ri, rate, res, "fresh")
        fill()

    def next_chunks(
        inflight: Set[Tuple[int, int]], limit: int
    ) -> List[Chunk]:
        """Chunks to start, round-robin across incomplete sweeps.  A
        sweep's chunks end before its first point whose key is known,
        in flight or already picked for another point."""
        taken = {key_of(si, ri) for si, ri in inflight}
        queues = []
        for si, spec in enumerate(specs):
            pending = []
            for ri in _needed(
                len(spec.rates), have[si], stop_after_saturation
            ):
                if (si, ri) in inflight:
                    continue
                key = key_of(si, ri)
                if key in taken or key in known:
                    break
                taken.add(key)
                pending.append(ri)
            if pending:
                queues.append([
                    (si, tuple(pending[i:i + widths[si]]))
                    for i in range(0, len(pending), widths[si])
                ])
        picked: List[Chunk] = []
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

    if workers <= 1:
        while True:
            picked = next_chunks(set(), 1)
            if not picked:
                return
            record(picked[0], _chunk_task(*task(picked[0])))

    # the process pool (multiprocessing) loads only when a run starts one
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    ctx = _pool_context()
    carrier = obs_trace.worker_carrier()
    crashes: Dict[Chunk, int] = {}
    probation: List[Chunk] = []
    while True:
        inflight_now: List[Chunk] = []
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=ctx,
                initializer=obs_trace.join,
                initargs=(carrier,),
            ) as pool:

                def submit(chunk: Chunk):
                    return pool.submit(_chunk_task, *task(chunk))

                # probation: crash suspects re-run solo for blame
                while probation:
                    inflight_now = probation[:1]
                    record(probation[0], submit(probation[0]).result())
                    crashes.pop(probation.pop(0), None)
                inflight_now = []
                futures = {
                    submit(chunk): chunk
                    for chunk in next_chunks(set(), workers)
                }
                while futures:
                    inflight_now = list(futures.values())
                    done_set, _ = wait(
                        set(futures), return_when=FIRST_COMPLETED
                    )
                    for future in done_set:
                        record(futures.pop(future), future.result())
                    busy = {
                        (si, ri)
                        for si, ris in futures.values()
                        for ri in ris
                    }
                    for chunk in next_chunks(
                        busy, workers - len(futures)
                    ):
                        futures[submit(chunk)] = chunk
                return
        except BrokenProcessPool:
            _M_CRASHES.inc()
            # a chunk is recorded at once, so its first point tells
            lost = [
                chunk for chunk in inflight_now
                if chunk[1][0] not in have[chunk[0]]
            ]
            if len(lost) == 1:
                chunk = lost[0]
                crashes[chunk] = crashes.get(chunk, 0) + 1
                if crashes[chunk] >= _MAX_CRASHES:
                    raise PointFailure(
                        f"{specs[chunk[0]].describe()} rate(s) "
                        f"{', '.join(f'{r:.3f}' for r in rates_of(chunk))}"
                        f" crashed its worker process {crashes[chunk]} "
                        "time(s); giving up on this chunk (other "
                        "points completed normally)"
                    ) from None
            probation = lost + [c for c in probation if c not in lost]
            logger.warning(
                "engine pool crashed (worker died); re-running %d "
                "lost chunk(s) under probation",
                len(lost),
            )
