"""Per-layer probes: the traced run's numbers.

Each probe times calls into one layer's *public* functions, from this
file, on fresh objects built from the same specs the workloads use;
every timed call is a span (``bench/spans.py``) nested under its
layer's span, so self times add up.  Layers are this repo's packages.
All values are host time unless the name says otherwise; counts marked
*exact* in README.md repeat exactly for a fixed seed.

Sizes are constants (``_Sizes``): the traced run must fit the builder's
per-run cap, so sample counts are what the cap allows, not what the
ledger would like; ``quick`` shrinks them further for ``--quick``.
"""

from __future__ import annotations

import contextlib
import io
import logging
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.api import Study, build_study
from repro.engine import (
    ResultCache,
    build_experiment,
    build_routing,
    build_system,
    build_traffic,
    point_key,
    point_seed,
    run_experiments,
)
from repro.metrics import build_probes
from repro.network.native import NativeBatch, load_native
from repro.network.simulator import Simulator
from repro.network.vecrandom import VecRandom
from repro.obs import trace as obs_trace
from repro.workload import PhasePlan, run_closed_loop, workload_for_traffic

from . import env
from .spans import Recorder, fast_decile
from .workloads import PROBES, reseed

#: Fig. 10(c): SW-less saturates at about 1.5x SW-based under uniform
#: traffic, read off the paper's figure (the only reference value the
#: repo's sources support; everything else simulated is unvalidated).
PAPER_SAT_RATIO = 1.5


@dataclass(frozen=True)
class _Sizes:
    pairs: int = 10_000      # distinct (src, dst) pairs routed
    draws: int = 100_000     # destination draws per pattern
    reps: int = 3            # repeats of a timed call; the median is kept
    entries: int = 200       # cache/store entries written and read
    jobs: int = 60           # warm service jobs on the main server
    ab_jobs: int = 30        # warm jobs per journal/telemetry variant
    journal: int = 50        # journal records
    span_iters: int = 5_000  # obs span enter+exit pairs


QUICK = _Sizes(
    pairs=2_000, draws=10_000, reps=1, entries=20, jobs=8, ab_jobs=4,
    journal=10, span_iters=500,
)


def _timed(rec: Recorder, name: str, fn: Callable, reps: int = 1):
    """Median duration of ``reps`` spans around ``fn()``, and the last
    return value."""
    out = None
    first = len(rec.spans)
    for _ in range(reps):
        with rec.span(name):
            out = fn()
    return statistics.median(
        s["end"] - s["start"] for s in rec.spans[first:] if s["name"] == name
    ), out


def _spec(study: str, scale: str, scenario: str, label: str, seed: int):
    study_ = reseed(build_study(study, scale), seed)
    return next(s for s in study_[scenario].specs if s.label == label)


# ----------------------------------------------------------------------
# cli, api
# ----------------------------------------------------------------------
def _cli(rec, m, sz):
    def startup():
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "list"],
            check=True, stdout=subprocess.DEVNULL, cwd=env.ROOT, timeout=60,
        )

    m["cli.startup_s"], _ = _timed(rec, "cli.startup", startup, sz.reps)


def _api(rec, m, sz, seed):
    m["api.build_study_s"], study = _timed(
        rec, "api.build_study",
        lambda: build_study("fig10_local", "default"), 5 * sz.reps,
    )
    # a finished study for to_json, and the repo's one accuracy figure
    panel = Study.wrap(reseed(study, seed)["uniform"])
    _, result = _timed(rec, "api.study_run", lambda: panel.run(workers=1))
    m["api.to_json_s"], _ = _timed(
        rec, "api.to_json", result.to_json, 3 * sz.reps
    )
    curves = result["uniform"]
    ratio = curves["SW-less"].max_accepted / curves["SW-based"].max_accepted
    m["sat_ratio_err"] = abs(ratio / PAPER_SAT_RATIO - 1.0)
    return result


# ----------------------------------------------------------------------
# topology, routing, traffic
# ----------------------------------------------------------------------
def _topology(rec, m, sz, gspec):
    m["topology.build_s"], system = _timed(
        rec, "topology.build", lambda: build_system(gspec), sz.reps
    )
    m["topology.nodes"] = system.graph.num_nodes
    m["topology.links"] = system.graph.num_links
    return system


def _routing(rec, m, sz, seed, gspec, vspec, system):
    m["routing.build_s"], routing = _timed(
        rec, "routing.build", lambda: build_routing(gspec, system), sz.reps
    )
    endpoints = list(build_traffic(gspec, system).active_nodes())
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < sz.pairs:
        s, d = rng.choice(endpoints), rng.choice(endpoints)
        if s != d:
            pairs.add((s, d))
    pairs = sorted(pairs)
    rng.shuffle(pairs)

    def walk(route):
        r = random.Random(seed)
        return sum(len(route(s, d, r)) for s, d in pairs)

    flat = lambda s, d, r: routing.route_flat(s, d, r)[0]  # noqa: E731
    t_first, hops_min = _timed(rec, "routing.first_touch", lambda: walk(flat))
    t_memo, _ = _timed(rec, "routing.memo_hit", lambda: walk(flat), sz.reps)
    valiant = build_routing(vspec, system)
    t_val, hops_val = _timed(
        rec, "routing.valiant", lambda: walk(valiant.route)
    )
    m["routing.first_touch_routes_per_s"] = len(pairs) / t_first
    m["routing.memo_hit_routes_per_s"] = len(pairs) / t_memo
    m["routing.valiant_routes_per_s"] = len(pairs) / t_val
    m["routing.route_hops_total"] = hops_min + hops_val

    # memory of the memo: a second fresh routing, because tracemalloc
    # slows the loop severalfold and must not touch the timed one
    fresh = build_routing(gspec, system)
    with rec.span("routing.table_bytes"):
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        r = random.Random(seed)
        for s, d in pairs:
            fresh.route_flat(s, d, r)
        m["routing.route_table_bytes"] = (
            tracemalloc.get_traced_memory()[0] - before
        )
        tracemalloc.stop()


def _traffic(rec, m, sz, seed, gspec, vspec, system):
    uniform = build_traffic(gspec, system)
    hotspot = build_traffic(vspec, system)
    srcs = np.random.default_rng(seed).choice(
        np.asarray(uniform.active_nodes(), dtype=np.int64), sz.draws
    )
    hot_srcs = list(hotspot.active_nodes())

    def batch():
        vr = VecRandom.for_rng(random.Random(seed))
        return uniform.dest_batch(srcs, vr)

    def scalar():
        r = random.Random(seed)
        n = len(hot_srcs)
        for i in range(sz.draws):
            hotspot.dest(hot_srcs[i % n], r)

    t_batch, _ = _timed(rec, "traffic.dest_batch", batch, sz.reps)
    t_scalar, _ = _timed(rec, "traffic.dest_scalar", scalar)
    m["traffic.dest_draws_per_s"] = 2 * sz.draws / (t_batch + t_scalar)


# ----------------------------------------------------------------------
# network
# ----------------------------------------------------------------------
def _native_load(rec, m, sz, workdir):
    """``load_native()`` in fresh interpreters: empty cache, then filled."""
    code = (
        "import time\n"
        "from repro.network.native import load_native\n"
        "t = time.perf_counter()\n"
        "assert load_native() is not None\n"
        "print(time.perf_counter() - t)\n"
    )

    def load(cache: Path) -> float:
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, text=True,
            capture_output=True, timeout=150, cwd=env.ROOT,
            env={**os.environ, "REPRO_NATIVE_CACHE": str(cache)},
        )
        return float(out.stdout.strip())

    compiles, loads = [], []
    for i in range(sz.reps):
        cache = workdir / f"native-probe-{i}"
        with rec.span("network.native_compile"):
            compiles.append(load(cache))
        with rec.span("network.native_load"):
            loads.append(load(cache))
        shutil.rmtree(cache, ignore_errors=True)
    m["network.native_compile_s"] = statistics.median(compiles)
    m["network.native_load_s"] = statistics.median(loads)


def _lanes(spec) -> Tuple[List[int], List[float]]:
    """Seeds and rates of the first chunk the engine would dispatch."""
    rates = list(spec.rates[:8])
    return [point_seed(spec, r) for r in rates], rates


def _network(rec, m, notes, sz, gspec, system):
    graph, routing, traffic = build_experiment(gspec, system=system)
    seeds, rates = _lanes(gspec)
    params = gspec.params
    sims = [
        Simulator(graph, routing, traffic, params.scaled(seed=s))
        for s in seeds
    ]
    m["network.schedule_build_s"], _ = _timed(
        rec, "network.schedule_build",
        lambda: [sim.make_schedule(r) for sim, r in zip(sims, rates)],
    )

    # cold: fresh routing, no donor -> includes first-touch resolution
    cold = NativeBatch(graph, routing, traffic, params, seeds)
    m["network.batch_run_cold_s"], _ = _timed(
        rec, "network.batch_run_cold", lambda: cold.run(rates, threads=1)
    )
    donor = cold.route_donor

    def prepare():
        return NativeBatch(
            graph, routing, traffic, params, seeds, route_donor=donor
        )

    def warm_run(threads: int) -> Tuple[float, List]:
        batch = prepare()
        return _timed(
            rec, f"network.batch_run_warm_t{threads}",
            lambda: batch.run(rates, threads=threads),
        )

    m["network.batch_prepare_s"], _ = _timed(
        rec, "network.batch_prepare", prepare, sz.reps
    )
    # threads 1 and 2 interleaved, so drift of the host hits both
    t1, t2, results = [], [], None
    for _ in range(max(3, sz.reps)):
        dt, results = warm_run(1)
        t1.append(dt)
        t2.append(warm_run(2)[0])
    warm = statistics.median(t1)
    m["network.batch_run_warm_s"] = warm
    m["network.route_resolve_share"] = (
        m["network.batch_run_cold_s"] - warm
    ) / m["network.batch_run_cold_s"]
    cycles = len(rates) * (
        params.warmup_cycles + params.measure_cycles + params.drain_cycles
    )
    m["network.sim_cycles_per_host_s"] = cycles / warm
    m["network.sim_flits_per_host_s"] = (
        sum(r.flits_ejected for r in results) / warm
    )
    m["network.threads2_ratio"] = statistics.median(t2) / warm
    if min(t1) <= max(t2) and min(t2) <= max(t1):
        notes["network.threads2_ratio"] = (
            f"unresolved: the runs overlap, nproc {os.cpu_count()}"
        )
    else:
        notes["network.threads2_ratio"] = f"nproc {os.cpu_count()}"


def _cores(rec, m, lspec):
    """One mid-load fig10-local point on each simulator core."""
    system = build_system(lspec)
    graph, routing, traffic = build_experiment(lspec, system=system)
    rate = lspec.rates[len(lspec.rates) // 2]
    params = lspec.params.scaled(seed=point_seed(lspec, rate))
    took = {}
    for core, reps in (("native", 3), ("array", 1), ("reference", 1)):
        took[core], _ = _timed(
            rec, f"network.core_{core}",
            lambda: Simulator(
                graph, routing, traffic, params, core=core
            ).run(rate),
            reps,
        )
    m["network.array_vs_native_ratio"] = took["array"] / took["native"]
    m["network.reference_vs_native_ratio"] = (
        took["reference"] / took["native"]
    )
    return system, graph, routing, traffic


# ----------------------------------------------------------------------
# engine, metrics
# ----------------------------------------------------------------------
def _engine(rec, m, sz, lspec, local, sample, workdir):
    _, graph, routing, traffic = local
    run_experiments([lspec], workers=1)  # resident system, routing, plane
    seeds, rates = _lanes(lspec)
    donor = NativeBatch(graph, routing, traffic, lspec.params, seeds)
    donor.run(rates, threads=1)

    def replay():
        batch = NativeBatch(
            graph, routing, traffic, lspec.params, seeds,
            route_donor=donor.route_donor,
        )
        return batch.run(rates, threads=1)

    # the difference of two ~0.1 s calls: alternate them and compare
    # fast deciles, or host drift between the two decides the sign
    engine, direct = [], []
    for _ in range(max(5, sz.reps)):
        engine.append(_timed(
            rec, "engine.run_experiments",
            lambda: run_experiments([lspec], workers=1),
        )[0])
        direct.append(_timed(rec, "engine.replay_chunks", replay)[0])
    m["engine.dispatch_overhead_s"] = (
        fast_decile(engine) - fast_decile(direct)
    )

    specs = [s for scn in build_study("fig10_local", "default").scenarios
             for s in scn.specs]
    points = [(s, r) for s in specs for r in s.rates]
    t_keys, _ = _timed(
        rec, "engine.point_key",
        lambda: [(point_key(s, r), point_seed(s, r)) for s, r in points],
        sz.reps,
    )
    m["engine.point_key_us"] = 1e6 * t_keys / len(points)

    cache = ResultCache(workdir / "probe-cache")
    keys = [f"{i:064x}" for i in range(sz.entries)]
    t_put, _ = _timed(
        rec, "engine.cache_put", lambda: [cache.put(k, sample) for k in keys]
    )
    t_get, _ = _timed(
        rec, "engine.cache_get", lambda: [cache.get(k) for k in keys]
    )
    m["engine.cache_put_ms"] = 1e3 * t_put / len(keys)
    m["engine.cache_get_ms"] = 1e3 * t_get / len(keys)


def _metrics(rec, m, sz, lspec, local):
    _, graph, routing, traffic = local
    seeds, rates = _lanes(lspec)

    def run(probes: bool):
        batch = NativeBatch(
            graph, routing, traffic, lspec.params, seeds, probes=probes
        )
        dt, _ = _timed(
            rec, f"metrics.batch_run_probes_{int(probes)}",
            lambda: batch.run(rates, threads=1),
        )
        return dt, batch

    run(False)  # resolve the route memo before comparing
    off, on = [], []
    for _ in range(max(3, sz.reps)):
        off.append(run(False)[0])
        dt, batch = run(True)
        on.append(dt)
    m["metrics.probe_on_run_ratio"] = (
        statistics.median(on) / statistics.median(off)
    )
    rows = 0
    first = len(rec.spans)
    for core, rate in zip(batch.lanes, rates):
        with rec.span("metrics.decode_point"):
            channels = [
                p.collect(core.run_record(rate)) for p in build_probes(PROBES)
            ]
        rows += sum(ch.num_rows for ch in channels)
    m["metrics.decode_s_per_point"] = statistics.median(
        s["end"] - s["start"] for s in rec.spans[first:]
    )
    m["metrics.channel_rows"] = rows


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
def _workload(rec, m, sz, rspec):
    system = build_system(rspec)
    graph, routing, traffic = build_experiment(rspec, system=system)
    rate = 0.5

    def plan():
        wl = workload_for_traffic(
            rspec.workload, dict(rspec.workload_opts), traffic
        )
        PhasePlan(
            wl, traffic, params=rspec.params, rate=rate,
            seed=point_seed(rspec, rate),
        )
        return wl

    m["workload.plan_build_s"], wl = _timed(
        rec, "workload.plan_build", plan, sz.reps
    )
    t_run, res = _timed(
        rec, "workload.run_closed_loop",
        lambda: run_closed_loop(rspec, graph, routing, traffic, rate),
        sz.reps,
    )
    m["workload.run_closed_loop_s"] = t_run
    m["workload.sim_cycles_per_host_s"] = res.measure_cycles / t_run
    m["workload.phases"] = wl.num_phases


# ----------------------------------------------------------------------
# service, obs
# ----------------------------------------------------------------------
class _Counter(logging.Handler):
    """Counts the client's stream reconnects (logged at DEBUG)."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record):
        if "reconnecting" in record.getMessage():
            self.count += 1


class _StderrTee(io.TextIOBase):
    """Counts the tracebacks socketserver prints for a connection the
    peer reset, and passes everything on to the real stderr (the log)."""

    def __init__(self, real):
        self.real = real
        self.count = 0

    def write(self, text):
        self.count += text.count("Exception occurred during processing")
        return self.real.write(text)

    def flush(self):
        self.real.flush()


@contextlib.contextmanager
def _server(store: Path, state, telemetry: bool):
    from repro.service import ServiceClient, create_server

    server = create_server(
        host="127.0.0.1", port=0, cache_dir=store, state_dir=state,
        telemetry=telemetry,
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    finally:
        server.initiate_shutdown()
        server.server_close()
        thread.join(timeout=10)


def _service(rec, m, notes, sz, seed, sample, workdir):
    from repro.service import JobJournal, JobRequest, ResultStore

    study = reseed(build_study("fig10_local", "default"), seed)
    store = workdir / "probe-store"
    log = logging.getLogger("repro.service")
    counter, old_level = _Counter(), log.level
    tee = _StderrTee(sys.stderr)

    def job(client, tag=""):
        with rec.span("service.job" + tag):
            with rec.span("service.submit" + tag):
                j = client.submit_study(study, client="bench")
            with rec.span("service.watch" + tag):
                client.watch(j["id"])
        return j

    def durations(name: str, since: int) -> List[float]:
        return sorted(
            s["end"] - s["start"]
            for s in rec.spans[since:] if s["name"] == name
        )

    def fast_mode(name: str, since: int) -> float:
        # a job either takes ~14 ms or stalls ~40 ms longer inside
        # watch, and the stalled share drifts; the 10th percentile sits
        # in the fast mode, which is where added work per job shows
        jobs = durations(name, since)
        return jobs[len(jobs) // 10]

    # main server: journal + telemetry on, as the workload runs it
    with _server(store, workdir / "probe-state", True) as client:
        job(client, ".prime")  # fills the store
        log.addHandler(counter)
        log.setLevel(logging.DEBUG)
        first = len(rec.spans)
        try:
            with contextlib.redirect_stderr(tee):
                for _ in range(sz.jobs):
                    last = job(client)
        finally:
            log.removeHandler(counter)
            log.setLevel(old_level)
        watch = durations("service.watch", first)
        m["service.submit_ms"] = 1e3 * statistics.median(
            durations("service.submit", first)
        )
        m["service.watch_ms"] = 1e3 * statistics.median(watch)
        notes["service.watch_ms"] = (
            f"bimodal: p10 {1e3 * watch[len(watch) // 10]:.1f} ms, "
            f"{sum(w > 0.03 for w in watch) / len(watch):.0%} of jobs "
            "stall past 30 ms"
        )
        jobs = durations("service.job", first)
        m["job_p95_s"] = jobs[min(len(jobs) - 1, int(0.95 * len(jobs)))]
        notes["job_p95_s"] = f"of {len(jobs)} jobs"
        both_on = fast_mode("service.job", first)
        m["service.stream_reconnects"] = counter.count + tee.count
        t_status, _ = _timed(
            rec, "service.status", lambda: client.status(last["id"]),
            max(5, sz.ab_jobs),
        )
        m["service.http_floor_ms"] = 1e3 * t_status

    # journal / telemetry on and off over the one filled store
    fast = {(1, 1): both_on}
    for journal, telemetry in ((0, 0), (1, 0), (0, 1)):
        tag = f".j{journal}t{telemetry}"
        state = workdir / f"probe-state{tag}" if journal else None
        with _server(store, state, bool(telemetry)) as client:
            job(client, ".prime")
            first = len(rec.spans)
            for _ in range(sz.ab_jobs):
                job(client, tag)
            fast[journal, telemetry] = fast_mode("service.job" + tag, first)
    m["service.journal_on_ratio"] = fast[1, 0] / fast[0, 0]
    m["service.telemetry_on_ratio"] = fast[0, 1] / fast[0, 0]
    notes["service.journal_on_ratio"] = (
        f"fast-mode job time; both on {fast[1, 1] / fast[0, 0]:.3f}x "
        f"of both off ({1e3 * fast[0, 0]:.1f} ms)"
    )

    rstore = ResultStore(workdir / "probe-rstore")
    keys = [f"{i:064x}" for i in range(sz.entries)]
    t_put, _ = _timed(
        rec, "service.store_put", lambda: [rstore.put(k, sample) for k in keys]
    )
    t_get, _ = _timed(
        rec, "service.store_get", lambda: [rstore.get(k) for k in keys]
    )
    m["service.store_put_ms"] = 1e3 * t_put / len(keys)
    m["service.store_get_ms"] = 1e3 * t_get / len(keys)

    journal = JobJournal(workdir / "probe-journal.ndjson")
    request = JobRequest(study=study.to_data(), client="bench")

    def record():
        for i in range(sz.journal):
            journal.record_job(f"job-{i}", f"{i:064x}", request)
            journal.record_state(f"{i:064x}", "done")

    t_rec, _ = _timed(rec, "service.journal_record", record)
    journal.close()
    m["service.journal_record_ms"] = 1e3 * t_rec / sz.journal


def _obs(rec, m, sz):
    sink = lambda record: None  # noqa: E731 - spans only emit with a sink
    obs_trace.add_sink(sink)
    try:
        def loop():
            for _ in range(sz.span_iters):
                with obs_trace.span("bench.probe"):
                    pass

        t, _ = _timed(rec, "obs.span_loop", loop, sz.reps)
    finally:
        obs_trace.remove_sink(sink)
    m["obs.span_us"] = 1e6 * t / sz.span_iters


# ----------------------------------------------------------------------
def run_all(
    rec: Recorder, seed: int, workdir: Path, *, quick: bool = False
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Every per-layer metric except ``bench.trace_overhead_ratio``
    (which needs a workload and is measured by the overhead child)."""
    if load_native() is None:
        raise SystemExit("error: the native kernel could not be compiled")
    sz = QUICK if quick else _Sizes()
    m: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    gspec = _spec("fig11_global", "default", "uniform", "SW-less", seed)
    lspec = _spec("fig10_local", "default", "uniform", "SW-less", seed)
    vspec = _spec("fig13_misrouting", "quick", "hotspot", "SW-less-Mis", seed)
    rspec = _spec("workload", "default", "schedules", "Ring", seed)

    with rec.span("layers"):
        with rec.span("layer.cli"):
            _cli(rec, m, sz)
        with rec.span("layer.api"):
            result = _api(rec, m, sz, seed)
        sample = result["uniform"]["SW-less"].points[0].result
        # the service first, on a small heap: a job allocates enough
        # to trigger collections, whose cost grows with whatever the
        # other probes leave alive (route memos, packet tables)
        with rec.span("layer.service"):
            _service(rec, m, notes, sz, seed, sample, workdir)
        with rec.span("layer.obs"):
            _obs(rec, m, sz)
        with rec.span("layer.topology"):
            system = _topology(rec, m, sz, gspec)
        with rec.span("layer.routing"):
            _routing(rec, m, sz, seed, gspec, vspec, system)
        with rec.span("layer.traffic"):
            _traffic(rec, m, sz, seed, gspec, vspec, system)
        with rec.span("layer.network"):
            _native_load(rec, m, sz, workdir)
            _network(rec, m, notes, sz, gspec, system)
            local = _cores(rec, m, lspec)
        with rec.span("layer.engine"):
            _engine(rec, m, sz, lspec, local, sample, workdir)
        with rec.span("layer.metrics"):
            _metrics(rec, m, sz, lspec, local)
        with rec.span("layer.workload"):
            _workload(rec, m, sz, rspec)
    return m, notes
