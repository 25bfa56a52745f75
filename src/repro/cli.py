"""Command-line interface, redesigned around the ``repro.api`` facade.

Examples::

    repro-dragonfly list                      # scenarios + registered kinds
    repro-dragonfly list --tag resilience     # filter by scenario tag
    repro-dragonfly run fig10_local --scale quick --workers 4
    repro-dragonfly run scenarios/smoke.json --workers 1 --out smoke.json
    repro-dragonfly run smoke --metrics link_util,misroute --out s.json
    repro-dragonfly compare --arch switchless,dragonfly --pattern uniform
    repro-dragonfly resilience --failure-rates 0,0.02,0.05 --workers 4
    repro-dragonfly metrics                   # registered probe kinds
    repro-dragonfly metrics s.json            # channels in a result file
    repro-dragonfly report smoke.json --csv smoke.csv
    repro-dragonfly report s.json --channel link_util --csv links.csv
    repro-dragonfly tables                    # Tables I, II, IV
    repro-dragonfly layout                    # Fig. 9 floorplan summary
    repro-dragonfly verify --policy reduced   # deadlock-freedom check

Service mode (see the "Simulation service" README section)::

    repro-dragonfly serve --port 8642 --cache-dir ~/.cache/repro
    repro-dragonfly submit smoke --scale quick --watch
    repro-dragonfly submit fig10_local --client alice   # prints job id
    repro-dragonfly status j000001
    repro-dragonfly watch j000001 --out result.json
    repro-dragonfly trace j000001             # span waterfall for a job
    repro-dragonfly metrics --live            # poll /api/metrics
    repro-dragonfly cancel j000001
    repro-dragonfly cache stats --cache-dir ~/.cache/repro
    repro-dragonfly shutdown

Every verb is one row of :func:`_verb_table` (help, handler, arguments,
whether it talks to a service); :func:`main` builds the parser from it
and is the one error boundary: a ``ValueError`` / ``OSError`` (or, for
service verbs, a ``ServiceError``) from a handler is one ``error:``
line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .analysis import (
    format_table_i,
    format_table_ii,
    format_table_iii,
    format_table_iv,
)
from .api import (
    SCALES,
    Study,
    StudyResult,
    build_study,
    compare_scenario,
    list_library,
    load_study,
    resilience_report,
    resilience_study,
    verify_study_faults,
)
from .core import SwitchlessConfig, build_switchless
from .engine import (
    ResultCache,
    list_presets,
    list_routings,
    list_topologies,
    list_traffics,
)
from .layout import plan_cgroup_layout
from .metrics import probe_descriptions
from .network import SimParams
from .routing import SwitchlessRouting, verify_deadlock_free


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _names(text) -> list:
    """``a,b,,c`` -> ``["a", "b", "c"]``."""
    return [m.strip() for m in (text or "").split(",") if m.strip()]


def _cmd_tables(_args) -> int:
    print(format_table_i())
    print()
    print(format_table_ii())
    print()
    print(format_table_iv())
    return 0


def _cmd_table3(_args) -> int:
    print(format_table_iii())
    return 0


def _cmd_layout(_args) -> int:
    layout = plan_cgroup_layout()
    print("Fig. 9 C-group floorplan")
    for key, val in layout.summary().items():
        print(f"  {key:24s} {val}")
    print(f"  feasible               {layout.feasible()}")
    return 0


# ----------------------------------------------------------------------
# loaders, the per-point progress line and the result emitter
# ----------------------------------------------------------------------
def _load_target(args) -> Study:
    """``run`` / ``submit`` target: bundled study name or scenario/study
    JSON path."""
    target = args.scenario
    try:
        if Path(target).is_file() or target.endswith(".json"):
            return load_study(target)
        return build_study(target, scale=args.scale)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot load {target!r}: {exc}") from None


def _load_results(path: str) -> StudyResult:
    """``report`` / ``metrics`` input: a saved StudyResult JSON file."""
    try:
        return StudyResult.load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _point_line(done, total, scenario, curve, rate, lat, acc, source) -> str:
    """The per-point progress line of ``--progress`` and ``watch``."""
    return (
        f"# [{done}/{total}] {scenario}/{curve} rate={rate:g} "
        f"lat={lat:.1f}cyc acc={acc:.3f} ({source})"
    )


def _progress_printer(total: int):
    """``on_point`` hook printing one progress line per point."""
    count = [0]

    def on_point(scenario, label, rate, res, source) -> None:
        count[0] += 1
        _note(_point_line(count[0], total, scenario, label, rate,
                          res.avg_latency, res.accepted_rate, source))

    return on_point


def _emit(result, args, cache=None, appendix: str = "") -> int:
    """The one result tail: rendered tables, an optional appendix, the
    cache counters, then the ``--out`` JSON and ``--csv`` files."""
    print(result.render())
    if appendix:
        print()
        print(appendix)
    if cache is not None:
        print(
            f"# cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"({cache.root})"
        )
    out = getattr(args, "out", None)
    if out:
        result.save(out)
        print(f"# results written to {out}")
    if args.csv:
        Path(args.csv).write_text(result.to_csv())
        print(f"# csv written to {args.csv}")
    return 0


# ----------------------------------------------------------------------
# scenario-facade commands
# ----------------------------------------------------------------------
def _parse_workload_opts(text):
    """``k=v,k=v`` -> builder options dict (ints where they parse)."""
    opts = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(
                f"cannot parse workload option {item!r} (expected "
                "KEY=VALUE)"
            )
        try:
            opts[key] = int(value)
        except ValueError:
            opts[key] = value
    return opts


def _run_study(study, args, report=None) -> int:
    """Run path of ``run``, ``compare`` and ``resilience``: the metrics
    and workload axes, ``study.run``, then the result emitter (with
    ``report(result)`` as its appendix)."""
    if args.metrics:
        study = study.with_metrics(_names(args.metrics))
    workload = getattr(args, "workload", None)
    if workload:
        opts = _parse_workload_opts(args.workload_opts or "")
        if workload == "trace" and "trace" in opts:
            # the value is a file path on the CLI; inline it
            opts["trace"] = Path(opts["trace"]).read_text()
        study = study.with_workload(workload, opts)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    on_point = None
    if args.progress:
        on_point = _progress_printer(study.num_points())
    result = study.run(workers=args.workers, cache=cache, on_point=on_point)
    return _emit(result, args, cache, report(result) if report else "")


def _cmd_run(args) -> int:
    return _run_study(_load_target(args), args)


def _cmd_list(args) -> int:
    tag = args.tag
    shown = 0
    print("bundled scenarios (run with: repro-dragonfly run <name>):")
    for name in list_library():
        study = build_study(name, scale="quick")
        if tag and not study.has_tag(tag):
            continue
        shown += 1
        tags = f" #{' #'.join(study.tags)}" if study.tags else ""
        print(
            f"  {name:20s} {study.title}  "
            f"[{len(study.scenarios)} scenario(s), {study.num_specs()} "
            f"curve(s)]{tags}"
        )
        if study.description:
            print(f"{'':22s}{study.description}")
    if tag and not shown:
        print(f"  (no bundled study carries tag {tag!r})")
    if tag:
        return 0 if shown else 1
    print()
    print("registered experiment kinds (repro.engine registries):")
    print(f"  topologies   {', '.join(list_topologies())}")
    print(f"  routings     {', '.join(list_routings())}")
    print(f"  traffics     {', '.join(list_traffics())}")
    print()
    print("topology presets (topology_opts={'preset': ...}):")
    for kind in list_topologies():
        presets = list_presets(kind)
        if presets:
            print(f"  {kind:12s} {', '.join(presets)}")
    print()
    from .workload import list_workloads

    print("application workloads (closed-loop; see "
          "'repro-dragonfly workloads'):")
    print(f"  {', '.join(list_workloads() + ['trace'])}")
    return 0


def _compare_rates(args):
    if args.points < 1:
        raise ValueError(
            f"--points must be a positive integer, got {args.points}"
        )
    return [
        args.max_rate * (i + 1) / args.points for i in range(args.points)
    ]


def _compare_params(args) -> SimParams:
    return SimParams(
        warmup_cycles=args.warmup, measure_cycles=args.measure,
        drain_cycles=500, seed=args.seed,
    )


def _cmd_compare(args) -> int:
    scenario = compare_scenario(
        _names(args.arch),
        pattern=args.pattern,
        scope=args.scope,
        preset=args.preset,
        routing=args.routing,
        rates=_compare_rates(args),
        params=_compare_params(args),
    )
    return _run_study(Study.wrap(scenario), args)


def _cmd_resilience(args) -> int:
    """The ``run`` path between a per-instance deadlock check and the
    saturation-retention report; exit 1 when an instance may deadlock."""
    if args.smoke:
        study = build_study("resilience_smoke", scale="quick")
    else:
        try:
            failure_rates = [float(v) for v in _names(args.failure_rates)]
        except ValueError:
            raise ValueError(
                f"cannot parse failure-rate list {args.failure_rates!r}"
            ) from None
        study = resilience_study(
            arches=_names(args.arch),
            failure_rates=failure_rates,
            rates=_compare_rates(args),
            preset=args.preset,
            traffic=args.pattern.replace("-", "_"),
            scope=args.scope,
            routing_mode=args.routing,
            fault_model=args.model,
            fault_seed=args.fault_seed,
            params=_compare_params(args),
        )
    deadlock_ok = True
    if not args.no_verify:
        print("# deadlock freedom on each sampled fault instance:")
        for rec in verify_study_faults(study, max_pairs=args.max_pairs):
            status = "deadlock-free" if rec["acyclic"] else "DEADLOCK RISK"
            print(
                f"#   {rec['scenario']:12s} {rec['label']:14s} "
                f"{rec['faults']}: {status}"
            )
            deadlock_ok = deadlock_ok and rec["acyclic"]
    _run_study(study, args, lambda res: resilience_report(res).render())
    return 0 if deadlock_ok else 1


def _cmd_report(args) -> int:
    result = _load_results(args.results)
    channel = args.channel
    if not channel:
        return _emit(result, args)
    try:
        print(result.render_channel(channel))
        if args.csv:
            Path(args.csv).write_text(result.channel_csv(channel))
            print(f"# channel csv written to {args.csv}")
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return 0


def _metric_value(data, name, labels=None) -> float:
    """Sum of a metric's samples in a ``repro.metrics/v1`` payload,
    restricted to samples whose labels include ``labels``."""
    total = 0.0
    for metric in data.get("metrics", []):
        if metric.get("name") != name:
            continue
        for sample in metric.get("samples", []):
            got = sample.get("labels", {})
            if labels and any(got.get(k) != v for k, v in labels.items()):
                continue
            total += sample.get("value", sample.get("count", 0.0))
    return total


def _live_metrics_line(data) -> str:
    """One refreshing status line from the runtime-metrics payload."""
    running = _metric_value(
        data, "service_jobs_by_state", {"state": "running"}
    )
    queued = _metric_value(data, "service_queue_depth")
    fields = [
        f"queue={queued:.0f}",
        f"running={running:.0f}",
        f"submitted={_metric_value(data, 'service_jobs_submitted_total'):.0f}",
        f"points={_metric_value(data, 'engine_points_total'):.0f}",
        f"hits={_metric_value(data, 'store_hits_total'):.0f}",
        f"misses={_metric_value(data, 'store_misses_total'):.0f}",
        f"retries={_metric_value(data, 'service_job_retries_total'):.0f}",
        f"http={_metric_value(data, 'http_requests_total'):.0f}",
    ]
    return "  ".join(fields)


def _live_metrics(args, client) -> int:
    """``metrics --live``: poll a service's /api/metrics surface."""
    import time as _time

    remaining = args.count
    try:
        while True:
            data = client.metrics(fmt="json")
            stamp = _time.strftime("%H:%M:%S")
            print(f"[{stamp}] {_live_metrics_line(data)}", flush=True)
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_metrics(args, client=None) -> int:
    """Probe-kind listing, channels in a results file, or (with
    ``--live``/``--server``) a running service's runtime metrics."""
    if args.live:
        return _live_metrics(args, client)
    if args.server:
        print(client.metrics(fmt="prometheus"), end="")
        return 0
    if not args.results:
        print("registered metric probes (run with: "
              "repro-dragonfly run <name> --metrics <kinds>):")
        for name, desc in probe_descriptions().items():
            print(f"  {name:18s} {desc}")
        print("the cct/bubble/overlap channels need a closed-loop run "
              "(see 'repro-dragonfly workloads')")
        return 0
    result = _load_results(args.results)
    names = result.channel_names()
    if not names:
        print(f"{args.results}: no metric channels (the study ran "
              "without a metrics axis)")
        return 1
    print(f"{args.results}: metric channels")
    for name in names:
        points = sum(1 for _ in result.iter_channels(name))
        print(f"  {name:18s} on {points} point(s)")
    print("render with: repro-dragonfly report "
          f"{args.results} --channel <name>")
    return 0


def _cmd_workloads(_args) -> int:
    """List the closed-loop application workloads and the trace schema."""
    from .workload import TRACE_SCHEMA, workload_descriptions

    print("application workloads (run closed-loop with: "
          "repro-dragonfly run <study> --workload <name>):")
    for name, desc in sorted(workload_descriptions().items()):
        print(f"  {name:24s} {desc}")
    print(f"  {'trace':24s} replay a recorded {TRACE_SCHEMA} JSON "
          "document (--workload-opts trace=<path>)")
    print()
    print(f"trace format: {TRACE_SCHEMA} — a JSON object with 'schema', "
          "'name' and a 'phases' list; each phase has 'name', 'pattern' "
          "(['shift', k] | ['all_to_all'] | ['none']) and optional "
          "'volume' (flits/node), 'after' (phase names) and 'compute' "
          "(cycles)")
    print("application channels: attach --metrics cct,bubble,overlap "
          "(see 'repro-dragonfly metrics')")
    print("bundled closed-loop studies: "
          "repro-dragonfly list --tag workload")
    return 0


def _cmd_verify(args) -> int:
    system = build_switchless(SwitchlessConfig.small_equiv())
    ok = True
    for mode in ("minimal", "valiant"):
        routing = SwitchlessRouting(system, mode, policy=args.policy)
        report = verify_deadlock_free(
            system.graph, routing, max_pairs=args.max_pairs
        )
        print(f"{args.policy}/{mode}: {report.describe(system.graph)}")
        ok = ok and report.acyclic
    return 0 if ok else 1


# ----------------------------------------------------------------------
# service commands (the dispatcher hands each one its ServiceClient)
# ----------------------------------------------------------------------
def _cmd_serve(args) -> int:
    from .obs import setup_logging
    from .service import RetryPolicy, create_server, serve

    setup_logging(fmt=args.log_format)
    try:
        server = create_server(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            default_workers=args.workers,
            max_inflight_per_client=args.max_inflight,
            max_entries=args.max_entries,
            max_bytes=args.max_bytes,
            state_dir=args.state_dir,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            hang_timeout=args.hang_timeout,
        )
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot start service: {exc}") from None
    host, port = server.server_address[:2]

    def banner(line):
        # one atomic write per line: log records from the (already
        # running) executor thread share stderr and must not land
        # between a banner line and its newline — tests and scripts
        # parse these lines for the URL
        sys.stderr.write(line + "\n")
        sys.stderr.flush()

    banner(f"# simulation service on http://{host}:{port}")
    banner(f"# result store: {args.cache_dir}")
    if args.state_dir:
        service = server.service
        banner(
            f"# job journal: {args.state_dir} "
            f"({service.restored_jobs} job(s) restored, "
            f"{service.resumed_executions} resumed)"
        )
    banner(
        "# submit with: repro-dragonfly submit <study> "
        f"--server http://{host}:{port}"
    )
    serve(server)
    return 0


def _watch_event_printer(event) -> None:
    """Progress lines for the ``watch`` / ``submit --watch`` stream."""
    kind = event.get("event")
    if kind == "start":
        _note(
            f"# start {event['study']} "
            f"({event['points_total']} point(s))"
            + (" [resumed after restart]" if event.get("resumed") else "")
        )
    elif kind == "point":
        res = event.get("result", {})
        _note(_point_line(
            event["points_done"], event["points_total"],
            event["scenario"], event["curve"], event["rate"],
            res.get("avg_latency") or float("nan"),
            res.get("accepted_rate") or float("nan"), event["source"],
        ))
    elif kind == "retry":
        _note(
            f"# retry {event['attempt']}/{event['max_attempts']} in "
            f"{event['delay']:g}s: {event.get('error')}"
        )
    elif kind == "failed":
        _note(
            f"# FAILED after {event.get('attempts')} attempt(s): "
            f"{event.get('error')}"
        )
        if event.get("traceback"):
            _note(event["traceback"])
    elif kind == "done":
        cache = event.get("cache", {}).get("summary", {})
        _note(
            f"# done: {event['points_done']} point(s), "
            f"{event['cache_hits']} from cache"
        )
        if cache:
            _note(
                f"# store: {cache.get('entries', 0):.0f} entries, "
                f"{cache.get('bytes', 0):.0f} bytes"
            )


def _watch_job(client, job_id: str, args) -> int:
    """Streaming tail of ``watch`` and ``submit --watch``: exit 0 done,
    3 cancelled, 4 failed, 1 any other stream error."""
    from .service import ServiceError

    try:
        result = client.watch(job_id, on_event=_watch_event_printer)
    except ServiceError as exc:
        try:
            state = client.status(job_id).get("state")
        except ServiceError:
            state = None
        if state == "cancelled":
            _note(f"# job {job_id} cancelled")
            return 3
        _note(f"error: {exc}")
        return 4 if state == "failed" else 1
    return _emit(result, args)


def _cmd_submit(args, client) -> int:
    from .service import JobRequest

    request = JobRequest(
        study=_load_target(args).to_data(),
        client=args.client,
        priority=args.priority,
        workers=args.workers,
        metrics=tuple(_names(args.metrics)),
    )
    status = client.submit(request)
    note = " (attached to in-flight run)" if status.get("attached") else ""
    _note(
        f"# job {status['id']}: {status['state']}{note}, "
        f"{status['points_total']} point(s), "
        f"{status.get('queued_ahead', 0)} execution(s) queued ahead"
    )
    # the id alone on stdout, so scripts can do JOB=$(... submit ...)
    print(status["id"])
    if args.watch:
        return _watch_job(client, status["id"], args)
    _note(
        f"# follow with: repro-dragonfly watch {status['id']} "
        f"--server {client.address}"
    )
    return 0


def _format_job_line(job) -> str:
    attached = f" -> {job['attached_to']}" if job.get("attached_to") else ""
    return (
        f"  {job['id']}  {job['state']:9s} "
        f"{job['points_done']:3d}/{job['points_total']:<3d} "
        f"{job['study']}{attached}"
        f"{'  client=' + job['client'] if job['client'] else ''}"
    )


def _cmd_status(args, client) -> int:
    if args.job:
        print(json.dumps(client.status(args.job), indent=2))
        return 0
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    print(f"jobs on {client.address}:")
    for job in jobs:
        print(_format_job_line(job))
    return 0


def _cmd_trace(args, client) -> int:
    """Render a job's span waterfall from the service trace endpoint."""
    from .obs import render_waterfall

    payload = client.trace(args.job)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    spans = payload.get("spans", [])
    if not spans:
        print(
            f"# job {args.job}: trace {payload.get('trace_id')} has no "
            "recorded spans yet"
        )
        return 1
    print(render_waterfall(spans))
    return 0


def _cmd_watch(args, client) -> int:
    client.status(args.job)  # fail fast on unknown ids
    return _watch_job(client, args.job, args)


def _cmd_cancel(args, client) -> int:
    status = client.cancel(args.job)
    print(
        f"# job {status['id']}: {status['state']} "
        f"after {status['points_done']}/{status['points_total']} point(s)"
    )
    return 0


def _cmd_shutdown(_args, client) -> int:
    client.shutdown()
    print(f"# service at {client.address} shutting down")
    return 0


def _cmd_cache(args) -> int:
    from .service import ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"# removed {removed} entr(ies) from {store.root}")
        return 0
    if args.action == "prune":
        if args.max_entries is None and args.max_bytes is None:
            raise ValueError("prune needs --max-entries and/or --max-bytes")
        removed = store.prune(
            max_entries=args.max_entries, max_bytes=args.max_bytes
        )
        stats = store.stats(scan_meta=False)
        print(
            f"# evicted {removed} entr(ies); now {stats['entries']} "
            f"entr(ies), {stats['bytes']} bytes ({store.root})"
        )
        return 0
    stats = store.stats(scan_meta=True)
    print(f"result store {stats['root']}")
    print(f"  entries            {stats['entries']}")
    print(f"  bytes              {stats['bytes']}")
    print(f"  engine version     {stats['engine_version']}")
    mix = ", ".join(
        f"{tag}: {n}" for tag, n in stats.get("version_mix", {}).items()
    )
    print(f"  version mix        {mix or '(empty)'}")
    print(f"  in-flight locks    {stats['locks']}")
    stale = stats.get("stale_entries", 0)
    if stale:
        print(
            f"  WARNING: {stale} entr(ies) were written by a different "
            "engine version; they can never be hit again — reclaim the "
            "space with 'repro-dragonfly cache clear'"
        )
    return 0


# ----------------------------------------------------------------------
# the verb table and the dispatcher
# ----------------------------------------------------------------------
def _arg(*flags, **kwargs):
    """One ``add_argument`` call, as data."""
    return flags, kwargs


def _always(_args) -> bool:
    return True


def _verb_table():
    """``name -> (help, handler, arguments, service)``, in help order.

    ``service`` is ``None`` for an offline verb; otherwise the verb
    gets ``--server`` and, when ``service(args)`` holds, its handler is
    called as ``handler(args, client)``.  Built per call so defaults
    read the environment at parse time.
    """
    target = (
        _arg("scenario", help="bundled study name (see 'list') or path to "
             "a scenarios/*.json file"),
        _arg("--scale", choices=SCALES, default="default",
             help="system size / cycle count for bundled names (ignored "
             "for files)"),
    )
    output = (
        _arg("--out", default=None, metavar="FILE",
             help="also write the StudyResult JSON here"),
        _arg("--csv", default=None, metavar="FILE",
             help="also write the flat per-point CSV here"),
    )
    metrics = _arg(
        "--metrics", default=None, metavar="KINDS",
        help="attach metric probes to every curve (comma-separated kinds, "
        "see 'repro-dragonfly metrics'); channels land in the results JSON",
    )
    execution = (
        _arg("--workers", type=int, default=None,
             help="simulation processes (default: REPRO_WORKERS or CPU "
             "count; 1 = serial)"),
        _arg("--cache-dir", default=None,
             help="reuse/store per-point results in this directory"),
    ) + output + (
        metrics,
        _arg("--progress", action="store_true",
             help="print one line per completed simulation point on "
             "stderr"),
        _arg("-v", "--verbose", action="store_true",
             help="engine progress logging"),
    )

    def workload(points, max_rate, *after_arch):
        return (
            _arg("--arch", default="switchless,dragonfly",
                 help="comma-separated list: switchless, switchless-2b, "
                 "switchless-4b, dragonfly"),
        ) + after_arch + (
            _arg("--routing", choices=("minimal", "valiant"),
                 default="minimal"),
            _arg("--scope", choices=("local", "global"), default="local"),
            _arg("--pattern", default="uniform",
                 help="traffic kind (see 'repro-dragonfly list'); hyphens "
                 "accepted"),
            _arg("--preset", default="small_equiv",
                 help="SwitchlessConfig preset sizing the system (see "
                 "'repro-dragonfly list')"),
            _arg("--points", type=int, default=points),
            _arg("--max-rate", type=float, default=max_rate),
            _arg("--warmup", type=int, default=300),
            _arg("--measure", type=int, default=1000),
            _arg("--seed", type=int, default=0),
        )

    store_dir = _arg(
        "--cache-dir",
        default=os.environ.get(
            "REPRO_CACHE_DIR", str(Path.home() / ".cache" / "repro-dragonfly")
        ),
        help="result store directory, shared with offline runs (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro-dragonfly)",
    )
    job = _arg("job", help="job id from 'submit'")
    return {
        "tables": ("print Tables I, II and IV", _cmd_tables, (), None),
        "table3": ("print the Table III case study", _cmd_table3, (), None),
        "layout": ("print the Fig. 9 layout summary", _cmd_layout, (), None),
        "run": (
            "run a bundled scenario or a scenario/study JSON file",
            _cmd_run,
            target + (
                _arg("--workload", default=None, metavar="NAME",
                     help="re-drive every curve closed-loop with this "
                     "application workload (see 'repro-dragonfly "
                     "workloads'); rates become pacing bandwidths"),
                _arg("--workload-opts", default=None, metavar="K=V[,K=V]",
                     help="builder options for --workload (e.g. "
                     "volume=256); for --workload trace, trace=<path> "
                     "names the trace JSON file"),
            ) + execution,
            None,
        ),
        "list": (
            "bundled scenarios and registered topology/routing/traffic "
            "kinds",
            _cmd_list,
            (_arg("--tag", default=None,
                  help="only show bundled studies carrying this tag (e.g. "
                  "figure, smoke, resilience)"),),
            None,
        ),
        "compare": (
            "compare architectures under one workload",
            _cmd_compare,
            workload(6, 1.5) + execution,
            None,
        ),
        "resilience": (
            "throughput-under-failure sweep: failure rate x load with "
            "saturation-retention report and per-instance deadlock check",
            _cmd_resilience,
            # resilience probes the saturation region, not the full axis
            workload(
                4, 0.6,
                _arg("--failure-rates", default="0,0.02,0.05,0.1",
                     help="comma-separated fault axis (random model: "
                     "per-channel failure probability; yield model: "
                     "defect clusters per wafer)"),
                _arg("--model", choices=("random", "yield"),
                     default="random",
                     help="fault model realising the failure rates"),
                _arg("--fault-seed", type=int, default=7,
                     help="seed of the fault sampling stream (not the sim "
                     "seed)"),
                _arg("--no-verify", action="store_true",
                     help="skip the per-instance deadlock-freedom "
                     "verification"),
                _arg("--max-pairs", type=int, default=300,
                     help="terminal pairs sampled per deadlock check"),
                _arg("--smoke", action="store_true",
                     help="run the bundled resilience_smoke study (ignores "
                     "the workload flags; used by CI)"),
            ) + execution,
            None,
        ),
        "report": (
            "render a saved StudyResult JSON file",
            _cmd_report,
            (
                _arg("results", help="path to a results JSON file"),
                _arg("--csv", default=None, metavar="FILE",
                     help="also write the flat per-point CSV here (with "
                     "--channel: that channel's long-form CSV)"),
                _arg("--channel", default=None, metavar="NAME",
                     help="render one metric channel across all points "
                     "instead of the curve tables (see 'repro-dragonfly "
                     "metrics <results>')"),
            ),
            None,
        ),
        "metrics": (
            "list registered metric probes, or the channels inside a "
            "results file",
            _cmd_metrics,
            (
                _arg("results", nargs="?", default=None,
                     help="optional path to a StudyResult JSON file"),
                _arg("--live", action="store_true",
                     help="poll the service /api/metrics surface and print "
                     "one status line per interval (Ctrl-C to stop)"),
                _arg("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="--live polling interval (default: 2s)"),
                _arg("--count", type=int, default=None, metavar="N",
                     help="--live: stop after N polls (default: run until "
                     "Ctrl-C)"),
            ),
            lambda args: args.live or args.server,
        ),
        "workloads": (
            "list the closed-loop application workloads and the trace "
            "format",
            _cmd_workloads,
            (),
            None,
        ),
        "verify": (
            "deadlock-freedom check",
            _cmd_verify,
            (
                _arg("--policy", choices=("baseline", "reduced"),
                     default="baseline"),
                _arg("--max-pairs", type=int, default=2000),
            ),
            None,
        ),
        "serve": (
            "run the simulation service: async job queue, streaming "
            "telemetry, shared result store, warm engine state",
            _cmd_serve,
            (
                _arg("--host", default="127.0.0.1"),
                _arg("--port", type=int, default=8642,
                     help="TCP port (0 picks an ephemeral port)"),
                store_dir,
                _arg("--workers", type=int, default=1,
                     help="default engine worker processes per job (a "
                     "request's 'workers' field overrides)"),
                _arg("--max-inflight", type=int, default=8,
                     help="per-client cap on jobs in flight (submissions "
                     "beyond it are rejected with HTTP 429)"),
                _arg("--max-entries", type=int, default=None,
                     help="bound the store to this many entries (LRU "
                     "eviction)"),
                _arg("--max-bytes", type=int, default=None,
                     help="bound the store to this many bytes (LRU "
                     "eviction)"),
                _arg("--state-dir", default=None, metavar="DIR",
                     help="journal jobs here and replay them on startup: "
                     "a server restarted against the same directory "
                     "resumes interrupted jobs (completed points come "
                     "back from the result store)"),
                _arg("--max-attempts", type=int, default=3,
                     help="supervised retry budget per execution; after "
                     "this many failed attempts a job is quarantined as "
                     "'failed' with its traceback (default: 3)"),
                _arg("--hang-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="watchdog: reap a running job this many seconds "
                     "after its last heartbeat (default: disabled)"),
                _arg("--log-format", choices=("text", "json"),
                     default="text",
                     help="service log lines: classic text or structured "
                     "NDJSON (each line carries trace_id/job/state "
                     "fields)"),
            ),
            None,
        ),
        "trace": (
            "render a job's span waterfall (queue wait, engine, kernel "
            "chunks) from a telemetry-enabled service",
            _cmd_trace,
            (job, _arg("--json", action="store_true",
                       help="print the raw repro.trace/v1 payload "
                       "instead")),
            _always,
        ),
        "submit": (
            "submit a study to a running service",
            _cmd_submit,
            target + (
                metrics,
                _arg("--workers", type=int, default=None,
                     help="engine worker processes for this job (default: "
                     "the server's --workers)"),
                _arg("--client", default=os.environ.get("USER", ""),
                     help="client id for fairness accounting (default: "
                     "$USER)"),
                _arg("--priority", type=int, default=0,
                     help="higher runs first; FIFO within a priority "
                     "level"),
                _arg("--watch", action="store_true",
                     help="follow the event stream to completion (like "
                     "'watch'; --out/--csv apply then)"),
            ) + output,
            _always,
        ),
        "status": (
            "job status (or all jobs) on a running service",
            _cmd_status,
            (_arg("job", nargs="?", default=None,
                  help="job id (omit to list every job)"),),
            _always,
        ),
        "watch": (
            "stream a job's per-point telemetry to completion (exit 0 "
            "done, 3 cancelled, 1 error)",
            _cmd_watch,
            (job,) + output,
            _always,
        ),
        "cancel": ("cancel a job", _cmd_cancel, (job,), _always),
        "shutdown": (
            "stop a running service cleanly", _cmd_shutdown, (), _always,
        ),
        "cache": (
            "inspect or maintain a result store directory",
            _cmd_cache,
            (
                _arg("action", nargs="?", default="stats",
                     choices=("stats", "clear", "prune"),
                     help="stats (default): entry count, bytes, "
                     "engine-version mix; clear: delete every entry; "
                     "prune: LRU-evict to the bounds"),
                store_dir,
                _arg("--max-entries", type=int, default=None,
                     help="prune: keep at most this many entries"),
                _arg("--max-bytes", type=int, default=None,
                     help="prune: keep at most this many bytes"),
            ),
            None,
        ),
    }


_SERVER = _arg(
    "--server", default=None, metavar="URL",
    help="service address (default: $REPRO_SERVICE_URL or "
    "http://127.0.0.1:8642)",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dragonfly",
        description="Switch-Less Dragonfly on Wafers (SC'24) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verbs = _verb_table()
    for name, (text, _, arguments, service) in verbs.items():
        verb = sub.add_parser(name, help=text)
        for flags, kwargs in arguments + ((_SERVER,) if service else ()):
            verb.add_argument(*flags, **kwargs)
    args = parser.parse_args(argv)
    _, handler, _, service = verbs[args.command]
    if getattr(args, "verbose", False):
        logging.basicConfig(level=logging.DEBUG, format="%(message)s")
        logging.getLogger("repro.engine").setLevel(logging.DEBUG)
    errors = (OSError, ValueError)
    try:
        if not (service and service(args)):
            return handler(args)
        # service imports stay lazy: offline verbs never load them
        from .service import ServiceClient, ServiceError

        errors += (ServiceError,)
        return handler(args, ServiceClient(args.server))
    except errors as exc:
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
