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
# scenario-facade commands
# ----------------------------------------------------------------------
def _setup_logging(verbose: bool) -> None:
    if verbose:
        logging.basicConfig(level=logging.DEBUG, format="%(message)s")
        logging.getLogger("repro.engine").setLevel(logging.DEBUG)


def _progress_printer(total: int):
    """Per-point progress lines on stderr (``--progress``)."""
    count = [0]

    def on_point(scenario, label, rate, res, source) -> None:
        count[0] += 1
        print(
            f"# [{count[0]}/{total}] {scenario}/{label} rate={rate:g} "
            f"lat={res.avg_latency:.1f}cyc acc={res.accepted_rate:.3f} "
            f"({source})",
            file=sys.stderr,
        )

    return on_point


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


def _run_or_explain(study, workers, cache, on_point):
    """``study.run``; a malformed ``REPRO_*`` knob or spec axis is one
    ``error:`` line (and ``None``), not a traceback."""
    try:
        return study.run(workers=workers, cache=cache, on_point=on_point)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _run_study(study, args) -> int:
    """Shared run/report/export path of ``run`` and ``compare``."""
    metrics = getattr(args, "metrics", None)
    if metrics:
        names = [m.strip() for m in metrics.split(",") if m.strip()]
        try:
            study = study.with_metrics(names)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    workload = getattr(args, "workload", None)
    if workload:
        try:
            opts = _parse_workload_opts(
                getattr(args, "workload_opts", None) or ""
            )
            if workload == "trace" and "trace" in opts:
                # the value is a file path on the CLI; inline it
                opts["trace"] = Path(opts["trace"]).read_text()
            study = study.with_workload(workload, opts)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    on_point = None
    if getattr(args, "progress", False):
        on_point = _progress_printer(study.num_points())
    result = _run_or_explain(study, args.workers, cache, on_point)
    if result is None:
        return 2
    print(result.render())
    if cache is not None:
        print(
            f"# cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"({cache.root})"
        )
    out = getattr(args, "out", None)
    if out:
        result.save(out)
        print(f"# results written to {out}")
    csv = getattr(args, "csv", None)
    if csv:
        Path(csv).write_text(result.to_csv())
        print(f"# csv written to {csv}")
    return 0


def _load_run_target(target: str, scale: str):
    """Bundled study name or scenario/study JSON path -> Study."""
    if Path(target).is_file() or target.endswith(".json"):
        return load_study(target)
    return build_study(target, scale=scale)


def _cmd_run(args) -> int:
    _setup_logging(args.verbose)
    try:
        study = _load_run_target(args.scenario, args.scale)
    except (OSError, ValueError, KeyError) as exc:
        print(
            f"error: cannot load {args.scenario!r}: {exc}", file=sys.stderr
        )
        return 2
    return _run_study(study, args)


def _cmd_list(args) -> int:
    tag = getattr(args, "tag", None)
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
    return [
        args.max_rate * (i + 1) / args.points for i in range(args.points)
    ]


def _compare_params(args) -> SimParams:
    return SimParams(
        warmup_cycles=args.warmup, measure_cycles=args.measure,
        drain_cycles=500, seed=args.seed,
    )


def _cmd_compare(args) -> int:
    _setup_logging(args.verbose)
    arches = [a for a in args.arch.split(",") if a.strip()]
    try:
        scenario = compare_scenario(
            arches,
            pattern=args.pattern,
            scope=args.scope,
            preset=args.preset,
            routing=args.routing,
            rates=_compare_rates(args),
            params=_compare_params(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_study(Study.wrap(scenario), args)


def _cmd_report(args) -> int:
    try:
        result = StudyResult.load(args.results)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {args.results}: {exc}", file=sys.stderr)
        return 2
    channel = getattr(args, "channel", None)
    if channel:
        try:
            print(result.render_channel(channel))
            if args.csv:
                Path(args.csv).write_text(result.channel_csv(channel))
                print(f"# channel csv written to {args.csv}")
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return 0
    print(result.render())
    if args.csv:
        Path(args.csv).write_text(result.to_csv())
        print(f"# csv written to {args.csv}")
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


def _cmd_live_metrics(args) -> int:
    """``metrics --live``: poll a service's /api/metrics surface."""
    import time as _time

    from .service import ServiceError

    client = _service_client(args)
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
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


def _cmd_metrics(args) -> int:
    """Probe-kind listing, channels in a results file, or (with
    ``--live``/``--server``) a running service's runtime metrics."""
    if args.live:
        return _cmd_live_metrics(args)
    if args.server:
        from .service import ServiceError

        client = _service_client(args)
        try:
            print(client.metrics(fmt="prometheus"), end="")
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    if not args.results:
        print("registered metric probes (run with: "
              "repro-dragonfly run <name> --metrics <kinds>):")
        for name, desc in probe_descriptions().items():
            print(f"  {name:18s} {desc}")
        print("the cct/bubble/overlap channels need a closed-loop run "
              "(see 'repro-dragonfly workloads')")
        return 0
    try:
        result = StudyResult.load(args.results)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {args.results}: {exc}", file=sys.stderr)
        return 2
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


def _cmd_workloads(args) -> int:
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


def _parse_floats(text: str, what: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"cannot parse {what} list {text!r}") from None


def _cmd_resilience(args) -> int:
    """Failure-rate x load sweep with retention report and deadlock check."""
    _setup_logging(args.verbose)
    try:
        if args.smoke:
            study = build_study("resilience_smoke", scale="quick")
        else:
            arches = [a for a in args.arch.split(",") if a.strip()]
            study = resilience_study(
                arches=arches,
                failure_rates=_parse_floats(
                    args.failure_rates, "failure-rate"
                ),
                rates=_compare_rates(args),
                preset=args.preset,
                traffic=args.pattern.replace("-", "_"),
                scope=args.scope,
                routing_mode=args.routing,
                fault_model=args.model,
                fault_seed=args.fault_seed,
                params=_compare_params(args),
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    on_point = None
    if args.progress:
        on_point = _progress_printer(study.num_points())
    result = _run_or_explain(study, args.workers, cache, on_point)
    if result is None:
        return 2
    print(result.render())
    print()
    print(resilience_report(result).render())
    if cache is not None:
        print(
            f"# cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"({cache.root})"
        )
    if args.out:
        result.save(args.out)
        print(f"# results written to {args.out}")
    if args.csv:
        Path(args.csv).write_text(result.to_csv())
        print(f"# csv written to {args.csv}")
    return 0 if deadlock_ok else 1


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
# service commands
# ----------------------------------------------------------------------
def _default_cache_dir() -> str:
    return os.environ.get(
        "REPRO_CACHE_DIR",
        str(Path.home() / ".cache" / "repro-dragonfly"),
    )


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
            telemetry=not args.no_telemetry,
        )
    except (OSError, ValueError) as exc:
        print(f"error: cannot start service: {exc}", file=sys.stderr)
        return 2
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


def _service_client(args):
    from .service import ServiceClient

    return ServiceClient(args.server)


def _watch_event_printer(event) -> None:
    """Progress lines for the ``watch`` / ``submit --watch`` stream."""
    kind = event.get("event")
    if kind == "start":
        print(
            f"# start {event['study']} "
            f"({event['points_total']} point(s))"
            + (" [resumed after restart]" if event.get("resumed") else ""),
            file=sys.stderr,
        )
    elif kind == "point":
        res = event.get("result", {})
        print(
            f"# [{event['points_done']}/{event['points_total']}] "
            f"{event['scenario']}/{event['curve']} "
            f"rate={event['rate']:g} "
            f"lat={res.get('avg_latency') or float('nan'):.1f}cyc "
            f"acc={res.get('accepted_rate') or float('nan'):.3f} "
            f"({event['source']})",
            file=sys.stderr,
        )
    elif kind == "retry":
        print(
            f"# retry {event['attempt']}/{event['max_attempts']} in "
            f"{event['delay']:g}s: {event.get('error')}",
            file=sys.stderr,
        )
    elif kind == "failed":
        print(
            f"# FAILED after {event.get('attempts')} attempt(s): "
            f"{event.get('error')}",
            file=sys.stderr,
        )
        if event.get("traceback"):
            print(event["traceback"], file=sys.stderr)
    elif kind == "done":
        cache = event.get("cache", {}).get("summary", {})
        print(
            f"# done: {event['points_done']} point(s), "
            f"{event['cache_hits']} from cache",
            file=sys.stderr,
        )
        if cache:
            print(
                f"# store: {cache.get('entries', 0):.0f} entries, "
                f"{cache.get('bytes', 0):.0f} bytes",
                file=sys.stderr,
            )


def _watch_job(client, job_id: str, args) -> int:
    """Shared streaming tail of ``watch`` and ``submit --watch``."""
    from .service import ServiceError

    try:
        result = client.watch(job_id, on_event=_watch_event_printer)
    except ServiceError as exc:
        try:
            state = client.status(job_id).get("state")
        except ServiceError:
            state = None
        if state == "cancelled":
            print(f"# job {job_id} cancelled", file=sys.stderr)
            return 3
        if state == "failed":
            print(f"error: {exc}", file=sys.stderr)
            return 4
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.render())
    out = getattr(args, "out", None)
    if out:
        result.save(out)
        print(f"# results written to {out}")
    csv = getattr(args, "csv", None)
    if csv:
        Path(csv).write_text(result.to_csv())
        print(f"# csv written to {csv}")
    return 0


def _cmd_submit(args) -> int:
    from .service import JobRequest, ServiceError

    try:
        study = _load_run_target(args.scenario, args.scale)
    except (OSError, ValueError, KeyError) as exc:
        print(
            f"error: cannot load {args.scenario!r}: {exc}", file=sys.stderr
        )
        return 2
    metrics = tuple(
        m.strip() for m in (args.metrics or "").split(",") if m.strip()
    )
    request = JobRequest(
        study=study.to_data(),
        client=args.client,
        priority=args.priority,
        workers=args.workers,
        metrics=metrics,
    )
    client = _service_client(args)
    try:
        status = client.submit(request)
    except (ServiceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    note = " (attached to in-flight run)" if status.get("attached") else ""
    print(
        f"# job {status['id']}: {status['state']}{note}, "
        f"{status['points_total']} point(s), "
        f"{status.get('queued_ahead', 0)} execution(s) queued ahead",
        file=sys.stderr,
    )
    # the id alone on stdout, so scripts can do JOB=$(... submit ...)
    print(status["id"])
    if args.watch:
        return _watch_job(client, status["id"], args)
    print(
        f"# follow with: repro-dragonfly watch {status['id']} "
        f"--server {client.address}",
        file=sys.stderr,
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


def _cmd_status(args) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        if args.job:
            print(json.dumps(client.status(args.job), indent=2))
            return 0
        jobs = client.jobs()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print("no jobs")
        return 0
    print(f"jobs on {client.address}:")
    for job in jobs:
        print(_format_job_line(job))
    return 0


def _cmd_trace(args) -> int:
    """Render a job's span waterfall from the service trace endpoint."""
    from .obs import render_waterfall
    from .service import ServiceError

    client = _service_client(args)
    try:
        payload = client.trace(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def _cmd_watch(args) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        client.status(args.job)  # fail fast on unknown ids
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _watch_job(client, args.job, args)


def _cmd_cancel(args) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        status = client.cancel(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"# job {status['id']}: {status['state']} "
        f"after {status['points_done']}/{status['points_total']} point(s)"
    )
    return 0


def _cmd_shutdown(args) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        client.shutdown()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
            print(
                "error: prune needs --max-entries and/or --max-bytes",
                file=sys.stderr,
            )
            return 2
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
# argument wiring
# ----------------------------------------------------------------------
def _add_exec_args(parser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="simulation processes (default: REPRO_WORKERS or CPU count; "
        "1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="reuse/store per-point results in this directory",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the StudyResult JSON here",
    )
    parser.add_argument(
        "--csv", default=None, metavar="FILE",
        help="also write the flat per-point CSV here",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="KINDS",
        help="attach metric probes to every curve (comma-separated "
        "kinds, see 'repro-dragonfly metrics'); channels land in the "
        "results JSON",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per completed simulation point on stderr",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="engine progress logging")


def _add_workload_args(parser) -> None:
    parser.add_argument("--routing", choices=("minimal", "valiant"),
                        default="minimal")
    parser.add_argument("--scope", choices=("local", "global"),
                        default="local")
    parser.add_argument(
        "--pattern", default="uniform",
        help="traffic kind (see 'repro-dragonfly list'); hyphens accepted",
    )
    parser.add_argument(
        "--preset", default="small_equiv",
        help="SwitchlessConfig preset sizing the system "
        "(see 'repro-dragonfly list')",
    )
    parser.add_argument("--points", type=int, default=6)
    parser.add_argument("--max-rate", type=float, default=1.5)
    parser.add_argument("--warmup", type=int, default=300)
    parser.add_argument("--measure", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dragonfly",
        description="Switch-Less Dragonfly on Wafers (SC'24) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I, II and IV")
    sub.add_parser("table3", help="print the Table III case study")
    sub.add_parser("layout", help="print the Fig. 9 layout summary")

    run = sub.add_parser(
        "run", help="run a bundled scenario or a scenario/study JSON file"
    )
    run.add_argument(
        "scenario",
        help="bundled study name (see 'list') or path to a "
        "scenarios/*.json file",
    )
    run.add_argument(
        "--scale", choices=SCALES, default="default",
        help="system size / cycle count for bundled names "
        "(ignored for files)",
    )
    run.add_argument(
        "--workload", default=None, metavar="NAME",
        help="re-drive every curve closed-loop with this application "
        "workload (see 'repro-dragonfly workloads'); rates become "
        "pacing bandwidths",
    )
    run.add_argument(
        "--workload-opts", default=None, metavar="K=V[,K=V]",
        help="builder options for --workload (e.g. volume=256); for "
        "--workload trace, trace=<path> names the trace JSON file",
    )
    _add_exec_args(run)

    list_p = sub.add_parser(
        "list",
        help="bundled scenarios and registered topology/routing/traffic "
        "kinds",
    )
    list_p.add_argument(
        "--tag", default=None,
        help="only show bundled studies carrying this tag "
        "(e.g. figure, smoke, resilience)",
    )

    compare = sub.add_parser(
        "compare", help="compare architectures under one workload"
    )
    compare.add_argument(
        "--arch", default="switchless,dragonfly",
        help="comma-separated list: switchless, switchless-2b, "
        "switchless-4b, dragonfly",
    )
    _add_workload_args(compare)
    _add_exec_args(compare)

    resilience = sub.add_parser(
        "resilience",
        help="throughput-under-failure sweep: failure rate x load with "
        "saturation-retention report and per-instance deadlock check",
    )
    resilience.add_argument(
        "--arch", default="switchless,dragonfly",
        help="comma-separated list: switchless, switchless-2b, "
        "switchless-4b, dragonfly",
    )
    resilience.add_argument(
        "--failure-rates", default="0,0.02,0.05,0.1",
        help="comma-separated fault axis (random model: per-channel "
        "failure probability; yield model: defect clusters per wafer)",
    )
    resilience.add_argument(
        "--model", choices=("random", "yield"), default="random",
        help="fault model realising the failure rates",
    )
    resilience.add_argument(
        "--fault-seed", type=int, default=7,
        help="seed of the fault sampling stream (not the sim seed)",
    )
    resilience.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-instance deadlock-freedom verification",
    )
    resilience.add_argument(
        "--max-pairs", type=int, default=300,
        help="terminal pairs sampled per deadlock check",
    )
    resilience.add_argument(
        "--smoke", action="store_true",
        help="run the bundled resilience_smoke study (ignores the "
        "workload flags; used by CI)",
    )
    _add_workload_args(resilience)
    _add_exec_args(resilience)
    # resilience probes the saturation region, not the full load axis
    resilience.set_defaults(points=4, max_rate=0.6)

    report = sub.add_parser(
        "report", help="render a saved StudyResult JSON file"
    )
    report.add_argument("results", help="path to a results JSON file")
    report.add_argument(
        "--csv", default=None, metavar="FILE",
        help="also write the flat per-point CSV here (with --channel: "
        "that channel's long-form CSV)",
    )
    report.add_argument(
        "--channel", default=None, metavar="NAME",
        help="render one metric channel across all points instead of "
        "the curve tables (see 'repro-dragonfly metrics <results>')",
    )

    metrics = sub.add_parser(
        "metrics",
        help="list registered metric probes, or the channels inside a "
        "results file",
    )
    metrics.add_argument(
        "results", nargs="?", default=None,
        help="optional path to a StudyResult JSON file",
    )

    sub.add_parser(
        "workloads",
        help="list the closed-loop application workloads and the trace "
        "format",
    )

    verify = sub.add_parser("verify", help="deadlock-freedom check")
    verify.add_argument("--policy", choices=("baseline", "reduced"),
                        default="baseline")
    verify.add_argument("--max-pairs", type=int, default=2000)

    # -- service mode --------------------------------------------------
    def _add_server_arg(p) -> None:
        p.add_argument(
            "--server", default=None, metavar="URL",
            help="service address (default: $REPRO_SERVICE_URL or "
            "http://127.0.0.1:8642)",
        )

    serve_p = sub.add_parser(
        "serve",
        help="run the simulation service: async job queue, streaming "
        "telemetry, shared result store, warm engine state",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 picks an ephemeral port)",
    )
    serve_p.add_argument(
        "--cache-dir", default=_default_cache_dir(),
        help="result store directory, shared with offline runs "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-dragonfly)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=1,
        help="default engine worker processes per job (a request's "
        "'workers' field overrides)",
    )
    serve_p.add_argument(
        "--max-inflight", type=int, default=8,
        help="per-client cap on jobs in flight (submissions beyond it "
        "are rejected with HTTP 429)",
    )
    serve_p.add_argument(
        "--max-entries", type=int, default=None,
        help="bound the store to this many entries (LRU eviction)",
    )
    serve_p.add_argument(
        "--max-bytes", type=int, default=None,
        help="bound the store to this many bytes (LRU eviction)",
    )
    serve_p.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="journal jobs here and replay them on startup: a server "
        "restarted against the same directory resumes interrupted "
        "jobs (completed points come back from the result store)",
    )
    serve_p.add_argument(
        "--max-attempts", type=int, default=3,
        help="supervised retry budget per execution; after this many "
        "failed attempts a job is quarantined as 'failed' with its "
        "traceback (default: 3)",
    )
    serve_p.add_argument(
        "--hang-timeout", type=float, default=None, metavar="SECONDS",
        help="watchdog: reap a running job this many seconds after "
        "its last heartbeat (default: disabled)",
    )
    serve_p.add_argument(
        "--log-format", choices=("text", "json"), default="text",
        help="service log lines: classic text or structured NDJSON "
        "(each line carries trace_id/job/state fields)",
    )
    serve_p.add_argument(
        "--no-telemetry", action="store_true",
        help="disable the runtime telemetry plane (span log, trace "
        "endpoint; metrics counters still tick but gauges go stale)",
    )

    # runtime-metrics flags on the 'metrics' verb (probe listing above)
    _add_server_arg(metrics)
    metrics.add_argument(
        "--live", action="store_true",
        help="poll the service /api/metrics surface and print one "
        "status line per interval (Ctrl-C to stop)",
    )
    metrics.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="--live polling interval (default: 2s)",
    )
    metrics.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="--live: stop after N polls (default: run until Ctrl-C)",
    )

    trace_p = sub.add_parser(
        "trace",
        help="render a job's span waterfall (queue wait, engine, "
        "kernel chunks) from a telemetry-enabled service",
    )
    trace_p.add_argument("job", help="job id from 'submit'")
    trace_p.add_argument(
        "--json", action="store_true",
        help="print the raw repro.trace/v1 payload instead",
    )
    _add_server_arg(trace_p)

    submit = sub.add_parser(
        "submit", help="submit a study to a running service"
    )
    submit.add_argument(
        "scenario",
        help="bundled study name (see 'list') or path to a "
        "scenarios/*.json file",
    )
    submit.add_argument(
        "--scale", choices=SCALES, default="default",
        help="system size for bundled names (ignored for files)",
    )
    submit.add_argument(
        "--metrics", default=None, metavar="KINDS",
        help="metric probe kinds applied to every curve (comma-separated)",
    )
    submit.add_argument(
        "--workers", type=int, default=None,
        help="engine worker processes for this job (default: the "
        "server's --workers)",
    )
    submit.add_argument(
        "--client", default=os.environ.get("USER", ""),
        help="client id for fairness accounting (default: $USER)",
    )
    submit.add_argument(
        "--priority", type=int, default=0,
        help="higher runs first; FIFO within a priority level",
    )
    submit.add_argument(
        "--watch", action="store_true",
        help="follow the event stream to completion (like 'watch')",
    )
    submit.add_argument("--out", default=None, metavar="FILE",
                        help="with --watch: write the StudyResult here")
    submit.add_argument("--csv", default=None, metavar="FILE",
                        help="with --watch: write the per-point CSV here")
    _add_server_arg(submit)

    status_p = sub.add_parser(
        "status", help="job status (or all jobs) on a running service"
    )
    status_p.add_argument(
        "job", nargs="?", default=None,
        help="job id (omit to list every job)",
    )
    _add_server_arg(status_p)

    watch = sub.add_parser(
        "watch",
        help="stream a job's per-point telemetry to completion "
        "(exit 0 done, 3 cancelled, 1 error)",
    )
    watch.add_argument("job", help="job id from 'submit'")
    watch.add_argument("--out", default=None, metavar="FILE",
                       help="write the final StudyResult JSON here")
    watch.add_argument("--csv", default=None, metavar="FILE",
                       help="write the flat per-point CSV here")
    _add_server_arg(watch)

    cancel = sub.add_parser("cancel", help="cancel a job")
    cancel.add_argument("job", help="job id from 'submit'")
    _add_server_arg(cancel)

    shutdown_p = sub.add_parser(
        "shutdown", help="stop a running service cleanly"
    )
    _add_server_arg(shutdown_p)

    cache_p = sub.add_parser(
        "cache",
        help="inspect or maintain a result store directory",
    )
    cache_p.add_argument(
        "action", nargs="?", default="stats",
        choices=("stats", "clear", "prune"),
        help="stats (default): entry count, bytes, engine-version mix; "
        "clear: delete every entry; prune: LRU-evict to the bounds",
    )
    cache_p.add_argument(
        "--cache-dir", default=_default_cache_dir(),
        help="store directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-dragonfly)",
    )
    cache_p.add_argument("--max-entries", type=int, default=None,
                         help="prune: keep at most this many entries")
    cache_p.add_argument("--max-bytes", type=int, default=None,
                         help="prune: keep at most this many bytes")

    args = parser.parse_args(argv)
    handler = {
        "tables": _cmd_tables,
        "table3": _cmd_table3,
        "layout": _cmd_layout,
        "run": _cmd_run,
        "list": _cmd_list,
        "compare": _cmd_compare,
        "report": _cmd_report,
        "metrics": _cmd_metrics,
        "workloads": _cmd_workloads,
        "resilience": _cmd_resilience,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "trace": _cmd_trace,
        "watch": _cmd_watch,
        "cancel": _cmd_cancel,
        "shutdown": _cmd_shutdown,
        "cache": _cmd_cache,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
