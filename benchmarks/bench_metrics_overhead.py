"""Probe-layer overhead benchmark: probe-on cost, probe-off identity.

The observability layer's contract is that *not* using it is free and
that using it never perturbs the simulation.  On a Fig. 10(c)
local-uniform workload this benchmark reports, per offered load:

* **probe-off** and **probe-on** wall-clock, the latter with the full
  built-in probe bundle, reported honestly as a ratio over probe-off
  (the post-run decode is *expected* to cost something — it walks
  every route);
* a hard correctness gate at every point: the probe-on run's
  ``SimResult`` aggregates must equal the probe-off run's bit for bit.

That probe-off runs stay as fast as they were is gated on every PR by
the repo benchmark instead (``unit_s`` of ``warm_sweep_local`` in
``bench/``, against the parent commit).

Usage::

    python benchmarks/bench_metrics_overhead.py
        [--scale quick|default|full] [--reps 3]
        [--out BENCH_metrics.json]

The committed ``BENCH_metrics.json`` is produced with ``--scale full``;
CI runs ``--scale quick``.  Exit code 1 when the identity gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.library import sim_params, switchless_arch  # noqa: E402
from repro.engine.spec import ExperimentSpec, build_experiment  # noqa: E402
from repro.metrics import list_probes  # noqa: E402
from repro.network import Simulator, native_available  # noqa: E402

#: low, mid, high, past saturation.
RATE_POINTS = {"low": 0.3, "mid": 0.6, "high": 0.9, "sat": 1.2}

#: the full built-in bundle — the honest worst case for probe-on cost.
PROBE_BUNDLE = [
    "link_util", "vc_util", "latency_hist", "timeseries", "misroute",
    "ejection_fairness",
]


def workload_spec(params) -> ExperimentSpec:
    return ExperimentSpec.create(
        traffic="uniform",
        traffic_opts={"scope": ("group", 0)},
        params=params,
        rates=sorted(RATE_POINTS.values()),
        label="SW-less",
        **switchless_arch(
            preset="radix16_equiv", num_wgroups=2, cgroups_per_wafer=1
        ),
    )


def timed_run(graph, routing, traffic, params, rate, core, probes=None):
    sim = Simulator(graph, routing, traffic, params, core=core,
                    probes=probes)
    t0 = time.perf_counter()
    res = sim.run(rate)
    return time.perf_counter() - t0, res


def best_time(graph, routing, traffic, params, rate, core, reps,
              probes=None):
    """Best-of-``reps`` wall-clock: the standard de-noising statistic
    for single-machine micro-benchmarks (scheduler preemption and
    cache pollution only ever add time, never subtract it)."""
    times, last = [], None
    for _ in range(reps):
        dt, last = timed_run(
            graph, routing, traffic, params, rate, core, probes=probes
        )
        times.append(dt)
    return min(times), last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="full",
                        choices=("quick", "default", "full"))
    parser.add_argument("--reps", type=int, default=5,
                        help="runs per point; the best (min) is reported")
    parser.add_argument("--out", default="BENCH_metrics.json")
    args = parser.parse_args(argv)

    core = "native" if native_available() else "array"
    params = sim_params(args.scale, seed=11)
    spec = workload_spec(params)
    graph, routing, traffic = build_experiment(spec)
    # warm the route memo so neither side pays first-run resolution
    timed_run(graph, routing, traffic, params, RATE_POINTS["low"], core)

    rows = []
    identical = True
    for label, rate in RATE_POINTS.items():
        t_off, res_off = best_time(
            graph, routing, traffic, params, rate, core, args.reps
        )
        t_on, res_on = best_time(
            graph, routing, traffic, params, rate, core, args.reps,
            probes=list(PROBE_BUNDLE),
        )
        d_on = res_on.to_dict()
        d_on.pop("channels", None)
        point_identical = d_on == res_off.to_dict()
        identical = identical and point_identical
        row = {
            "label": label,
            "rate": rate,
            "probe_off_seconds": round(t_off, 4),
            "probe_on_seconds": round(t_on, 4),
            "probe_on_ratio": round(t_on / t_off, 3) if t_off else None,
            "probe_on_identical_aggregates": point_identical,
        }
        rows.append(row)
        print(
            f"{label:5s} rate={rate:.1f}  off={t_off:.3f}s  "
            f"on={t_on:.3f}s ({row['probe_on_ratio']}x)"
        )

    report = {
        "benchmark": "metrics_probe_overhead",
        "workload": "fig10_local_uniform",
        "scale": args.scale,
        "core": core,
        "probe_bundle": PROBE_BUNDLE,
        "registered_probes": list_probes(),
        "reps": args.reps,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "timing_statistic": f"best of {args.reps}",
        "timing": rows,
        "probe_on_aggregates_identical": identical,
    }

    if not identical:
        print("FAIL: probe-on run diverged from probe-off aggregates")
    on_med = statistics.median(
        r["probe_on_ratio"] for r in rows if r["probe_on_ratio"]
    )
    report["probe_on_ratio_median"] = round(on_med, 3)
    print(f"probe-on cost (full bundle): median {on_med:.2f}x probe-off")

    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
