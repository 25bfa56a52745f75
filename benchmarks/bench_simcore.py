"""Simulator-core micro-benchmark: old vs new serial wall-clock.

Times the pre-PR object-based simulator (the ``reference`` core —
bit-identical results and performance to the original hot loop) against
the struct-of-arrays core that :class:`repro.network.Simulator` now
selects by default (``native`` when a C compiler is available, else the
pure-Python ``array`` core) on the Fig. 10(c) local-uniform workload,
one run per offered load from low load to past saturation.

It also emits the cross-core equivalence report:

* **pinned**: with a pinned injection schedule all cores must produce
  *identical* results (this is the hard gate — exit code 1 on any
  mismatch);
* **rng shift**: run free, the new cores sample the injection process
  as vectorized geometric inter-arrival batches instead of per-cycle
  Bernoulli masks.  The process law is unchanged but the numpy stream
  is consumed differently, so per-seed numbers shift; the report runs
  both cores over several seeds and checks that mean latency (below
  saturation), accepted throughput, and the saturation point stay
  within seed noise.

Sweep-level timings (packed chunks, engine dispatch) are the repo
benchmark's job (``bench/run.py``); the packed-vs-per-lane parity
gate is ``tests/engine/test_batch_engine.py``.

Usage::

    python benchmarks/bench_simcore.py [--scale quick|default|full]
        [--seeds 11,12,13] [--out BENCH_simcore.json]

The committed ``BENCH_simcore.json`` is produced with ``--scale full``
(paper Table IV windows) for the timing section; the equivalence
sections use reduced windows so the whole script stays minutes-free.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.library import sim_params, switchless_arch  # noqa: E402
from repro.engine.spec import ExperimentSpec, build_experiment  # noqa: E402
from repro.network import Simulator, native_available  # noqa: E402

#: offered loads (flits/cycle/chip): low, mid, high, past saturation
#: for the SW-less W-group (saturation sits near 1.1).
RATE_POINTS = {"low": 0.3, "mid": 0.6, "high": 0.9, "sat": 1.2}


def fig10_local_uniform_spec(params) -> ExperimentSpec:
    """The Fig. 10(c) SW-less arch under local uniform traffic."""
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


def build(spec):
    return build_experiment(spec)


def timed_run(graph, routing, traffic, params, rate, core):
    sim = Simulator(graph, routing, traffic, params, core=core)
    t0 = time.perf_counter()
    res = sim.run(rate)
    return time.perf_counter() - t0, res


def timing_section(scale: str, new_core: str):
    params = sim_params(scale)
    spec = fig10_local_uniform_spec(params)
    graph, routing, traffic = build(spec)
    # warm the routing's shared route memo (and the native-kernel
    # compilation cache) at full measurement scale so the first-timed
    # core doesn't pay one-off costs the others then reuse for free
    for rate in RATE_POINTS.values():
        Simulator(graph, routing, traffic, params).run(rate)
    rows = []
    for label, rate in RATE_POINTS.items():
        row = {"label": label, "rate": rate}
        for core in ("reference", "array", new_core):
            dt, res = timed_run(graph, routing, traffic, params, rate, core)
            row[f"{core}_seconds"] = round(dt, 3)
            row.setdefault("accepted", {})[core] = round(
                res.accepted_rate, 4
            )
        row["speedup"] = round(
            row["reference_seconds"] / row[f"{new_core}_seconds"], 2
        )
        rows.append(row)
        print(
            f"  {label:4s} rate={rate:4.1f}: "
            f"old={row['reference_seconds']:7.2f}s "
            f"array={row['array_seconds']:7.2f}s "
            f"new({new_core})={row[f'{new_core}_seconds']:7.2f}s "
            f"-> {row['speedup']:.1f}x"
        )
    return rows


def pinned_equivalence(new_core: str) -> bool:
    """All cores identical under a pinned injection schedule."""
    params = sim_params("quick", seed=17)
    spec = fig10_local_uniform_spec(params)
    graph, routing, traffic = build(spec)
    ok = True
    for rate in (RATE_POINTS["mid"], RATE_POINTS["sat"]):
        schedule = Simulator(graph, routing, traffic, params).make_schedule(
            rate
        )
        outs = {}
        for core in ("reference", "array", new_core):
            sim = Simulator(graph, routing, traffic, params, core=core)
            outs[core] = sim.run(rate, schedule=schedule).to_dict()
        same = all(o == outs["reference"] for o in outs.values())
        print(f"  pinned rate={rate}: identical={same}")
        ok &= same
    return ok


def rng_shift_report(seeds, new_core: str):
    """Free-running old vs new curves across seeds."""
    # one extra deep-saturation point so the saturation-rate
    # comparison actually brackets the knee (~1.1 flits/cycle/chip)
    rates = sorted(RATE_POINTS.values()) + [1.6]
    curves = {"reference": {}, new_core: {}}  # core -> rate -> per-seed
    for core in curves:
        for seed in seeds:
            params = sim_params("default", seed=seed)
            spec = fig10_local_uniform_spec(params)
            graph, routing, traffic = build(spec)
            for rate in rates:
                _, res = timed_run(
                    graph, routing, traffic, params, rate, core
                )
                curves[core].setdefault(rate, []).append(res)

    def sat_rate(core):
        """First rate whose mean accepted load falls below 90% of the
        mean effective offered load."""
        for rate in rates:
            res = curves[core][rate]
            acc = statistics.fmean(r.accepted_rate for r in res)
            off = statistics.fmean(r.effective_offered for r in res)
            if acc < 0.9 * off:
                return rate
        return None

    report = {"seeds": list(seeds), "rates": rates, "points": []}
    clean = True
    for rate in rates:
        old = curves["reference"][rate]
        new = curves[new_core][rate]
        entry = {"rate": rate}
        for name, res in (("old", old), ("new", new)):
            lats = [r.avg_latency for r in res]
            accs = [r.accepted_rate for r in res]
            entry[f"{name}_latency"] = [round(x, 2) for x in lats]
            entry[f"{name}_accepted"] = [round(x, 4) for x in accs]
        # accepted throughput must agree within seed noise everywhere
        o = [r.accepted_rate for r in old]
        n = [r.accepted_rate for r in new]
        sigma = max(
            statistics.pstdev(o), statistics.pstdev(n), 1e-9
        )
        shift = abs(statistics.fmean(o) - statistics.fmean(n))
        acc_ok = shift <= max(3 * sigma, 0.02 * statistics.fmean(o))
        entry["accepted_within_noise"] = acc_ok
        # mean latency compared only while both cores still deliver
        # essentially all offered load — approaching saturation the
        # mean is dominated by unbounded queueing noise
        delivering = all(
            statistics.fmean(r.accepted_rate for r in res)
            >= 0.98 * statistics.fmean(r.effective_offered for r in res)
            for res in (old, new)
        )
        if delivering:
            ol = [r.avg_latency for r in old]
            nl = [r.avg_latency for r in new]
            if all(map(math.isfinite, ol + nl)):
                sigma = max(
                    statistics.pstdev(ol), statistics.pstdev(nl), 1e-9
                )
                shift = abs(
                    statistics.fmean(ol) - statistics.fmean(nl)
                )
                lat_ok = shift <= max(
                    3 * sigma, 0.05 * statistics.fmean(ol)
                )
                entry["latency_within_noise"] = lat_ok
                clean &= lat_ok
        clean &= acc_ok
        report["points"].append(entry)

    report["old_saturation_rate"] = sat_rate("reference")
    report["new_saturation_rate"] = sat_rate(new_core)
    sat_ok = report["old_saturation_rate"] == report["new_saturation_rate"]
    report["saturation_agrees"] = sat_ok
    clean &= sat_ok
    report["clean"] = clean
    for e in report["points"]:
        print(
            f"  rng-shift rate={e['rate']:4.1f}: "
            f"accepted_ok={e['accepted_within_noise']} "
            f"latency_ok={e.get('latency_within_noise', 'n/a (sat)')}"
        )
    print(
        f"  saturation: old={report['old_saturation_rate']} "
        f"new={report['new_saturation_rate']} agree={sat_ok}"
    )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--scale",
        choices=["quick", "default", "full"],
        default="full",
        help="simulation windows for the timing section",
    )
    ap.add_argument("--seeds", default="11,12,13")
    ap.add_argument("--out", default="BENCH_simcore.json")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]

    new_core = "native" if native_available() else "array"
    print(
        f"new core: {new_core} (native available: {native_available()})"
    )

    print(f"timing (scale={args.scale}):")
    timing = timing_section(args.scale, new_core)
    print("pinned-schedule equivalence:")
    pinned_ok = pinned_equivalence(new_core)
    print(f"rng-shift curves over seeds {seeds}:")
    shift = rng_shift_report(seeds, new_core)

    mid = next(r for r in timing if r["label"] == "mid")
    payload = {
        "benchmark": "simcore_fig10_local_uniform",
        "scale": args.scale,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "old_core": "reference (pre-PR object-based simulator)",
        "new_core": new_core,
        "native_available": native_available(),
        "timing": timing,
        "mid_load_speedup": mid["speedup"],
        "equivalence": {
            "pinned_identical": pinned_ok,
            "rng_shift": shift,
        },
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"wrote {args.out}: mid-load speedup {mid['speedup']}x, "
        f"pinned identical: {pinned_ok}, "
        f"rng-shift clean: {shift['clean']}"
    )
    if mid["speedup"] < 2.0:
        print("WARNING: mid-load speedup below the 2x target")
    return 0 if pinned_ok and shift["clean"] else 1


if __name__ == "__main__":
    sys.exit(main())
