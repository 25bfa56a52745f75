#!/usr/bin/env python3
"""Observability tour: per-link load and misrouting with metric probes.

Walks the `repro.metrics` probe API end to end:

1. attach probes to a single simulation and read the typed channels
   off the result;
2. print a per-link load table — the Fig. 13-style view of *where*
   traffic goes, not just how fast it gets there;
3. run minimal vs Valiant routing under hotspot traffic as one
   `panel()` scenario (a `metrics` probe list in each architecture
   fragment) and compare misroute ratios and link-load imbalance;
4. export the link telemetry as long-form CSV.

Run:  python examples/link_utilization.py
"""

from repro.metrics import hot_links, link_load_summary, misroute_table
from repro.api import Study, panel, sim_params, switchless_arch
from repro.engine.spec import ExperimentSpec, build_experiment
from repro.network import SimParams, Simulator

# ----------------------------------------------------------------------
# 1. probes on a bare simulation
# ----------------------------------------------------------------------
params = SimParams(
    warmup_cycles=150, measure_cycles=500, drain_cycles=250, seed=11
)
spec = ExperimentSpec.create(
    topology="switchless",
    topology_opts={"preset": "small_equiv"},
    routing="switchless",
    routing_opts={"mode": "minimal"},
    traffic="uniform",
    params=params,
)
graph, routing, traffic = build_experiment(spec)
sim = Simulator(
    graph, routing, traffic, params,
    probes=["link_util", "latency_hist", "timeseries"],
)
res = sim.run(0.35)
print(f"simulated: {res}")
print()

# ----------------------------------------------------------------------
# 2. where did the traffic go?
# ----------------------------------------------------------------------
link_util = res.channels["link_util"]
print(link_util.format_table(max_rows=0).splitlines()[0])
print("ten hottest links (flits during the measurement window):")
print(f"{'link':>6} {'src':>5} {'dst':>5} {'flits':>7} {'load':>7}")
for link, src, dst, flits, load, _share in hot_links(link_util, 10):
    print(f"{link:6d} {src:5d} {dst:5d} {flits:7d} {load:7.3f}")
print()

# ----------------------------------------------------------------------
# 3. minimal vs Valiant under hotspot traffic (Fig. 13 style)
# ----------------------------------------------------------------------
# one curve per routing mode; each fragment carries its own probe list
probes = ["link_util", "misroute"]
scenario = panel(
    "hotspot",
    {
        label: {**switchless_arch(mode, preset="small_equiv"),
                "metrics": probes}
        for label, mode in (
            ("SW-less-Min", "minimal"), ("SW-less-Mis", "valiant")
        )
    },
    traffic="hotspot",
    traffic_opts={"num_hot": 4},
    rates=[0.1, 0.25],
    params=sim_params("quick"),
    title="hotspot: minimal vs Valiant, with probes",
)
study = Study(name="fig13_probe_demo", scenarios=(scenario,))
result = study.run(workers=1)
print(misroute_table(result))
print()
for scn in result.scenarios:
    for curve in scn.curves:
        top = curve.points[-1]
        s = link_load_summary(top)
        print(
            f"{curve.label:12s} rate={top.rate:.2f}  "
            f"max link load={s['max_flits_per_cycle']:.3f} "
            f"(imbalance {s['imbalance']:.1f}x mean)"
        )
print()

# ----------------------------------------------------------------------
# 4. long-form CSV export of the telemetry
# ----------------------------------------------------------------------
csv = result.channel_csv("link_util")
print("channel_csv('link_util') header + first rows:")
for line in csv.splitlines()[:4]:
    print(f"  {line}")
print(f"  ... ({csv.count(chr(10)) - 1} rows total)")
