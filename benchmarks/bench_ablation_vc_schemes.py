"""Ablation A1 (DESIGN.md): VC policies and C-group styles.

Not a paper figure: quantifies the design choices behind Sec. IV —
baseline (4-VC) vs reduced (3-VC) schemes and mesh vs IO-router C-groups
— by measured saturation under uniform traffic, plus the deadlock
verdicts of the CDG checker (the reproduction's Sec. IV-B finding).
"""

from conftest import SCALE, once, pick_rates, sim_params

from repro.api import ScenarioResult
from repro.core import SwitchlessConfig, build_switchless
from repro.network import sweep_rates
from repro.routing import SwitchlessRouting, verify_deadlock_free
from repro.traffic import UniformTraffic


def _run():
    params = sim_params()
    mesh_sys = build_switchless(SwitchlessConfig.small_equiv())
    io_sys = build_switchless(
        SwitchlessConfig.small_equiv(cgroup_style="io-router")
    )
    configs = {
        "mesh / baseline (4 VC)": (
            mesh_sys.graph,
            SwitchlessRouting(mesh_sys, "minimal", policy="baseline"),
            UniformTraffic(mesh_sys.graph),
        ),
        "mesh / reduced (3 VC)": (
            mesh_sys.graph,
            SwitchlessRouting(mesh_sys, "minimal", policy="reduced"),
            UniformTraffic(mesh_sys.graph),
        ),
        "io-router / reduced (3 VC)": (
            io_sys.graph,
            SwitchlessRouting(io_sys, "minimal", policy="reduced"),
            UniformTraffic(io_sys.graph),
        ),
    }
    rates = pick_rates([0.15, 0.3, 0.45, 0.6])
    figure = ScenarioResult(
        name="ablation_vc_schemes",
        title=f"Ablation A1: VC schemes and C-group styles (scale={SCALE})",
        note="reduced saves one VC; CDG verdicts quantify its safety domain",
        curves=tuple(
            sweep_rates(*triple, rates, params, label=label)
            for label, triple in configs.items()
        ),
    )
    verdicts = {}
    for label, (graph, routing, _t) in configs.items():
        verdicts[label] = verify_deadlock_free(
            graph, routing, max_pairs=1200
        ).acyclic
    return figure, verdicts


def bench_ablation_vc_schemes(benchmark):
    figure, verdicts = once(benchmark, _run)
    print()
    print(figure.render())
    print("CDG acyclic verdicts:")
    for label, ok in verdicts.items():
        print(f"  {label:28s} {'ACYCLIC' if ok else 'CYCLIC (documented)'}")
    assert verdicts["mesh / baseline (4 VC)"]
    assert verdicts["io-router / reduced (3 VC)"]
    assert not verdicts["mesh / reduced (3 VC)"]
