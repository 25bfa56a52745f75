"""Bundled scenario library: the paper's Figs. 10-14 as declarative
studies, plus a tiny ``smoke`` study for CI.

Every entry is a builder ``fn(scale) -> Study`` registered under the
figure's name; :func:`build_study` realises one, :func:`save_library`
writes the whole library to ``scenarios/*.json`` files (regenerate with
``python -m repro.api.library scenarios``).  The ``scale`` knob trades
system size and simulated cycles for wall-clock:

``quick``
    smoke-level: thinned rate lists, short windows, fewer panels;
``default``
    CI-scale structural equivalents (the ``small_equiv`` systems);
``full``
    the paper-exact configurations and Table IV cycle counts.

The builders carry the exact architecture fragments the figure
benchmarks used to hand-roll (switch-based Dragonfly baseline with an
ideal-router ``vc_spread=2`` emulation, the switch-less system and its
2B/4B bandwidth variants), so ``benchmarks/bench_fig10..14`` are now
thin wrappers over ``build_study(name, scale).run()``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..engine import ExperimentSpec
from ..engine.spec import suggest
from ..network.params import SimParams
from .scenario import Scenario, Study

__all__ = [
    "SCALES",
    "build_study",
    "dragonfly_arch",
    "library_studies",
    "list_library",
    "make_spec",
    "pick_rates",
    "register_study",
    "save_library",
    "sim_params",
    "switchless_arch",
]

SCALES = ("quick", "default", "full")


def sim_params(scale: str = "default", seed: int = 11) -> SimParams:
    """Simulation windows per scale (``full`` = paper Table IV)."""
    _check_scale(scale)
    if scale == "full":
        return SimParams(seed=seed)  # Table IV: 5000 + 10000 cycles
    if scale == "quick":
        return SimParams(
            warmup_cycles=150, measure_cycles=400, drain_cycles=200,
            seed=seed,
        )
    return SimParams(
        warmup_cycles=300, measure_cycles=900, drain_cycles=400, seed=seed
    )


def pick_rates(
    rates: Sequence[float], scale: str = "default", quick_count: int = 3
) -> List[float]:
    """Thin a rate list under the quick scale."""
    rates = list(rates)
    if scale == "quick" and len(rates) > quick_count:
        step = max(1, len(rates) // quick_count)
        rates = rates[::step]
    return rates


def _check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")


# ----------------------------------------------------------------------
# architecture fragments (make_spec(**arch) keyword bundles)
# ----------------------------------------------------------------------

#: Fig. 10(a)/14(a) intra-C-group contenders.
MESH_ARCH = {
    "topology": "mesh", "topology_opts": {"dim": 4, "chiplet_dim": 2},
    "routing": "xy_mesh",
}
SWITCH_ARCH = {
    "topology": "switch",
    "topology_opts": {"num_terminals": 4, "terminal_latency": 1},
    "routing": "switch_star",
}


def dragonfly_arch(mode: str = "minimal", **topology_opts) -> Dict:
    """Switch-based baseline (ideal router emulated via vc_spread=2)."""
    return {
        "topology": "dragonfly", "topology_opts": topology_opts,
        "routing": "dragonfly",
        "routing_opts": {"mode": mode, "vc_spread": 2},
    }


def switchless_arch(mode: str = "minimal", **topology_opts) -> Dict:
    """The paper's switch-less Dragonfly."""
    return {
        "topology": "switchless", "topology_opts": topology_opts,
        "routing": "switchless", "routing_opts": {"mode": mode},
    }


def make_spec(
    label: str,
    *,
    topology: str,
    routing: str,
    traffic: str,
    rates: Sequence[float],
    params: SimParams,
    scale: str = "default",
    topology_opts: Optional[Dict] = None,
    routing_opts: Optional[Dict] = None,
    traffic_opts: Optional[Dict] = None,
    faults: Optional[Dict] = None,
    metrics=None,
    workload: str = "",
    workload_opts: Optional[Dict] = None,
) -> ExperimentSpec:
    """Labelled :meth:`ExperimentSpec.create` with scale-thinned rates."""
    return ExperimentSpec.create(
        topology=topology,
        topology_opts=topology_opts,
        routing=routing,
        routing_opts=routing_opts,
        traffic=traffic,
        traffic_opts=traffic_opts,
        params=params,
        rates=pick_rates(rates, scale),
        label=label,
        faults=faults,
        metrics=metrics,
        workload=workload,
        workload_opts=workload_opts,
    )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_LIBRARY: Dict[str, Callable[[str], Study]] = {}


def register_study(name: str) -> Callable:
    """Register ``fn(scale) -> Study`` as a bundled library entry."""

    def deco(fn: Callable[[str], Study]) -> Callable[[str], Study]:
        if name in _LIBRARY:
            raise ValueError(f"study {name!r} is already registered")
        _LIBRARY[name] = fn
        return fn

    return deco


def list_library() -> List[str]:
    """Names of the bundled studies."""
    return sorted(_LIBRARY)


def build_study(name: str, scale: str = "default") -> Study:
    """Realise one bundled study at the given scale."""
    _check_scale(scale)
    try:
        builder = _LIBRARY[name]
    except KeyError:
        raise ValueError(
            f"unknown library study {name!r}"
            f"{suggest(name, list_library())}; "
            f"bundled: {list_library()}"
        ) from None
    return builder(scale)


def library_studies(scale: str = "default") -> List[Study]:
    return [build_study(name, scale) for name in list_library()]


def save_library(
    directory: Union[str, Path], scale: str = "default"
) -> List[Path]:
    """Write every bundled study to ``<directory>/<name>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [
        build_study(name, scale).save(directory / f"{name}.json")
        for name in list_library()
    ]


# ----------------------------------------------------------------------
# Fig. 10(a-b): intra-C-group, 2D mesh vs switch
# ----------------------------------------------------------------------
@register_study("fig10_intra_cgroup")
def _fig10_intra_cgroup(scale: str) -> Study:
    params = sim_params(scale)

    def panel(name, title, traffic, rates, note):
        specs = [
            make_spec(
                "Switch", traffic=traffic, rates=rates, params=params,
                scale=scale, **SWITCH_ARCH,
            ),
            make_spec(
                "2D-Mesh", traffic=traffic, rates=rates, params=params,
                scale=scale, **MESH_ARCH,
            ),
        ]
        return Scenario(
            name=name, specs=tuple(specs), title=title, note=note,
            baseline="Switch", stop_after_saturation=2,
        )

    return Study(
        name="fig10_intra_cgroup",
        title="Fig. 10(a-b): intra-C-group performance, 2D mesh vs switch",
        description=(
            "One radix-16-equivalent C-group (4x4 on-chip routers) "
            "against 4 chips on a non-blocking switch."
        ),
        tags=("figure",),
        scenarios=(
            panel(
                "uniform", "Fig. 10(a) intra-C-group: uniform", "uniform",
                [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5],
                "paper: mesh ~3.0, switch ~1.0 flits/cycle/chip",
            ),
            panel(
                "bit-reverse", "Fig. 10(b) intra-C-group: bit-reverse",
                "bit_reverse", [0.4, 0.8, 1.2, 1.6, 2.0, 2.4],
                "paper: mesh ~2.0, switch <= 1.0 flits/cycle/chip",
            ),
        ),
    )


# ----------------------------------------------------------------------
# Fig. 10(c-f): local (intra-W-group) performance under four patterns
# ----------------------------------------------------------------------
_FIG10_LOCAL_PANELS = {
    "uniform": (
        "uniform", [0.3, 0.6, 0.9, 1.2, 1.6, 2.0],
        "paper Fig.10(c): SW-less saturates ~1.5x SW-based",
    ),
    "bit-reverse": (
        "bit_reverse", [0.3, 0.6, 0.9, 1.2, 1.6],
        "paper Fig.10(d): SW-less ~1.2-2x SW-based",
    ),
    "bit-shuffle": (
        "bit_shuffle", [0.1, 0.2, 0.3, 0.4, 0.5],
        "paper Fig.10(e): all bound by inter-C-group links",
    ),
    "bit-transpose": (
        "bit_transpose", [0.3, 0.6, 0.9, 1.2, 1.6],
        "paper Fig.10(f): SW-less ~1.2-2x SW-based",
    ),
}


@register_study("fig10_local")
def _fig10_local(scale: str) -> Study:
    params = sim_params(scale)
    wgroups = 41 if scale == "full" else 2
    sless = {"preset": "radix16_equiv", "num_wgroups": wgroups,
             "cgroups_per_wafer": 1}
    arches = {
        "SW-based": dragonfly_arch(preset="radix16", g=wgroups),
        "SW-less": switchless_arch(**sless),
        "SW-less-2B": switchless_arch(mesh_capacity=2, **sless),
    }
    names = list(_FIG10_LOCAL_PANELS)
    if scale == "quick":
        names = ["uniform", "bit-reverse"]
    scenarios = []
    for name in names:
        traffic, rates, note = _FIG10_LOCAL_PANELS[name]
        scenarios.append(
            Scenario(
                name=name,
                title=f"Fig. 10 local: {name}",
                note=note,
                baseline="SW-based",
                specs=tuple(
                    make_spec(
                        label, traffic=traffic,
                        traffic_opts={"scope": ("group", 0)},
                        rates=rates, params=params, scale=scale, **arch,
                    )
                    for label, arch in arches.items()
                ),
            )
        )
    return Study(
        name="fig10_local",
        title="Fig. 10(c-f): local (intra-W-group) performance",
        description=(
            "One W-group of the radix-16-equivalent system vs one group "
            "of the radix-16 Dragonfly, under four traffic patterns."
        ),
        tags=("figure",),
        scenarios=tuple(scenarios),
    )


# ----------------------------------------------------------------------
# Fig. 11: global performance
# ----------------------------------------------------------------------
@register_study("fig11_global")
def _fig11_global(scale: str) -> Study:
    params = sim_params(scale)
    dfly_preset = "radix16" if scale == "full" else "small_equiv"
    sless_preset = "radix16_equiv" if scale == "full" else "small_equiv"
    arches = {
        "SW-based": dragonfly_arch(preset=dfly_preset),
        "SW-less": switchless_arch(preset=sless_preset),
        "SW-less-2B": switchless_arch(
            preset=sless_preset, mesh_capacity=2
        ),
    }
    panels = (
        ("uniform", "uniform", [0.1, 0.25, 0.4, 0.55, 0.7, 0.85],
         "paper: SW-less slightly below SW-based; SW-less-2B above both"),
        ("bit-reverse", "bit_reverse", [0.1, 0.2, 0.3, 0.45, 0.6],
         "paper: same ordering as uniform"),
    )
    return Study(
        name="fig11_global",
        title="Fig. 11: global performance",
        description=(
            "Whole-system throughput; 2B removes the mesh-bisection "
            "bottleneck of Eq. 6."
        ),
        tags=("figure",),
        scenarios=tuple(
            Scenario(
                name=name,
                title=f"Fig. 11 global: {name}",
                note=note,
                baseline="SW-based",
                specs=tuple(
                    make_spec(
                        label, traffic=traffic, rates=rates, params=params,
                        scale=scale, **arch,
                    )
                    for label, arch in arches.items()
                ),
            )
            for name, traffic, rates, note in panels
        ),
    )


# ----------------------------------------------------------------------
# Fig. 12: performance scalability (radix-32 class system)
# ----------------------------------------------------------------------
@register_study("fig12_scalability")
def _fig12_scalability(scale: str) -> Study:
    params = sim_params(scale)

    def topo_opts(capacity: int) -> Dict:
        if scale == "full":
            return {"preset": "radix32_equiv", "mesh_capacity": capacity}
        return {
            "mesh_dim": 5, "chiplet_dim": 1, "num_local": 7,
            "num_global": 4, "num_wgroups": 8, "mesh_capacity": capacity,
        }

    def spec(label, cap, traffic_opts, rates):
        return make_spec(
            label, traffic="uniform", traffic_opts=traffic_opts,
            rates=rates, params=params, scale=scale,
            **switchless_arch(**topo_opts(cap)),
        )

    caps = {"SW-less": 1, "SW-less-2B": 2, "SW-less-4B": 4}
    local = Scenario(
        name="local",
        title="Fig. 12(a) large-scale local: uniform",
        note="paper: without 2B, large-scale local is below the "
        "small-scale case",
        baseline="SW-less",
        specs=tuple(
            spec(label, cap, {"scope": ("group", 0)},
                 [0.2, 0.4, 0.6, 0.9, 1.2])
            for label, cap in caps.items()
            if label != "SW-less-4B"
        ),
    )
    glob = Scenario(
        name="global",
        title="Fig. 12(b) large-scale global: uniform",
        note="paper: uniform-bandwidth heavily constrained; 2B/4B "
        "recover it",
        baseline="SW-less",
        stop_after_saturation=2,
        specs=tuple(
            spec(label, cap, None, [0.04, 0.08, 0.12, 0.18, 0.25])
            for label, cap in caps.items()
        ),
    )
    return Study(
        name="fig12_scalability",
        title="Fig. 12: performance scalability (large-scale system)",
        description=(
            "Bandwidth ablation on the radix-32-class switch-less system "
            "(starved C-group mesh bisection at default scale)."
        ),
        tags=("figure",),
        scenarios=(local, glob),
    )


# ----------------------------------------------------------------------
# Fig. 13: minimal vs non-minimal routing under adversarial traffic
# ----------------------------------------------------------------------
@register_study("fig13_misrouting")
def _fig13_misrouting(scale: str) -> Study:
    params = sim_params(scale)
    dfly_preset = "radix16" if scale == "full" else "small_equiv"
    sless_preset = "radix16_equiv" if scale == "full" else "small_equiv"
    arches = {
        "SW-based-Min": dragonfly_arch("minimal", preset=dfly_preset),
        "SW-less-Min": switchless_arch("minimal", preset=sless_preset),
        "SW-based-Mis": dragonfly_arch("valiant", preset=dfly_preset),
        "SW-less-Mis": switchless_arch("valiant", preset=sless_preset),
        "SW-less-2B-Mis": switchless_arch(
            "valiant", preset=sless_preset, mesh_capacity=2
        ),
    }
    panels = (
        ("hotspot", "hotspot", {"num_hot": 4},
         [0.05, 0.15, 0.3, 0.5, 0.7],
         "paper: misrouting saturates far above minimal; 2B helps further"),
        ("worst-case", "worst_case", None,
         [0.03, 0.08, 0.16, 0.26, 0.4],
         "paper: minimal collapses on the single W_i->W_i+1 channel"),
    )
    return Study(
        name="fig13_misrouting",
        title="Fig. 13: minimal vs Valiant routing, adversarial traffic",
        description=(
            "Hotspot and worst-case shift patterns; Valiant misrouting "
            "lifts saturation by an order of magnitude."
        ),
        tags=("figure",),
        scenarios=tuple(
            Scenario(
                name=name,
                title=f"Fig. 13 {name}",
                note=note,
                baseline="SW-based-Min",
                specs=tuple(
                    make_spec(
                        label, traffic=traffic, traffic_opts=traffic_opts,
                        rates=rates, params=params, scale=scale, **arch,
                    )
                    for label, arch in arches.items()
                ),
            )
            for name, traffic, traffic_opts, rates, note in panels
        ),
    )


# ----------------------------------------------------------------------
# Fig. 14: ring AllReduce within a C-group and within a W-group
# ----------------------------------------------------------------------
@register_study("fig14_allreduce")
def _fig14_allreduce(scale: str) -> Study:
    params = sim_params(scale)

    cg_specs = []
    cg_rates = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    for bi, tag in ((False, "Uni"), (True, "Bi")):
        cg_specs.append(
            make_spec(
                f"SW-based-{tag}", traffic="ring_allreduce",
                traffic_opts={"bidirectional": bi},
                rates=cg_rates, params=params, scale=scale, **SWITCH_ARCH,
            )
        )
        cg_specs.append(
            make_spec(
                f"SW-less-{tag}", traffic="ring_allreduce",
                traffic_opts={"bidirectional": bi, "scope": "snake"},
                rates=cg_rates, params=params, scale=scale, **MESH_ARCH,
            )
        )
    intra_cgroup = Scenario(
        name="intra-cgroup",
        title="Fig. 14(a) AllReduce intra-C-group",
        note="paper: SW-based 1 (uni=bi); SW-less 2 (uni) and 4 (bi)",
        baseline="SW-based-Uni",
        stop_after_saturation=2,
        specs=tuple(cg_specs),
    )

    wgroups = 41 if scale == "full" else 2
    wg_rates = [0.4, 0.8, 1.1, 1.5, 2.0]
    sless = {"preset": "radix16_equiv", "num_wgroups": wgroups,
             "cgroups_per_wafer": 1}
    dfly = dragonfly_arch(preset="radix16", g=wgroups)
    sless_arch = switchless_arch(**sless)
    sless2b_arch = switchless_arch(mesh_capacity=2, **sless)

    def ring(bi):
        return {"bidirectional": bi, "scope": ("group", 0)}

    wg_specs = []
    for bi, tag in ((False, "Uni"), (True, "Bi")):
        wg_specs.append(
            make_spec(
                f"SW-based-{tag}", traffic="ring_allreduce",
                traffic_opts=ring(bi), rates=wg_rates, params=params,
                scale=scale, **dfly,
            )
        )
        wg_specs.append(
            make_spec(
                f"SW-less-{tag}", traffic="ring_allreduce",
                traffic_opts=ring(bi), rates=wg_rates, params=params,
                scale=scale, **sless_arch,
            )
        )
    wg_specs.append(
        make_spec(
            "SW-less-Bi-2B", traffic="ring_allreduce",
            traffic_opts=ring(True), rates=wg_rates, params=params,
            scale=scale, **sless2b_arch,
        )
    )
    intra_wgroup = Scenario(
        name="intra-wgroup",
        title="Fig. 14(b) AllReduce intra-W-group",
        note="paper: both 1 uni; SW-less-Bi ~1.3; SW-less-Bi-2B ~2",
        baseline="SW-based-Uni",
        stop_after_saturation=2,
        specs=tuple(wg_specs),
    )
    return Study(
        name="fig14_allreduce",
        title="Fig. 14: ring-based AllReduce",
        description=(
            "Ring collectives inside one C-group and one W-group; the "
            "switch-less mesh's four injection ports per chip pay off."
        ),
        tags=("figure",),
        scenarios=(intra_cgroup, intra_wgroup),
    )


# ----------------------------------------------------------------------
# CI smoke study: seconds, not minutes
# ----------------------------------------------------------------------
@register_study("smoke")
def _smoke(scale: str) -> Study:
    params = SimParams(
        warmup_cycles=100, measure_cycles=250, drain_cycles=150, seed=11
    )
    scenario = Scenario(
        name="mesh-vs-switch",
        title="Smoke: one C-group mesh vs switch, uniform",
        note="tiny sanity scenario for CI and the test suite",
        baseline="Switch",
        specs=(
            make_spec(
                "Switch", traffic="uniform", rates=[0.3, 0.6],
                params=params, scale=scale, **SWITCH_ARCH,
            ),
            make_spec(
                "2D-Mesh", traffic="uniform", rates=[0.3, 0.6],
                params=params, scale=scale, **MESH_ARCH,
            ),
        ),
    )
    return Study(
        name="smoke",
        title="CI smoke study",
        description="Runs in seconds at every scale.",
        tags=("smoke",),
        scenarios=(scenario,),
    )


# ----------------------------------------------------------------------
# resilience studies: throughput under failure (repro.faults)
# ----------------------------------------------------------------------
@register_study("resilience")
def _resilience(scale: str) -> Study:
    """Failure-rate x load sweep, switch-less vs switch-based Dragonfly.

    The fault axis is the per-channel failure probability (``random``
    model, fixed seed); report the run with
    :func:`repro.api.resilience_report`.
    """
    from .resilience import resilience_study  # late: avoids import cycle

    failure_rates = (0.0, 0.02, 0.05, 0.1)
    rates = [0.1, 0.25, 0.4, 0.55]
    if scale == "quick":
        failure_rates = (0.0, 0.05)
        rates = [0.15, 0.4]
    return resilience_study(
        name="resilience",
        arches=("switchless", "dragonfly"),
        failure_rates=failure_rates,
        rates=rates,
        preset="small_equiv",
        params=sim_params(scale),
        scale=scale,
    )


#: tiny architectures for the resilience smoke study: a 4-W-group
#: switch-less system of 3x3 C-groups vs a 4-group p=2 Dragonfly.
_RESILIENCE_SMOKE_ARCHES = {
    "SW-less": {
        "topology": "switchless",
        "topology_opts": {
            "mesh_dim": 3, "chiplet_dim": 1, "num_local": 2,
            "num_global": 1,
        },
        "routing": "switchless",
        "routing_opts": {"mode": "minimal"},
    },
    "SW-based": {
        "topology": "dragonfly",
        "topology_opts": {"p": 2, "a": 3, "h": 1},
        "routing": "dragonfly",
        "routing_opts": {"mode": "minimal", "vc_spread": 2},
    },
}


@register_study("resilience_smoke")
def _resilience_smoke(scale: str) -> Study:
    """Seconds-scale fault sweep for CI: 2 failure rates x 2 loads."""
    from .resilience import resilience_study  # late: avoids import cycle

    params = SimParams(
        warmup_cycles=100, measure_cycles=250, drain_cycles=150, seed=11
    )
    study = resilience_study(
        name="resilience_smoke",
        arches=_RESILIENCE_SMOKE_ARCHES,
        failure_rates=(0.0, 0.08),
        rates=[0.15, 0.35],
        params=params,
        scale=scale,
    )
    return Study(
        name=study.name,
        title="CI resilience smoke: tiny fault sweep",
        description="Runs in seconds at every scale.",
        tags=("resilience", "smoke"),
        scenarios=study.scenarios,
    )


# ----------------------------------------------------------------------
# closed-loop application workloads (repro.workload)
# ----------------------------------------------------------------------

#: the application-level channels every closed-loop study ships with.
_WORKLOAD_METRICS = ("cct", "bubble", "overlap")


@register_study("workload")
def _workload(scale: str) -> Study:
    """Closed-loop collective completion times on the switch-less fabric.

    Two questions, one spec grid: how do ring and hierarchical
    allreduce schedules compare at equal message volume (Fig. 14's
    collective, driven closed-loop), and how much completion time does
    a degraded wafer cost the same collective?  Rates are pacing
    bandwidths (flits/cycle/chip); every spec carries the ``cct`` /
    ``bubble`` / ``overlap`` channels.

    Reading the numbers: ``ring_allreduce`` moves ``ceil(volume / n)``
    flits per step, which at this study's volume is one packet per node
    per phase.  The pacing rate only spaces a node's *successive*
    packets inside a phase, so the ring's makespan is the same at every
    rate (the tree and hierarchical schedules, with fewer and larger
    steps, do move with it).  And no bundled allreduce schedule has a
    compute phase, so there is nothing to overlap: ``overlap_fraction``
    is NaN by definition, not by defect (``pipeline`` and
    ``all_to_all`` with ``compute=`` report a finite one).
    ``degraded-fabric/Healthy`` is ``schedules/Ring`` under another
    label: the engine simulates its points once and shares them.
    """
    params = sim_params(scale)
    wgroups = 41 if scale == "full" else 2
    sless = switchless_arch(
        preset="radix16_equiv", num_wgroups=wgroups, cgroups_per_wafer=1
    )
    rates = pick_rates([0.25, 0.5, 1.0], scale, quick_count=2)
    volume = 256 if scale == "full" else 64
    scope = {"scope": ("group", 0)}

    def spec(label, workload, *, faults=None, opts=None):
        return make_spec(
            label, traffic="uniform", traffic_opts=scope, rates=rates,
            params=params, scale=scale, faults=faults,
            metrics=_WORKLOAD_METRICS, workload=workload,
            workload_opts={"volume": volume, **(opts or {})}, **sless,
        )

    schedules = Scenario(
        name="schedules",
        title="Closed-loop allreduce: ring vs tree vs hierarchical",
        note=(
            "same message volume, three schedules; the cct channel's "
            "makespan is the figure of merit"
        ),
        baseline="Ring",
        specs=(
            spec("Ring", "ring_allreduce"),
            spec("Tree", "tree_allreduce"),
            spec("Hierarchical", "hierarchical_allreduce"),
        ),
    )
    degraded = Scenario(
        name="degraded-fabric",
        title="Closed-loop ring allreduce: healthy vs degraded wafer",
        note=(
            "masked packets shrink the collective; completion time "
            "still reflects rerouted traffic on the surviving links"
        ),
        baseline="Healthy",
        specs=(
            spec("Healthy", "ring_allreduce"),
            spec(
                "Degraded", "ring_allreduce",
                # failed channels force reroutes; dead dies mask their
                # share of the collective (cct reports both effects)
                faults={
                    "model": "random", "link_rate": 0.05,
                    "die_rate": 0.15, "seed": 7,
                },
            ),
        ),
    )
    return Study(
        name="workload",
        title="Closed-loop application workloads (CCT)",
        description=(
            "Dependency-graph collectives driven closed-loop over the "
            "switch-less W-group; completion time, bubble fraction and "
            "compute/comm overlap per phase schedule."
        ),
        tags=("workload",),
        scenarios=(schedules, degraded),
    )


@register_study("workload_smoke")
def _workload_smoke(scale: str) -> Study:
    """Seconds-scale closed-loop study for CI: one C-group mesh."""
    params = SimParams(
        warmup_cycles=100, measure_cycles=250, drain_cycles=150, seed=11
    )
    rates = [0.25, 0.5]

    def spec(label, workload, **kw):
        return make_spec(
            label, traffic="uniform", rates=rates, params=params,
            scale=scale, metrics=_WORKLOAD_METRICS, workload=workload,
            workload_opts={"volume": 32}, **MESH_ARCH, **kw,
        )

    scenario = Scenario(
        name="ring-vs-hierarchical",
        title="Workload smoke: closed-loop allreduce on one C-group",
        note="tiny closed-loop sanity scenario for CI and the tests",
        baseline="Ring",
        specs=(
            spec("Ring", "ring_allreduce"),
            spec("Hierarchical", "hierarchical_allreduce"),
        ),
    )
    return Study(
        name="workload_smoke",
        title="CI workload smoke study",
        description="Closed-loop collectives in seconds at every scale.",
        tags=("workload", "smoke"),
        scenarios=(scenario,),
    )


def main(argv=None) -> int:  # pragma: no cover - exercised via CLI tests
    parser = argparse.ArgumentParser(
        prog="python -m repro.api.library",
        description="write the bundled scenario library to JSON files",
    )
    parser.add_argument("directory", help="output directory")
    parser.add_argument("--scale", choices=SCALES, default="default")
    args = parser.parse_args(argv)
    for path in save_library(args.directory, scale=args.scale):
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
