"""Bundled scenario library: the paper's Figs. 10-14 as declarative
studies, plus smoke, resilience and closed-loop workload studies.

Every entry of the library table is a builder ``fn(scale) -> Study``;
:func:`build_study` realises one, :func:`save_library` writes the whole
library to ``scenarios/*.json`` files (regenerate with
``python -m repro.api.library scenarios``).  Every panel is one
:func:`panel` call: a curve per ``{label: architecture fragment}``
entry under one shared workload.  The ``scale`` knob trades system size
and simulated cycles for wall-clock:

``quick``
    smoke-level: thinned rate lists, short windows, fewer panels;
``default``
    CI-scale structural equivalents (the ``small_equiv`` systems);
``full``
    the paper-exact configurations and Table IV cycle counts.

The switch-based Dragonfly baseline emulates an ideal router with
``vc_spread=2``; the switch-less system comes with its 2B/4B
bandwidth variants (``mesh_capacity``).
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple
from typing import Union

from ..engine import ExperimentSpec
from ..engine.spec import suggest
from ..network.params import SimParams
from .scenario import Scenario, Study

__all__ = [
    "SCALES",
    "build_study",
    "dragonfly_arch",
    "list_library",
    "make_spec",
    "panel",
    "pick_rates",
    "save_library",
    "sim_params",
    "switchless_arch",
]

SCALES = ("quick", "default", "full")

#: the windows of the seconds-scale CI studies, at every scale.
SMOKE_PARAMS = SimParams(
    warmup_cycles=100, measure_cycles=250, drain_cycles=150, seed=11
)


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
_CGROUP_ARCHES = {"Switch": SWITCH_ARCH, "2D-Mesh": MESH_ARCH}


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


def _system_arches(scale: str, mode: str, suffix: str = "") -> Dict:
    """Whole-system SW-based / SW-less / SW-less-2B under one routing
    ``mode`` (Figs. 11 and 13): the radix-16 pair at ``full``, the
    ``small_equiv`` pair below."""
    full = scale == "full"
    dfly = "radix16" if full else "small_equiv"
    sless = "radix16_equiv" if full else "small_equiv"
    return {
        f"SW-based{suffix}": dragonfly_arch(mode, preset=dfly),
        f"SW-less{suffix}": switchless_arch(mode, preset=sless),
        f"SW-less-2B{suffix}": switchless_arch(
            mode, preset=sless, mesh_capacity=2
        ),
    }


def _wgroup_arches(scale: str) -> Dict:
    """The radix-16 SW-based / SW-less / SW-less-2B systems whose W-group
    0 is measured (Figs. 10(c-f), 14(b), ``workload``): 41 W-groups at
    ``full``, 2 below."""
    groups = 41 if scale == "full" else 2
    sless = {"preset": "radix16_equiv", "num_wgroups": groups,
             "cgroups_per_wafer": 1}
    return {
        "SW-based": dragonfly_arch(preset="radix16", g=groups),
        "SW-less": switchless_arch(**sless),
        "SW-less-2B": switchless_arch(mesh_capacity=2, **sless),
    }


def make_spec(
    label: str,
    *,
    rates: Sequence[float],
    params: SimParams,
    scale: str = "default",
    **opts,
) -> ExperimentSpec:
    """Labelled :meth:`ExperimentSpec.create` with scale-thinned rates;
    ``opts`` are its other keywords (``topology``, ``routing``,
    ``traffic``, their ``*_opts``, ``faults``, ``metrics``,
    ``workload``/``workload_opts``)."""
    return ExperimentSpec.create(
        label=label, rates=pick_rates(rates, scale), params=params, **opts
    )


def panel(
    name: str,
    arches: Union[Mapping[str, Dict], Iterable[Tuple[str, Dict]]],
    *,
    traffic: str,
    rates: Sequence[float],
    params: SimParams,
    scale: str = "default",
    traffic_opts: Optional[Dict] = None,
    **scenario_meta,
) -> Scenario:
    """One scenario with a curve per ``{label: fragment}`` entry, all
    under one workload.

    A fragment holds :func:`make_spec` keywords: the architecture
    (``topology``, ``routing`` and their options) plus any of its own
    ``traffic_opts``, ``faults``, ``workload``/``workload_opts`` or
    ``metrics``, which override the shared ones.  ``arches`` may also be
    ``(label, fragment)`` pairs; a repeated label is a ``ValueError``.
    ``scenario_meta`` (``title``, ``note``, ``baseline``, ...) goes to
    :class:`Scenario`.
    """
    if isinstance(arches, Mapping):
        arches = arches.items()
    shared = {"traffic": traffic, "traffic_opts": traffic_opts,
              "rates": rates, "params": params, "scale": scale}
    return Scenario(
        name=name,
        specs=tuple(
            make_spec(label, **{**shared, **arch}) for label, arch in arches
        ),
        **scenario_meta,
    )


# ----------------------------------------------------------------------
# Fig. 10(a-b): intra-C-group, 2D mesh vs switch
# ----------------------------------------------------------------------
def _fig10_intra_cgroup(scale: str) -> Study:
    panels = (
        ("uniform", "Fig. 10(a) intra-C-group: uniform", "uniform",
         [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5],
         "paper: mesh ~3.0, switch ~1.0 flits/cycle/chip"),
        ("bit-reverse", "Fig. 10(b) intra-C-group: bit-reverse",
         "bit_reverse", [0.4, 0.8, 1.2, 1.6, 2.0, 2.4],
         "paper: mesh ~2.0, switch <= 1.0 flits/cycle/chip"),
    )
    return Study(
        name="fig10_intra_cgroup",
        title="Fig. 10(a-b): intra-C-group performance, 2D mesh vs switch",
        description=(
            "One radix-16-equivalent C-group (4x4 on-chip routers) "
            "against 4 chips on a non-blocking switch."
        ),
        tags=("figure",),
        scenarios=tuple(
            panel(
                name, _CGROUP_ARCHES, traffic=traffic, rates=rates,
                params=sim_params(scale), scale=scale, title=title,
                note=note, baseline="Switch", stop_after_saturation=2,
            )
            for name, title, traffic, rates, note in panels
        ),
    )


# ----------------------------------------------------------------------
# Fig. 10(c-f): local (intra-W-group) performance under four patterns
# ----------------------------------------------------------------------
_FIG10_PANELS = (
    ("uniform", "uniform", [0.3, 0.6, 0.9, 1.2, 1.6, 2.0],
     "paper Fig.10(c): SW-less saturates ~1.5x SW-based"),
    ("bit-reverse", "bit_reverse", [0.3, 0.6, 0.9, 1.2, 1.6],
     "paper Fig.10(d): SW-less ~1.2-2x SW-based"),
    ("bit-shuffle", "bit_shuffle", [0.1, 0.2, 0.3, 0.4, 0.5],
     "paper Fig.10(e): all bound by inter-C-group links"),
    ("bit-transpose", "bit_transpose", [0.3, 0.6, 0.9, 1.2, 1.6],
     "paper Fig.10(f): SW-less ~1.2-2x SW-based"),
)


def _fig10_local(scale: str) -> Study:
    panels = _FIG10_PANELS[:2] if scale == "quick" else _FIG10_PANELS
    arches, params = _wgroup_arches(scale), sim_params(scale)
    return Study(
        name="fig10_local",
        title="Fig. 10(c-f): local (intra-W-group) performance",
        description=(
            "One W-group of the radix-16-equivalent system vs one group "
            "of the radix-16 Dragonfly, under four traffic patterns."
        ),
        tags=("figure",),
        scenarios=tuple(
            panel(
                name, arches, traffic=traffic,
                traffic_opts={"scope": ("group", 0)}, rates=rates,
                params=params, scale=scale,
                title=f"Fig. 10 local: {name}", note=note,
                baseline="SW-based",
            )
            for name, traffic, rates, note in panels
        ),
    )


# ----------------------------------------------------------------------
# Fig. 11: global performance
# ----------------------------------------------------------------------
def _fig11_global(scale: str) -> Study:
    panels = (
        ("uniform", "uniform", [0.1, 0.25, 0.4, 0.55, 0.7, 0.85],
         "paper: SW-less slightly below SW-based; SW-less-2B above both"),
        ("bit-reverse", "bit_reverse", [0.1, 0.2, 0.3, 0.45, 0.6],
         "paper: same ordering as uniform"),
    )
    arches, params = _system_arches(scale, "minimal"), sim_params(scale)
    return Study(
        name="fig11_global",
        title="Fig. 11: global performance",
        description=(
            "Whole-system throughput; 2B removes the mesh-bisection "
            "bottleneck of Eq. 6."
        ),
        tags=("figure",),
        scenarios=tuple(
            panel(
                name, arches, traffic=traffic, rates=rates,
                params=params, scale=scale,
                title=f"Fig. 11 global: {name}", note=note,
                baseline="SW-based",
            )
            for name, traffic, rates, note in panels
        ),
    )


# ----------------------------------------------------------------------
# Fig. 12: performance scalability (radix-32 class system)
# ----------------------------------------------------------------------
def _fig12_scalability(scale: str) -> Study:
    system = {"preset": "radix32_equiv"} if scale == "full" else {
        "mesh_dim": 5, "chiplet_dim": 1, "num_local": 7, "num_global": 4,
        "num_wgroups": 8,
    }
    arches = {
        label: switchless_arch(mesh_capacity=capacity, **system)
        for label, capacity in (
            ("SW-less", 1), ("SW-less-2B", 2), ("SW-less-4B", 4)
        )
    }
    params = sim_params(scale)
    local = panel(
        "local", {k: v for k, v in arches.items() if k != "SW-less-4B"},
        traffic="uniform", traffic_opts={"scope": ("group", 0)},
        rates=[0.2, 0.4, 0.6, 0.9, 1.2], params=params, scale=scale,
        title="Fig. 12(a) large-scale local: uniform",
        note="paper: without 2B, large-scale local is below the "
        "small-scale case",
        baseline="SW-less",
    )
    glob = panel(
        "global", arches, traffic="uniform",
        rates=[0.04, 0.08, 0.12, 0.18, 0.25], params=params, scale=scale,
        title="Fig. 12(b) large-scale global: uniform",
        note="paper: uniform-bandwidth heavily constrained; 2B/4B "
        "recover it",
        baseline="SW-less", stop_after_saturation=2,
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
def _fig13_misrouting(scale: str) -> Study:
    minimal = _system_arches(scale, "minimal", "-Min")
    del minimal["SW-less-2B-Min"]
    arches = {**minimal, **_system_arches(scale, "valiant", "-Mis")}
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
            panel(
                name, arches, traffic=traffic, traffic_opts=traffic_opts,
                rates=rates, params=sim_params(scale), scale=scale,
                title=f"Fig. 13 {name}", note=note, baseline="SW-based-Min",
            )
            for name, traffic, traffic_opts, rates, note in panels
        ),
    )


# ----------------------------------------------------------------------
# Fig. 14: ring AllReduce within a C-group and within a W-group
# ----------------------------------------------------------------------
def _fig14_allreduce(scale: str) -> Study:
    def ring(bidirectional: bool, **scope) -> Dict:
        return {"traffic_opts": {"bidirectional": bidirectional, **scope}}

    wgroup = _wgroup_arches(scale)
    in_cgroup: Dict[str, Dict] = {}
    in_wgroup: Dict[str, Dict] = {}
    for bi, tag in ((False, "Uni"), (True, "Bi")):
        in_cgroup[f"SW-based-{tag}"] = {**SWITCH_ARCH, **ring(bi)}
        in_cgroup[f"SW-less-{tag}"] = {**MESH_ARCH, **ring(bi, scope="snake")}
        for label in ("SW-based", "SW-less"):
            in_wgroup[f"{label}-{tag}"] = {
                **wgroup[label], **ring(bi, scope=("group", 0)),
            }
    in_wgroup["SW-less-Bi-2B"] = {
        **wgroup["SW-less-2B"], **ring(True, scope=("group", 0)),
    }
    params = sim_params(scale)
    intra_cgroup = panel(
        "intra-cgroup", in_cgroup, traffic="ring_allreduce",
        rates=[0.5, 1.0, 1.5, 2.0, 3.0, 4.0], params=params, scale=scale,
        title="Fig. 14(a) AllReduce intra-C-group",
        note="paper: SW-based 1 (uni=bi); SW-less 2 (uni) and 4 (bi)",
        baseline="SW-based-Uni", stop_after_saturation=2,
    )
    intra_wgroup = panel(
        "intra-wgroup", in_wgroup, traffic="ring_allreduce",
        rates=[0.4, 0.8, 1.1, 1.5, 2.0], params=params, scale=scale,
        title="Fig. 14(b) AllReduce intra-W-group",
        note="paper: both 1 uni; SW-less-Bi ~1.3; SW-less-Bi-2B ~2",
        baseline="SW-based-Uni", stop_after_saturation=2,
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
def _smoke(scale: str) -> Study:
    scenario = panel(
        "mesh-vs-switch", _CGROUP_ARCHES, traffic="uniform",
        rates=[0.3, 0.6], params=SMOKE_PARAMS, scale=scale,
        title="Smoke: one C-group mesh vs switch, uniform",
        note="tiny sanity scenario for CI and the test suite",
        baseline="Switch",
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
def _resilience(scale: str) -> Study:
    """Failure-rate x load sweep, switch-less vs switch-based Dragonfly.

    The fault axis is the per-channel failure probability (``random``
    model, fixed seed); report the run with
    :func:`repro.api.resilience_report`.
    """
    from .resilience import resilience_study  # late: avoids import cycle

    quick = scale == "quick"
    return resilience_study(
        name="resilience",
        arches=("switchless", "dragonfly"),
        failure_rates=(0.0, 0.05) if quick else (0.0, 0.02, 0.05, 0.1),
        rates=[0.15, 0.4] if quick else [0.1, 0.25, 0.4, 0.55],
        preset="small_equiv",
        params=sim_params(scale),
        scale=scale,
    )


def _resilience_smoke(scale: str) -> Study:
    """Seconds-scale fault sweep for CI: 2 failure rates x 2 loads on a
    4-W-group switch-less system of 3x3 C-groups vs a 4-group p=2
    Dragonfly."""
    from .resilience import resilience_study  # late: avoids import cycle

    study = resilience_study(
        name="resilience_smoke",
        arches={
            "SW-less": switchless_arch(
                mesh_dim=3, chiplet_dim=1, num_local=2, num_global=1
            ),
            "SW-based": dragonfly_arch(p=2, a=3, h=1),
        },
        failure_rates=(0.0, 0.08),
        rates=[0.15, 0.35],
        params=SMOKE_PARAMS,
        scale=scale,
    )
    return replace(
        study,
        title="CI resilience smoke: tiny fault sweep",
        description="Runs in seconds at every scale.",
        tags=("resilience", "smoke"),
    )


# ----------------------------------------------------------------------
# closed-loop application workloads (repro.workload)
# ----------------------------------------------------------------------

#: the application-level channels every closed-loop study ships with.
_WORKLOAD_METRICS = ("cct", "bubble", "overlap")


def _closed_loop(arch: Dict, workload: str, volume: int) -> Dict:
    """``arch`` driven closed-loop by ``workload`` at message ``volume``,
    with the application channels attached."""
    return {**arch, "workload": workload, "workload_opts": {"volume": volume},
            "metrics": _WORKLOAD_METRICS}


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
    sless = _wgroup_arches(scale)["SW-less"]
    volume = 256 if scale == "full" else 64
    shared = {"traffic": "uniform", "traffic_opts": {"scope": ("group", 0)},
              "rates": [0.25, 0.5, 1.0], "params": sim_params(scale),
              "scale": scale}
    ring = _closed_loop(sless, "ring_allreduce", volume)
    schedules = panel(
        "schedules",
        {
            "Ring": ring,
            "Tree": _closed_loop(sless, "tree_allreduce", volume),
            "Hierarchical": _closed_loop(
                sless, "hierarchical_allreduce", volume
            ),
        },
        title="Closed-loop allreduce: ring vs tree vs hierarchical",
        note=(
            "same message volume, three schedules; the cct channel's "
            "makespan is the figure of merit"
        ),
        baseline="Ring", **shared,
    )
    degraded = panel(
        "degraded-fabric",
        {
            "Healthy": ring,
            # failed channels force reroutes; dead dies mask their share
            # of the collective (cct reports both effects)
            "Degraded": {**ring, "faults": {
                "model": "random", "link_rate": 0.05, "die_rate": 0.15,
                "seed": 7,
            }},
        },
        title="Closed-loop ring allreduce: healthy vs degraded wafer",
        note=(
            "masked packets shrink the collective; completion time "
            "still reflects rerouted traffic on the surviving links"
        ),
        baseline="Healthy", **shared,
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


def _workload_smoke(scale: str) -> Study:
    """Seconds-scale closed-loop study for CI: one C-group mesh."""
    scenario = panel(
        "ring-vs-hierarchical",
        {
            "Ring": _closed_loop(MESH_ARCH, "ring_allreduce", 32),
            "Hierarchical": _closed_loop(
                MESH_ARCH, "hierarchical_allreduce", 32
            ),
        },
        traffic="uniform", rates=[0.25, 0.5], params=SMOKE_PARAMS,
        scale=scale,
        title="Workload smoke: closed-loop allreduce on one C-group",
        note="tiny closed-loop sanity scenario for CI and the tests",
        baseline="Ring",
    )
    return Study(
        name="workload_smoke",
        title="CI workload smoke study",
        description="Closed-loop collectives in seconds at every scale.",
        tags=("workload", "smoke"),
        scenarios=(scenario,),
    )


# ----------------------------------------------------------------------
# the library table
# ----------------------------------------------------------------------
_LIBRARY = {
    "fig10_intra_cgroup": _fig10_intra_cgroup,
    "fig10_local": _fig10_local,
    "fig11_global": _fig11_global,
    "fig12_scalability": _fig12_scalability,
    "fig13_misrouting": _fig13_misrouting,
    "fig14_allreduce": _fig14_allreduce,
    "smoke": _smoke,
    "resilience": _resilience,
    "resilience_smoke": _resilience_smoke,
    "workload": _workload,
    "workload_smoke": _workload_smoke,
}


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
