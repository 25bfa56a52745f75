"""Resilience studies: throughput-under-failure campaigns and reports.

This module turns the fault axis of :class:`~repro.engine.ExperimentSpec`
into a full scenario family:

* :func:`resilience_study` builds a failure-rate x offered-load campaign
  (one scenario per failure rate, one curve per architecture) that runs
  through the ordinary parallel/cached engine path;
* :func:`verify_study_faults` re-checks VC deadlock freedom of the
  degraded routing on **every** distinct fault instance a study samples;
* :func:`resilience_report` condenses a finished
  :class:`~repro.api.results.StudyResult` into saturation-load
  *retention* curves — the fraction of healthy-wafer saturation
  throughput each architecture keeps as links fail, the quantity the
  paper's path-diversity argument predicts favours the switch-less
  design.

Scenario naming convention: the failure rate is encoded in the scenario
name as ``fail-<rate>`` (e.g. ``fail-0.05``); the report parses it back,
so hand-written resilience scenario files interoperate as long as they
follow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import build_faults, build_routing, build_system
from ..faults import degrade
from ..routing import verify_deadlock_free
from .compare import _arch_fragment, _traffic_scope
from .library import panel, sim_params
from .results import StudyResult
from .scenario import Study

__all__ = [
    "DEFAULT_FAILURE_RATES",
    "ResilienceReport",
    "resilience_arches",
    "resilience_report",
    "resilience_study",
    "verify_study_faults",
]

#: default failure-rate axis: healthy baseline plus three degraded steps.
DEFAULT_FAILURE_RATES = (0.0, 0.02, 0.05, 0.1)

_SCENARIO_PREFIX = "fail-"


def _fail_name(rate: float) -> str:
    return f"{_SCENARIO_PREFIX}{rate:g}"


def _fail_rate(name: str) -> Optional[float]:
    if not name.startswith(_SCENARIO_PREFIX):
        return None
    try:
        return float(name[len(_SCENARIO_PREFIX):])
    except ValueError:
        return None


#: CLI architecture token -> curve label.
_ARCH_LABELS = {
    "switchless": "SW-less",
    "dragonfly": "SW-based",
}


def _arch_label(token: str) -> str:
    if token in _ARCH_LABELS:
        return _ARCH_LABELS[token]
    if token.startswith("switchless-"):
        return f"SW-less-{token.split('-', 1)[1].upper()}"
    return token


def resilience_arches(
    names: Sequence[str],
    *,
    preset: str = "small_equiv",
    routing_mode: str = "minimal",
) -> Dict[str, Dict]:
    """Architecture fragments by CLI name (``switchless``,
    ``switchless-<n>b``, ``dragonfly``), sharing the token grammar and
    preset mapping of :func:`~repro.api.compare.compare_scenario` (the
    Dragonfly side transparently uses the equivalent baseline preset).
    A name given twice (in any case) is a ``ValueError``.
    """
    out: Dict[str, Dict] = {}
    for name in names:
        token = name.strip().lower()
        label = _arch_label(token)
        if label in out:
            raise ValueError(f"architecture {token!r} is given twice")
        out[label] = _arch_fragment(token, preset, routing_mode)
    return out


def resilience_study(
    *,
    name: str = "resilience",
    arches=("switchless", "dragonfly"),
    failure_rates: Sequence[float] = DEFAULT_FAILURE_RATES,
    rates: Sequence[float] = (0.1, 0.25, 0.4, 0.55),
    preset: str = "small_equiv",
    traffic: str = "uniform",
    scope: str = "global",
    routing_mode: str = "minimal",
    fault_model: str = "random",
    fault_seed: int = 7,
    defect_radius_mm: float = 8.0,
    params=None,
    scale: str = "default",
    baseline: str = "",
) -> Study:
    """Build a failure-rate x load campaign over the given architectures.

    ``arches`` is either a sequence of architecture names (resolved via
    :func:`resilience_arches` against ``preset`` and ``routing_mode``)
    or an explicit ``{label: make_spec-keyword-fragment}`` mapping for
    custom systems.  ``scope`` is ``"global"`` (all terminals) or
    ``"local"`` (W-group / Dragonfly group 0), as in
    :func:`~repro.api.compare.compare_scenario`.

    ``fault_model`` selects how a failure rate is realised:

    * ``random`` — the rate is the per-channel failure probability;
    * ``yield`` — the rate is re-interpreted as expected defect clusters
      per wafer.  Only the wafer-integrated switch-less architectures
      have a floorplan to map defects through, so any other topology in
      ``arches`` is rejected up front.

    Every architecture at every failure rate shares ``fault_seed``, so
    the comparison is across architectures under the *same* fault law,
    with the healthy ``fail-0`` scenario as the retention baseline.
    """
    if fault_model not in ("random", "yield"):
        raise ValueError(
            f"fault_model must be 'random' or 'yield', got {fault_model!r}"
        )
    traffic_opts = _traffic_scope(scope)
    if isinstance(arches, dict):
        arch_map = dict(arches)
    else:
        arch_map = resilience_arches(
            arches, preset=preset, routing_mode=routing_mode
        )
    if fault_model == "yield":
        non_wafer = [
            label
            for label, arch in arch_map.items()
            if arch.get("topology") != "switchless"
        ]
        if non_wafer:
            raise ValueError(
                f"the yield fault model needs wafer-integrated "
                f"(switch-less) architectures; {', '.join(non_wafer)} "
                "has no wafer floorplan to map defects through — use "
                "the random model for cross-architecture comparisons"
            )
    params = params or sim_params(scale)
    if not baseline:
        baseline = next(iter(arch_map))

    scenarios = []
    for fr in failure_rates:
        fr = float(fr)
        if fr < 0:
            raise ValueError(f"failure rate {fr} must be >= 0")
        if fr == 0.0:
            faults = None
            note = "healthy wafer: the retention baseline"
        elif fault_model == "random":
            faults = {"model": "random", "link_rate": fr, "seed": fault_seed}
            note = f"{fr:.1%} of channels failed (seed {fault_seed})"
        else:
            faults = {
                "model": "yield",
                "defects_per_wafer": fr,
                "defect_radius_mm": defect_radius_mm,
                "seed": fault_seed,
            }
            note = (
                f"{fr:g} defect cluster(s)/wafer, "
                f"r={defect_radius_mm:g}mm (seed {fault_seed})"
            )
        scenarios.append(
            panel(
                _fail_name(fr),
                {
                    label: {**arch, "faults": faults}
                    for label, arch in arch_map.items()
                },
                traffic=traffic, traffic_opts=traffic_opts, rates=rates,
                params=params, scale=scale,
                title=f"throughput under failure: {_fail_name(fr)}",
                note=note, baseline=baseline, tags=("resilience",),
            )
        )
    return Study(
        name=name,
        title=(
            f"Resilience: saturation retention vs failed "
            f"{'channels' if fault_model == 'random' else 'defects'} "
            f"({', '.join(arch_map)})"
        ),
        description=(
            "Throughput/latency degradation as the fault axis sweeps "
            "failure rates; report with resilience_report()."
        ),
        scenarios=tuple(scenarios),
        tags=("resilience",),
    )


# ----------------------------------------------------------------------
# per-instance deadlock verification
# ----------------------------------------------------------------------
def verify_study_faults(
    study: Study, *, max_pairs: int = 300, seed: int = 0
) -> List[Dict]:
    """Deadlock-check the degraded routing of every fault instance.

    Every distinct ``(topology, routing, faults)`` combination in the
    study is rebuilt, degraded, wrapped and run through the CDG checker
    of :mod:`repro.routing.deadlock`.  Returns one record per instance
    with the spec label, the sampled fault summary and the report.
    """
    seen = set()
    systems: Dict[Tuple, object] = {}  # one build per distinct topology
    records: List[Dict] = []
    for scn in study.scenarios:
        for spec in scn.specs:
            fspec = build_faults(spec)
            if fspec is None:
                continue
            key = (
                spec.topology, spec.topology_opts,
                spec.routing, spec.routing_opts, spec.faults,
            )
            if key in seen:
                continue
            seen.add(key)
            topo_key = (spec.topology, spec.topology_opts)
            system = systems.get(topo_key)
            if system is None:
                system = systems[topo_key] = build_system(spec)
            routing = build_routing(spec, system)  # fault-aware wrapped
            degraded = degrade(system, fspec)
            report = verify_deadlock_free(
                system.graph, routing, max_pairs=max_pairs, seed=seed
            )
            records.append(
                {
                    "scenario": scn.name,
                    "label": spec.label or spec.describe(),
                    "faults": degraded.faults.describe(),
                    "acyclic": report.acyclic,
                    "report": report,
                }
            )
    return records


# ----------------------------------------------------------------------
# the retention report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResilienceReport:
    """Saturation-retention curves condensed from a resilience study.

    ``rows`` maps each architecture label to its per-failure-rate
    records, ordered by failure rate; retention is relative to the
    ``fail-0`` (healthy) scenario of the same label.
    """

    study: str
    rows: Dict[str, List[Dict]] = field(default_factory=dict)

    def labels(self) -> List[str]:
        return list(self.rows)

    def retention(self, label: str) -> List[Tuple[float, float]]:
        """(failure_rate, throughput retention) pairs for one curve."""
        return [
            (r["failure_rate"], r["retention"]) for r in self.rows[label]
        ]

    def to_dict(self) -> Dict:
        return {
            "schema": "repro.resilience-report/v1",
            "study": self.study,
            "rows": {k: list(v) for k, v in self.rows.items()},
        }

    def render(self) -> str:
        out = [f"==== resilience report: {self.study} ===="]
        for label, rows in self.rows.items():
            out.append(f"# {label}")
            out.append(
                "fail_rate  saturation  max_accepted  retention  avg_lat0"
            )
            for r in rows:
                sat = r["saturation_rate"]
                sat_s = f"{sat:10.3f}" if sat != float("inf") else "      none"
                out.append(
                    f"{r['failure_rate']:9.3g}  {sat_s}  "
                    f"{r['max_accepted']:12.3f}  {r['retention']:9.2%}  "
                    f"{r['zero_load_latency']:8.1f}"
                )
        return "\n".join(out)


def resilience_report(result: StudyResult) -> ResilienceReport:
    """Condense a resilience :class:`StudyResult` into retention curves.

    Scenarios whose names do not follow the ``fail-<rate>`` convention
    are ignored; a study without a ``fail-0`` scenario reports retention
    relative to the lowest failure rate present.
    """
    per_label: Dict[str, List[Dict]] = {}
    for scn in result.scenarios:
        fr = _fail_rate(scn.name)
        if fr is None:
            continue
        for curve in scn.curves:
            per_label.setdefault(curve.label, []).append(
                {
                    "failure_rate": fr,
                    "saturation_rate": curve.saturation_rate,
                    "max_accepted": curve.max_accepted,
                    "zero_load_latency": curve.zero_load_latency(),
                }
            )
    if not per_label:
        raise ValueError(
            "no 'fail-<rate>' scenarios found; is this a resilience study?"
        )
    for label, rows in per_label.items():
        rows.sort(key=lambda r: r["failure_rate"])
        base = rows[0]["max_accepted"]
        for r in rows:
            r["retention"] = r["max_accepted"] / base if base else 0.0
    return ResilienceReport(study=result.name, rows=per_label)
