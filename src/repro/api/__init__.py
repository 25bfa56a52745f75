"""``repro.api`` — the scenario-level facade over the experiment engine.

This is the recommended entry point for reproducing the paper's
evaluation or composing new comparative experiments:

* :class:`Scenario` / :class:`Study` describe campaigns declaratively
  (and round-trip to the JSON scenario files under ``scenarios/``);
* :meth:`Study.run` executes them through the parallel experiment
  engine and returns the structured :class:`StudyResult` ->
  :class:`ScenarioResult` -> :class:`PointResult` hierarchy with
  ``to_json()`` / ``to_csv()`` export and text rendering;
* :func:`build_study` / :func:`list_library` expose the bundled
  Figs. 10-14 scenario library plus the resilience scenario family;
* :func:`panel` builds one scenario with a curve per architecture
  under a shared workload, the way every bundled study is built;
* :func:`compare_scenario` assembles ad-hoc architecture comparisons
  (the engine behind ``repro-dragonfly compare``);
* :func:`resilience_study` / :func:`resilience_report` /
  :func:`verify_study_faults` build, condense and deadlock-verify
  throughput-under-failure campaigns over the :mod:`repro.faults` axis.

Quickstart::

    from repro.api import build_study

    result = build_study("fig10_local", scale="quick").run(workers=4)
    print(result.render())
    result.save("fig10_local.json")

or file-based::

    from repro.api import load_study

    result = load_study("scenarios/fig10_local.json").run(workers=4)

Resilience::

    from repro.api import build_study, resilience_report

    result = build_study("resilience", scale="quick").run(workers=4)
    print(resilience_report(result).render())
"""

from ..metrics import MetricChannel, build_probe, list_probes
from .compare import compare_scenario
from .library import (
    SCALES,
    build_study,
    dragonfly_arch,
    list_library,
    make_spec,
    panel,
    pick_rates,
    save_library,
    sim_params,
    switchless_arch,
)
from .resilience import (
    DEFAULT_FAILURE_RATES,
    ResilienceReport,
    resilience_arches,
    resilience_report,
    resilience_study,
    verify_study_faults,
)
from .results import (
    STUDY_RESULT_SCHEMA,
    CurveResult,
    PointResult,
    ScenarioResult,
    StudyResult,
)
from .scenario import (
    SCENARIO_SCHEMA,
    STUDY_SCHEMA,
    Scenario,
    Study,
    StudyPointCallback,
    load_study,
)

__all__ = [
    "DEFAULT_FAILURE_RATES",
    "SCALES",
    "SCENARIO_SCHEMA",
    "STUDY_RESULT_SCHEMA",
    "STUDY_SCHEMA",
    "CurveResult",
    "MetricChannel",
    "PointResult",
    "ResilienceReport",
    "Scenario",
    "ScenarioResult",
    "Study",
    "StudyPointCallback",
    "StudyResult",
    "build_probe",
    "build_study",
    "compare_scenario",
    "list_probes",
    "dragonfly_arch",
    "list_library",
    "load_study",
    "make_spec",
    "panel",
    "pick_rates",
    "resilience_arches",
    "resilience_report",
    "resilience_study",
    "save_library",
    "sim_params",
    "switchless_arch",
]
