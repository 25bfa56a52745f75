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

from .._lazy import lazy_exports

#: the sizes :func:`build_study` builds a bundled study at (defined
#: here, so the CLI's ``--scale`` choices load no study code).
SCALES = ("quick", "default", "full")

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".library": [
        "build_study", "dragonfly_arch", "list_library",
        "make_spec", "panel", "pick_rates", "save_library", "sim_params",
        "switchless_arch",
    ],
    ".scenario": [
        "SCENARIO_SCHEMA", "STUDY_SCHEMA", "Scenario", "Study",
        "StudyPointCallback", "load_study",
    ],
    ".results": [
        "STUDY_RESULT_SCHEMA", "CurveResult", "PointResult",
        "ScenarioResult", "StudyResult",
    ],
    ".resilience": [
        "DEFAULT_FAILURE_RATES", "ResilienceReport", "resilience_arches",
        "resilience_report", "resilience_study", "verify_study_faults",
    ],
    ".compare": ["compare_scenario"],
    "..metrics": ["MetricChannel", "build_probe", "list_probes"],
})
__all__.append("SCALES")
