"""Closed-loop application workloads (dependency-graph collectives).

Public surface:

* :class:`~repro.workload.ir.Phase` / :class:`~repro.workload.ir.Workload`
  — the dependency-DAG IR, with builders for ring/tree/hierarchical
  allreduce, all-to-all and pipeline p2p in :data:`WORKLOADS`;
* :mod:`~repro.workload.trace` — the ``repro.workload-trace/v1`` JSON
  trace format (byte-stable round trip);
* :class:`~repro.workload.driver.PhasePlan` /
  :func:`~repro.workload.driver.run_closed_loop` — the closed-loop
  phase scheduler next to the open-loop injection schedule.

The engine plugs in through the ``workload`` axis of
:class:`~repro.engine.spec.ExperimentSpec`; completion-time metrics
(``cct``, ``bubble``, ``overlap``) live with the other probes in
:mod:`repro.metrics.probes`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ir": [
        "Phase", "Workload", "WORKLOADS", "register_workload",
        "build_workload", "list_workloads", "workload_descriptions",
    ],
    ".trace": [
        "TRACE_SCHEMA", "workload_to_data", "workload_from_data",
        "workload_dumps", "workload_loads", "save_trace", "load_trace",
    ],
    ".driver": [
        "PhasePlan", "participating_chips", "run_closed_loop",
        "workload_for_traffic",
    ],
})
