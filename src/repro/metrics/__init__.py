"""``repro.metrics`` — composable observability for the simulator.

The measurement layer the fixed ``SimResult`` aggregate grew out of:
:class:`Probe` objects attach to either simulation core
through a narrow post-run surface (:class:`RunRecord`) and produce
typed, schema-tagged :class:`MetricChannel` tables that ride inside
``SimResult.channels`` — through the experiment engine, the result
cache, the ``Study``/``StudyResult`` hierarchy, JSON/CSV export and
the ``repro-dragonfly`` CLI.

Design contract (the reason probe-off runs cost nothing):

* cores never call probes from their hot loops — when probing is
  enabled they merely keep a few extra per-*packet* integers they
  already compute (source, destination, completion cycle), and the
  native core's compiled kernel exports the same as bulk output
  arrays decoded afterwards;
* with probing disabled nothing is recorded at all and results are
  bit-identical to a build without this package.

Quickstart::

    from repro.metrics import build_probe
    from repro.network import Simulator

    sim = Simulator(graph, routing, traffic, params,
                    probes=["link_util", "latency_hist"])
    res = sim.run(0.4)
    print(res.channels["link_util"].format_table(max_rows=10))

or declaratively, through the engine/scenario layer::

    spec = ExperimentSpec.create(..., metrics=["link_util", "misroute"])
    study.with_metrics(["timeseries"]).run(workers=4)
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".channel": ["METRIC_CHANNEL_SCHEMA", "MetricChannel"],
    ".probe": [
        "Probe", "build_probe", "build_probes", "list_probes",
        "metrics_to_data", "normalize_metrics", "probe_descriptions",
        "register_probe",
    ],
    ".record": ["RunRecord", "PacketView", "HopEvent"],
    ".probes": [
        "EjectionFairnessProbe", "LatencyHistogramProbe",
        "LinkUtilizationProbe", "MisrouteProbe", "TimeSeriesProbe",
        "VCUtilizationProbe",
    ],
    ".summary": [
        "channel_columns", "congestion_evolution", "hot_links",
        "link_load_summary", "misroute_rows", "misroute_table",
    ],
})
