"""Declarative experiment engine: specs, parallel execution, caching.

The engine decouples *describing* an experiment from *running* it:

* :class:`~repro.engine.spec.ExperimentSpec` is a picklable, hashable
  description of one latency-vs-load curve (topology + routing +
  traffic + :class:`~repro.network.params.SimParams` + rate list) that
  can be rebuilt from scratch inside a worker process;
* :func:`~repro.engine.executor.run_experiments` walks every spec's
  sweep in chunks of rates with deterministic per-point seeds: one
  scheduler, in this process or over a ``multiprocessing`` pool, whose
  chunk width follows from the simulator core in play;
* :class:`~repro.engine.cache.ResultCache` is an on-disk JSON store so
  re-running a benchmark only simulates the missing points.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cache": ["ResultCache"],
    ".executor": ["PointCallback", "run_experiments", "simulate_point"],
    ".spec": [
        "ExperimentSpec", "build_experiment", "build_faults",
        "build_metrics", "build_routing", "build_system", "build_traffic",
        "list_presets", "list_routings", "list_topologies", "list_traffics",
        "point_key", "point_seed", "register_routing", "register_topology",
        "register_traffic", "suggest",
    ],
})
