"""``repro.faults`` — yield-aware fault injection and degraded operation.

The paper's case for the switch-less Dragonfly leans on wafer-scale
integration surviving the defects wafer-scale silicon inevitably
carries; this package makes that a first-class, reproducible axis:

* :class:`FaultSpec` — deterministic, seedable fault models (independent
  link/die failure rates, fixed failure lists, and a yield-driven
  spatial defect model mapped through :mod:`repro.layout` geometry);
* :func:`sample_faults` / :class:`FaultSet` — concrete failed
  channels/dies on a built system, with full-duplex and die-failure
  closure applied;
* :class:`DegradedTopology` / :func:`degrade` — graph surgery as a view
  (ids stable), recomputed connectivity/partition/diameter/diversity
  properties;
* :class:`FaultAwareRouting` — healthy routes kept verbatim, severed
  routes repaired up*/down* on one extra VC, deadlock freedom preserved
  compositionally (and re-verified per instance);
* :class:`FaultMaskedTraffic` — failed-endpoint injection masking for
  the simulator cores.

:func:`apply_faults` bundles the last three — it is what the experiment
engine calls when an :class:`~repro.engine.ExperimentSpec` carries a
``faults`` axis::

    from repro.engine import ExperimentSpec

    spec = ExperimentSpec.create(
        topology="switchless", routing="switchless", traffic="uniform",
        topology_opts={"preset": "small_equiv"},
        faults={"model": "random", "link_rate": 0.05, "seed": 7},
        rates=[0.2, 0.4],
    )
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .degraded import DegradedTopology

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".spec": ["FAULT_MODELS", "FaultSpec"],
    ".inject": [
        "DefectCluster", "FaultSet", "channel_reverse", "sample_faults",
    ],
    ".degraded": ["DegradedTopology", "degrade"],
    ".routing": ["FaultAwareRouting", "FaultRoutingError"],
    ".traffic": ["FaultMaskedTraffic"],
})
__all__.append("apply_faults")


def apply_faults(
    system,
    routing,
    traffic,
    spec: Optional["FaultSpec"],
) -> Tuple[object, object, Optional["DegradedTopology"]]:
    """Wrap ``(routing, traffic)`` for the fault scenario ``spec``.

    Returns ``(routing, traffic, degraded)`` — unchanged objects and
    ``None`` when the spec is null or absent, so healthy experiments pay
    nothing.  Already-wrapped inputs are left alone (the engine reuses
    wrapped routings across the points of a sweep).
    """
    from .degraded import degrade
    from .routing import FaultAwareRouting
    from .traffic import FaultMaskedTraffic

    if spec is None or spec.is_null:
        return routing, traffic, None
    degraded = degrade(system, spec)
    if not isinstance(routing, FaultAwareRouting):
        routing = FaultAwareRouting(routing, degraded)
    if not isinstance(traffic, FaultMaskedTraffic):
        traffic = FaultMaskedTraffic(traffic, degraded)
    return routing, traffic, degraded
