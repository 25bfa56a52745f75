"""Declarative experiment specs and the factories that realise them.

An :class:`ExperimentSpec` names a ``(topology, routing, traffic)``
triple symbolically — kind strings plus keyword options — instead of
holding live objects, so it can be pickled into a worker process (or
hashed into a cache key) and rebuilt there from the registries below.

Registered kinds (see :func:`list_topologies` & friends):

========== =========================================================
topology   ``switchless``, ``dragonfly``, ``mesh``, ``switch``
routing    ``switchless``, ``dragonfly``, ``xy_mesh``, ``switch_star``
traffic    ``uniform``, ``bit_reverse``, ``bit_shuffle``,
           ``bit_transpose``, ``hotspot``, ``worst_case``,
           ``ring_allreduce``
========== =========================================================

Topology options may name a config preset (``preset="radix16_equiv"``)
with further keywords forwarded as overrides.  Traffic options accept a
declarative ``scope``: ``None`` (all terminals), ``("group", i)``
(W-group / Dragonfly group ``i``) or ``"snake"`` (a mesh block's
snake-ordered chips, for ring collectives).
"""

from __future__ import annotations

import difflib
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import SwitchlessConfig, build_switchless
from ..faults import FaultAwareRouting, FaultMaskedTraffic, FaultSpec, degrade
from ..metrics import build_probes, metrics_to_data, normalize_metrics
from ..network.params import SimParams
from ..routing import (
    DragonflyRouting,
    SwitchlessRouting,
    SwitchStarRouting,
    XYMeshRouting,
)
from ..topology.dragonfly import DragonflyConfig, build_dragonfly
from ..topology.mesh import MeshSpec, build_mesh, build_switch_with_terminals
from ..traffic import (
    BitReverseTraffic,
    BitShuffleTraffic,
    BitTransposeTraffic,
    HotspotTraffic,
    RingAllReduceTraffic,
    UniformTraffic,
    WorstCaseTraffic,
)

__all__ = [
    "ExperimentSpec",
    "build_experiment",
    "build_faults",
    "build_metrics",
    "build_routing",
    "build_system",
    "build_traffic",
    "list_presets",
    "list_routings",
    "list_topologies",
    "list_traffics",
    "point_key",
    "point_seed",
    "register_routing",
    "register_topology",
    "register_traffic",
    "shaped",
    "suggest",
]

#: bump when the spec -> simulation mapping changes incompatibly, so
#: stale cache entries are never mistaken for current results.
#:
#: Cache-invalidation policy: every field that can change a simulated
#: number MUST appear in :meth:`ExperimentSpec.config_key` (topology /
#: routing / traffic kinds and options, params, and the ``faults``
#: axis).  Adding such a field therefore reshuffles all point digests —
#: bump this constant alongside so the change is explicit, and note it
#: in CHANGES.md: users with long-lived ``ResultCache`` directories
#: should clear them (entries keyed under the old version are simply
#: never hit again; ``ResultCache.clear()`` reclaims the disk).
#:
#: v2: ``faults`` joined the hashed payload (a degraded run must never
#: alias a cached healthy-wafer result, and vice versa).
#:
#: v3: ``metrics`` joined the hashed payload.  Probes never change the
#: simulated numbers, but a cached probe-off point must not satisfy a
#: probe-on request (its payload carries no channels) — and vice versa
#: a probe-on entry would smuggle channels into probe-off results.
#:
#: v4: the ``workload`` axis (closed-loop runs) joined the hashed
#: payload — present only when non-empty, so the payload *content* of
#: workload-less (open-loop) specs is unchanged from v3; their digests
#: still move with the version bump, which is the point: a closed-loop
#: point must never alias an open-loop one at the same rate.
#:
#: v5: closed-loop points only, so not a bump of this constant.  A
#: plan's routes are resolved before the run in template order on every
#: core (the kernel's plan mode needs them up front), which moves the
#: stdlib-RNG draw order of a *randomised* routing under a workload;
#: deterministic routings are bit-identical.  ``point_seed`` derives
#: from this hash, so bumping the constant would re-seed (and move the
#: numbers of) every open-loop point too, for a change that cannot
#: touch them; instead :data:`PLAN_REVISION` is hashed beside the
#: workload, and only closed-loop keys and seeds move.
ENGINE_VERSION = 4
PLAN_REVISION = 5


def shaped(value, kind: type, what: str):
    """``value`` when it is a ``kind`` (``dict``: a JSON object,
    ``list``: an array), else a ``ValueError`` naming ``what`` — parsers
    of external JSON check a shape before indexing into it, so hostile
    input is a clear error instead of an ``AttributeError``."""
    if not isinstance(value, kind):
        shape = "object" if kind is dict else "array"
        raise ValueError(f"{what} must be a JSON {shape}, got {value!r:.60}")
    return value


def suggest(name: str, candidates: Sequence[str]) -> str:
    """A ``"; did you mean X?"`` fragment for unknown-name errors.

    Empty when nothing in ``candidates`` is close — callers append the
    result to their error message unconditionally.
    """
    close = difflib.get_close_matches(name, list(candidates), n=3,
                                      cutoff=0.5)
    if not close:
        return ""
    if len(close) == 1:
        return f"; did you mean {close[0]!r}?"
    listed = ", ".join(repr(c) for c in close[:-1])
    return f"; did you mean {listed} or {close[-1]!r}?"


# ----------------------------------------------------------------------
# option freezing: keyword dicts become hashable, canonically ordered
# ----------------------------------------------------------------------
def _freeze(value):
    """Freeze one keyword dict of options (top level only)."""
    return tuple(sorted((k, _freeze_value(v)) for k, v in value.items()))


def _freeze_value(value):
    if isinstance(value, dict):
        # a frozen nested dict would thaw back as a tuple of pairs and
        # silently corrupt the factory's kwargs — fail loudly instead
        raise TypeError(
            "nested dict option values are not supported; pass scalars, "
            "lists/tuples, or flatten the structure into the options"
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"option value {value!r} is not spec-serialisable")


def _thaw_opts(opts: Tuple) -> Dict:
    return {k: _thaw(v) for k, v in opts}


def _thaw(value):
    if isinstance(value, tuple):
        return tuple(_thaw(v) for v in value)
    return value


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
_TOPOLOGIES: Dict[str, Callable] = {}
_ROUTINGS: Dict[str, Callable] = {}
_TRAFFICS: Dict[str, Callable] = {}


def _register(table: Dict[str, Callable], name: str) -> Callable:
    def deco(fn: Callable) -> Callable:
        if name in table:
            raise ValueError(f"{name!r} is already registered")
        table[name] = fn
        return fn

    return deco


def register_topology(name: str) -> Callable:
    """Register ``fn(**options) -> system`` under ``name``."""
    return _register(_TOPOLOGIES, name)


def register_routing(name: str) -> Callable:
    """Register ``fn(system, **options) -> routing`` under ``name``."""
    return _register(_ROUTINGS, name)


def register_traffic(name: str) -> Callable:
    """Register ``fn(system, scope, **options) -> traffic``."""
    return _register(_TRAFFICS, name)


def list_topologies() -> List[str]:
    return sorted(_TOPOLOGIES)


def list_routings() -> List[str]:
    return sorted(_ROUTINGS)


def list_traffics() -> List[str]:
    return sorted(_TRAFFICS)


def _lookup(table: Dict[str, Callable], kind: str, what: str) -> Callable:
    """Resolve a registered kind, naming the alternatives on a miss."""
    try:
        return table[kind]
    except KeyError:
        raise ValueError(
            f"unknown {what} kind {kind!r}; registered: {sorted(table)}"
        ) from None


#: topology kinds whose config classes carry named presets.
_PRESET_CONFIGS = {
    "switchless": SwitchlessConfig,
    "dragonfly": DragonflyConfig,
}


def _presets_of(config_cls) -> List[str]:
    """The public classmethod constructors of a config class — exactly
    what ``topology_opts={"preset": name}`` resolves against."""
    return sorted(
        name
        for name, member in vars(config_cls).items()
        if isinstance(member, classmethod) and not name.startswith("_")
    )


def list_presets(topology: str) -> List[str]:
    """Named config presets of a topology kind ([] if it has none)."""
    cls = _PRESET_CONFIGS.get(topology)
    return _presets_of(cls) if cls is not None else []


# ----------------------------------------------------------------------
# the spec itself
def _check_workload(workload: str, workload_opts: Optional[Dict]) -> None:
    """Fail fast on a bad closed-loop axis.

    Full validation (options vs the builder's signature, DAG
    integrity, sizing) happens when the executor builds the workload
    over the traffic's chips; here we check what doesn't need a chip
    count — the name is known and a ``trace`` document parses.
    """
    if not workload:
        if workload_opts:
            raise ValueError(
                "workload_opts without a workload name have no effect"
            )
        return
    # workload -> engine is the package's import direction; the reverse
    # import stays lazy so repro.workload can use suggest() from here
    from ..workload.ir import WORKLOADS
    from ..workload.trace import workload_loads

    candidates = sorted(WORKLOADS) + ["trace"]
    if workload not in candidates:
        raise ValueError(
            f"unknown workload {workload!r}; registered: {candidates}"
            + suggest(workload, candidates)
        )
    if workload == "trace":
        trace = (workload_opts or {}).get("trace")
        if not isinstance(trace, str) or not trace:
            raise ValueError(
                "workload 'trace' needs workload_opts={'trace': <json "
                "document string>}"
            )
        workload_loads(trace)  # fail fast on a malformed document


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """One latency-vs-load experiment, reconstructible from data alone.

    ``faults`` is the (frozen) keyword dict of a
    :class:`~repro.faults.FaultSpec` — empty for a perfect wafer.  It is
    part of :meth:`config_key`, so degraded runs and healthy runs can
    never alias each other in the :class:`~repro.engine.ResultCache`.

    ``metrics`` is the frozen probe axis (see :mod:`repro.metrics`):
    ``(name, ((option, value), ...))`` entries naming registered probe
    kinds.  Probes are attached per simulated point and their channels
    ride inside the point's ``SimResult`` — through the cache too,
    which is why the axis is hashed (see the v3 note above).

    ``workload`` switches the spec to *closed-loop* execution: instead
    of open-loop Bernoulli injection at each rate, the executor builds
    the named :mod:`repro.workload` DAG over the traffic's
    participating chips and drives it with a
    :class:`~repro.workload.driver.PhasePlan` (rates become pacing
    bandwidths).  ``workload_opts`` are the builder's keyword options
    (``trace`` carries the whole trace document as one JSON string,
    since nested dicts don't freeze).  Empty = open-loop, the default.
    """

    topology: str
    routing: str
    traffic: str
    topology_opts: Tuple = ()
    routing_opts: Tuple = ()
    traffic_opts: Tuple = ()
    params: SimParams = field(default_factory=SimParams)
    rates: Tuple[float, ...] = ()
    label: str = ""
    faults: Tuple = ()
    metrics: Tuple = ()
    workload: str = ""
    workload_opts: Tuple = ()

    @classmethod
    def create(
        cls,
        *,
        topology: str,
        routing: str,
        traffic: str,
        topology_opts: Optional[Dict] = None,
        routing_opts: Optional[Dict] = None,
        traffic_opts: Optional[Dict] = None,
        params: Optional[SimParams] = None,
        rates: Sequence[float] = (),
        label: str = "",
        faults: Optional[Dict] = None,
        metrics=None,
        workload: str = "",
        workload_opts: Optional[Dict] = None,
    ) -> "ExperimentSpec":
        """Build a spec from keyword dicts, validating the kind names."""
        for kind, table, what in (
            (topology, _TOPOLOGIES, "topology"),
            (routing, _ROUTINGS, "routing"),
            (traffic, _TRAFFICS, "traffic"),
        ):
            _lookup(table, kind, what)
        FaultSpec.from_opts(faults or {})  # fail fast on a bad fault axis
        _check_workload(workload, workload_opts)
        return cls(
            topology=topology,
            routing=routing,
            traffic=traffic,
            topology_opts=_freeze(topology_opts or {}),
            routing_opts=_freeze(routing_opts or {}),
            traffic_opts=_freeze(traffic_opts or {}),
            params=params or SimParams(),
            rates=tuple(float(r) for r in rates),
            label=label,
            faults=_freeze(faults or {}),
            metrics=normalize_metrics(metrics),  # fail fast here too
            workload=workload,
            workload_opts=_freeze(workload_opts or {}),
        )

    def with_faults(self, faults: Optional[Dict]) -> "ExperimentSpec":
        FaultSpec.from_opts(faults or {})
        return replace(self, faults=_freeze(faults or {}))

    def with_workload(
        self, workload: str, workload_opts: Optional[Dict] = None
    ) -> "ExperimentSpec":
        """Copy with the closed-loop axis replaced (``""`` clears)."""
        _check_workload(workload, workload_opts)
        return replace(
            self,
            workload=workload,
            workload_opts=_freeze(workload_opts or {}),
        )

    def with_metrics(self, metrics) -> "ExperimentSpec":
        """Copy with the probe axis replaced (``None``/``()`` clears)."""
        return replace(self, metrics=normalize_metrics(metrics))

    def with_rates(self, rates: Sequence[float]) -> "ExperimentSpec":
        return replace(self, rates=tuple(float(r) for r in rates))

    def with_label(self, label: str) -> "ExperimentSpec":
        return replace(self, label=label)

    # -- declarative (JSON) form ---------------------------------------
    def to_data(self) -> Dict:
        """Plain-data view of the spec, the inverse of :meth:`from_data`.

        Option tuples thaw back to the keyword dicts they froze from, so
        the output is directly JSON-serialisable (tuples become lists;
        :meth:`from_data` re-freezes either form identically).
        """
        data = {
            "topology": self.topology,
            "topology_opts": _thaw_opts(self.topology_opts),
            "routing": self.routing,
            "routing_opts": _thaw_opts(self.routing_opts),
            "traffic": self.traffic,
            "traffic_opts": _thaw_opts(self.traffic_opts),
            "faults": _thaw_opts(self.faults),
            "params": {
                k: getattr(self.params, k)
                for k in self.params.__dataclass_fields__
            },
            "rates": list(self.rates),
            "label": self.label,
        }
        if self.metrics:
            # omitted when empty, so pre-metrics scenario files and
            # probe-less specs serialise byte-identically to before
            data["metrics"] = metrics_to_data(self.metrics)
        if self.workload:
            # same omit-when-empty policy as metrics
            data["workload"] = self.workload
            data["workload_opts"] = _thaw_opts(self.workload_opts)
        return data

    @classmethod
    def from_data(cls, data: Dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_data` output (or hand-written
        scenario-file JSON).  Unknown ``params`` keys are ignored so old
        files survive new simulator knobs."""
        shaped(data, dict, "an experiment spec")
        params_data = data.get("params") or {}
        params = SimParams(
            **{
                k: v
                for k, v in params_data.items()
                if k in SimParams.__dataclass_fields__
            }
        )
        return cls.create(
            topology=data["topology"],
            topology_opts=data.get("topology_opts"),
            routing=data["routing"],
            routing_opts=data.get("routing_opts"),
            traffic=data["traffic"],
            traffic_opts=data.get("traffic_opts"),
            faults=data.get("faults"),
            params=params,
            rates=data.get("rates", ()),
            label=data.get("label", ""),
            metrics=data.get("metrics"),
            workload=data.get("workload", ""),
            workload_opts=data.get("workload_opts"),
        )

    # -- hashing -------------------------------------------------------
    def config_key(self) -> str:
        """Stable digest of everything that affects simulation results.

        The label and rate list are excluded: per-*point* results are
        keyed by :func:`point_key`, so extending a rate list reuses the
        points already simulated.
        """
        payload = {
            "engine_version": ENGINE_VERSION,
            "topology": [self.topology, self.topology_opts],
            "routing": [self.routing, self.routing_opts],
            "traffic": [self.traffic, self.traffic_opts],
            "faults": list(self.faults),
            "metrics": list(self.metrics),
            "params": {
                k: getattr(self.params, k)
                for k in self.params.__dataclass_fields__
            },
        }
        if self.workload:
            # omitted when empty: open-loop payload content is
            # unchanged from v3 (see the v4 and v5 notes on
            # ENGINE_VERSION)
            payload["workload"] = [
                self.workload, list(self.workload_opts), PLAN_REVISION
            ]
        blob = json.dumps(payload, sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        base = (
            f"{self.topology}/{self.routing}/{self.traffic}"
            f"[{len(self.rates)} rates]"
        )
        if self.faults:
            base += f"+{FaultSpec.from_opts(_thaw_opts(self.faults)).describe()}"
        if self.metrics:
            base += f"+probes[{','.join(name for name, _ in self.metrics)}]"
        if self.workload:
            base += f"+wl[{self.workload}]"
        return f"{self.label} ({base})" if self.label else base


def point_key(spec: ExperimentSpec, rate: float) -> str:
    """Cache key of one ``(spec, rate)`` point."""
    digest = hashlib.sha256(
        f"{spec.config_key()}|rate={float(rate)!r}".encode()
    ).hexdigest()
    return digest


def point_seed(spec: ExperimentSpec, rate: float) -> int:
    """Deterministic per-point RNG seed, derived from the spec hash.

    Every point of a sweep gets its own seed stream, identical whether
    the point runs serially, in a worker process, or in a later session
    — which is what makes parallel execution bit-identical to serial.
    """
    return int(point_key(spec, rate)[:15], 16)


# ----------------------------------------------------------------------
# realisation
# ----------------------------------------------------------------------
def build_system(spec: ExperimentSpec):
    """Build just the topology/system object of a spec."""
    factory = _lookup(_TOPOLOGIES, spec.topology, "topology")
    return factory(**_thaw_opts(spec.topology_opts))


def build_faults(spec: ExperimentSpec) -> Optional[FaultSpec]:
    """The spec's fault axis as a :class:`FaultSpec` (None when healthy)."""
    if not spec.faults:
        return None
    fspec = FaultSpec.from_opts(_thaw_opts(spec.faults))
    return None if fspec.is_null else fspec


def build_routing(spec: ExperimentSpec, system):
    """Build the routing algorithm of a spec against ``system``.

    When the spec carries a fault axis, the base algorithm is wrapped in
    :class:`~repro.faults.FaultAwareRouting` against the (memoised)
    degraded instance, so every produced route avoids failed hardware.
    """
    factory = _lookup(_ROUTINGS, spec.routing, "routing")
    routing = factory(system, **_thaw_opts(spec.routing_opts))
    fspec = build_faults(spec)
    if fspec is not None:
        routing = FaultAwareRouting(routing, degrade(system, fspec))
    return routing


def build_metrics(spec: ExperimentSpec) -> List:
    """The spec's probe axis realised as probe instances ([] when off)."""
    return build_probes(spec.metrics) if spec.metrics else []


def build_traffic(spec: ExperimentSpec, system):
    """Build the traffic pattern of a spec against ``system``.

    With a fault axis, the pattern is wrapped in
    :class:`~repro.faults.FaultMaskedTraffic`: failed endpoints neither
    inject nor receive (injection masking in the simulator cores).
    """
    factory = _lookup(_TRAFFICS, spec.traffic, "traffic")
    topts = _thaw_opts(spec.traffic_opts)
    scope = _resolve_scope(system, topts.pop("scope", None))
    traffic = factory(system, scope, **topts)
    fspec = build_faults(spec)
    if fspec is not None:
        traffic = FaultMaskedTraffic(traffic, degrade(system, fspec))
    return traffic


def build_experiment(spec: ExperimentSpec, system=None, routing=None):
    """Realise ``(graph, routing, traffic)`` from a spec.

    ``system`` / ``routing`` short-circuit the corresponding builds when
    the caller already holds them (worker-local reuse across the points
    of a sweep — a deterministic routing's route memo then carries over;
    a pre-built routing for a faulted spec must already be the wrapped
    fault-aware one, as :func:`build_routing` returns).
    """
    if system is None:
        system = build_system(spec)
    if routing is None:
        routing = build_routing(spec, system)
    traffic = build_traffic(spec, system)
    return system.graph, routing, traffic


def _resolve_scope(system, scope):
    """Turn a declarative scope into a node-id list."""
    if scope is None:
        return None
    if scope == "snake":
        return system.snake_chip_nodes()
    if isinstance(scope, tuple) and len(scope) == 2 and scope[0] == "group":
        return system.group_nodes(int(scope[1]))
    if isinstance(scope, tuple) and scope and scope[0] == "nodes":
        return [int(n) for n in scope[1]]
    raise ValueError(f"unknown traffic scope {scope!r}")


def _system_groups(system) -> int:
    """Group count of a system, across architecture families."""
    for attr in ("num_wgroups", "num_groups"):
        if hasattr(system, attr):
            return getattr(system, attr)
    raise TypeError(f"{type(system).__name__} has no group structure")


# ----------------------------------------------------------------------
# built-in topology factories
# ----------------------------------------------------------------------
def _config_from(config_cls, opts: Dict):
    preset = opts.pop("preset", None)
    if preset is not None:
        known = _presets_of(config_cls)
        factory = getattr(config_cls, preset, None) if preset in known \
            else None
        if factory is None or not callable(factory):
            raise ValueError(
                f"{config_cls.__name__} has no preset {preset!r}"
                f"{suggest(preset, known)}; available: {known}"
            )
        return factory(**opts)
    return config_cls(**opts)


@register_topology("switchless")
def _topo_switchless(**opts):
    return build_switchless(_config_from(SwitchlessConfig, opts))


@register_topology("dragonfly")
def _topo_dragonfly(**opts):
    return build_dragonfly(_config_from(DragonflyConfig, opts))


@register_topology("mesh")
def _topo_mesh(**opts):
    return build_mesh(MeshSpec(**opts))


@register_topology("switch")
def _topo_switch(num_terminals: int, **opts):
    return build_switch_with_terminals(num_terminals, **opts)


# ----------------------------------------------------------------------
# built-in routing factories
# ----------------------------------------------------------------------
@register_routing("switchless")
def _route_switchless(system, mode: str = "minimal", **opts):
    return SwitchlessRouting(system, mode, **opts)


@register_routing("dragonfly")
def _route_dragonfly(system, mode: str = "minimal", **opts):
    return DragonflyRouting(system, mode, **opts)


@register_routing("xy_mesh")
def _route_xy_mesh(system):
    return XYMeshRouting(system)


@register_routing("switch_star")
def _route_switch_star(system, **opts):
    return SwitchStarRouting(system, **opts)


# ----------------------------------------------------------------------
# built-in traffic factories
# ----------------------------------------------------------------------
@register_traffic("uniform")
def _traffic_uniform(system, scope, **opts):
    return UniformTraffic(system.graph, scope, **opts)


@register_traffic("bit_reverse")
def _traffic_bit_reverse(system, scope):
    return BitReverseTraffic(system.graph, scope)


@register_traffic("bit_shuffle")
def _traffic_bit_shuffle(system, scope):
    return BitShuffleTraffic(system.graph, scope)


@register_traffic("bit_transpose")
def _traffic_bit_transpose(system, scope):
    return BitTransposeTraffic(system.graph, scope)


@register_traffic("hotspot")
def _traffic_hotspot(system, scope, num_hot: int = 4):
    if scope is not None:
        raise ValueError("hotspot derives its own scope from num_hot")
    return HotspotTraffic(
        system.graph, system.group_nodes, _system_groups(system), num_hot
    )


@register_traffic("worst_case")
def _traffic_worst_case(system, scope):
    if scope is not None:
        raise ValueError("worst_case spans all groups; scope must be None")
    return WorstCaseTraffic(
        system.graph, system.group_nodes, _system_groups(system)
    )


@register_traffic("ring_allreduce")
def _traffic_ring_allreduce(system, scope, *, bidirectional: bool = False):
    return RingAllReduceTraffic(
        system.graph, scope, bidirectional=bidirectional
    )
