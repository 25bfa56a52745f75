"""The probe interface and the registry of probe kinds.

A :class:`Probe` turns one run's :class:`~repro.metrics.RunRecord` into
one :class:`~repro.metrics.MetricChannel`.  Subclasses either

* override :meth:`Probe.collect` and reduce the record's int64 columns
  directly — what every built-in does (:mod:`repro.metrics.probes`),
  and the only form cheap enough to leave on across a sweep; or
* implement the narrow *event surface* — ``on_inject`` / ``on_hop`` /
  ``on_eject`` plus ``begin``/``finish`` — and inherit the generic
  :meth:`Probe.collect`, which replays the record packet by packet as
  plain-Python :class:`~repro.metrics.PacketView` /
  :class:`~repro.metrics.HopEvent` values.  That is the extension
  point for a question asked once, and the executable specification
  the built-in reductions are property-tested against; it costs a
  Python call per hop.

Either way probes run strictly *post-run*: the simulator hot loops (and
the compiled native kernel) contain no probe callbacks, which is what
keeps probe-off runs bit-identical to — and as fast as — a build
without the metrics layer.

Probe kinds register under a stable name (``@register_probe``) so the
declarative :class:`~repro.engine.ExperimentSpec` can carry a hashed
``metrics`` axis of ``(name, options)`` entries and worker processes
can rebuild the probes from the registry.  Options are validated by
the probe's constructor, which :func:`normalize_metrics` calls once at
spec-creation time.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Type

if TYPE_CHECKING:
    from .channel import MetricChannel
    from .record import HopEvent, PacketView, RunRecord

__all__ = [
    "Probe",
    "build_probe",
    "build_probes",
    "list_probes",
    "normalize_metrics",
    "probe_descriptions",
    "register_probe",
]


class Probe:
    """Base class of all metric probes (see module docstring)."""

    #: registered kind name; doubles as the produced channel's name.
    name: str = ""
    #: one-line description shown by ``repro-dragonfly metrics``.
    description: str = ""

    def channel_name(self) -> str:
        """Name the produced channel carries (defaults to the kind)."""
        return self.name

    # -- generic event-replay path -------------------------------------
    def begin(self, record: RunRecord) -> None:
        """Reset per-run state before the event replay."""

    def on_inject(self, pkt: PacketView) -> None:
        """One measured packet entered the network."""

    def on_hop(self, pkt: PacketView, hop: HopEvent) -> None:
        """One route hop of a delivered measured packet."""

    def on_eject(self, pkt: PacketView) -> None:
        """A delivered measured packet left the network."""

    def finish(self, record: RunRecord) -> MetricChannel:
        """Produce the channel after the replay."""
        raise NotImplementedError

    def collect(self, record: RunRecord) -> MetricChannel:
        """Record -> channel; default replays the canonical events."""
        self.begin(record)
        for kind, pkt, hop in record.events():
            if kind == "inject":
                self.on_inject(pkt)
            elif kind == "hop":
                self.on_hop(pkt, hop)
            else:
                self.on_eject(pkt)
        return self.finish(record)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_PROBES: Dict[str, Type[Probe]] = {}


def _registry() -> Dict[str, Type[Probe]]:
    """The probe kinds, the built-ins (:mod:`repro.metrics.probes`,
    registered by its import) included: a run without probes never
    loads them."""
    import_module(".probes", __package__)
    return _PROBES


def register_probe(cls: Type[Probe]) -> Type[Probe]:
    """Class decorator registering a probe kind under ``cls.name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} needs a non-empty name")
    probes = _registry()
    if cls.name in probes:
        raise ValueError(f"probe kind {cls.name!r} is already registered")
    probes[cls.name] = cls
    return cls


def list_probes() -> List[str]:
    """Registered probe kind names, sorted."""
    return sorted(_registry())


def probe_descriptions() -> Dict[str, str]:
    """kind -> one-line description, for the CLI listing."""
    return {name: _PROBES[name].description for name in list_probes()}


def build_probe(name: str, **options) -> Probe:
    """Instantiate one registered probe kind."""
    try:
        cls = _registry()[name]
    except KeyError:
        raise ValueError(
            f"unknown probe kind {name!r}; registered: {list_probes()}"
        ) from None
    return cls(**options)


def normalize_metrics(metrics) -> Tuple[Tuple[str, Tuple], ...]:
    """Validate and canonicalise a metrics axis.

    Accepts an iterable whose entries are probe kind names, ``(name,
    options-dict)`` pairs, or the already-frozen ``(name, ((k, v),
    ...))`` form, and returns the frozen canonical tuple the
    :class:`~repro.engine.ExperimentSpec` stores and hashes.  Every
    entry is instantiated once here, so bad kinds or options fail at
    spec-creation time, not inside a worker.
    """
    if metrics is None:
        return ()
    if isinstance(metrics, str):
        metrics = [metrics]
    frozen = []
    seen = set()
    for entry in metrics:
        if isinstance(entry, str):
            name, opts = entry, {}
        else:
            name, raw = entry
            opts = dict(raw)
        if name in seen:
            # channels are keyed by name on the result, so a duplicate
            # kind would silently overwrite the first one's channel
            raise ValueError(
                f"probe kind {name!r} appears twice in the metrics axis"
            )
        seen.add(name)
        for key, val in opts.items():
            if not isinstance(key, str) or not isinstance(
                val, (bool, int, float, str, type(None))
            ):
                raise TypeError(
                    f"probe option {key!r}={val!r} is not "
                    "spec-serialisable (scalars only)"
                )
        build_probe(name, **opts)  # fail fast
        frozen.append((name, tuple(sorted(opts.items()))))
    return tuple(frozen)


def build_probes(metrics) -> List[Probe]:
    """Realise a metrics axis into probe instances, in order.

    :class:`Probe` instances pass through; everything else (kind names,
    ``(name, options)`` pairs, the frozen spec form) is validated
    together by :func:`normalize_metrics` and instantiated.
    """
    if isinstance(metrics, str):
        metrics = [metrics]
    entries = list(metrics or ())
    built = (
        build_probe(name, **dict(opts))
        for name, opts in normalize_metrics(
            [e for e in entries if not isinstance(e, Probe)]
        )
    )
    return [e if isinstance(e, Probe) else next(built) for e in entries]


def metrics_to_data(metrics: Sequence) -> List:
    """JSON view of a frozen metrics axis (names, or [name, opts])."""
    out: List = []
    for name, opts in metrics:
        out.append(name if not opts else [name, dict(opts)])
    return out
