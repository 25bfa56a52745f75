"""Declarative fault models for wafer-scale systems.

A :class:`FaultSpec` describes *which* failures to inject without naming
concrete link ids, so it can ride inside an
:class:`~repro.engine.ExperimentSpec` (as the frozen ``faults`` option
tuple), hash into cache keys, and rebuild identically inside a worker
process.  Realisation into concrete failed links/chips happens in
:mod:`repro.faults.inject` against a built system.

Three models (plus the null model):

``none``
    A perfect wafer; the default.  ``FaultSpec.null()`` / empty options.
``random``
    Independent failures: every eligible full-duplex *channel* fails
    with probability ``link_rate`` and every chip (die) with
    probability ``die_rate``, drawn from a dedicated ``seed`` so fault
    sampling never perturbs traffic/routing RNG streams.
``fixed``
    Explicit failure lists: ``failed_channels`` names (node_a, node_b)
    endpoint pairs, ``failed_chips`` names chip ids.  Deterministic by
    construction; used for regression scenarios and targeted studies.
``yield``
    Spatial defect clusters on the wafer: ``defects_per_wafer`` clusters
    (Poisson mean) of kill radius ``defect_radius_mm`` land on each
    wafer, mapped through :mod:`repro.layout` geometry to the dies and
    link PHYs they overlap (see :class:`repro.layout.WaferMap`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

__all__ = ["FAULT_MODELS", "FaultSpec"]

#: recognised fault models.
FAULT_MODELS = ("none", "random", "fixed", "yield")

#: link classes eligible for random channel failures by default: every
#: on-wafer or long-reach transport channel.  ``onchip`` NoC hops and
#: ``terminal`` processor links are excluded — a broken chip is a *die*
#: failure, which the die/chip models cover.
DEFAULT_LINK_CLASSES = ("sr", "local", "global")


@dataclass(frozen=True)
class FaultSpec:
    """One reproducible fault scenario (see module docstring)."""

    model: str = "none"
    #: per-channel failure probability (``random`` model).
    link_rate: float = 0.0
    #: per-die failure probability (``random`` model).
    die_rate: float = 0.0
    #: RNG seed for fault sampling (independent of the sim seed).
    seed: int = 0
    #: link classes eligible for channel failures.
    link_classes: Tuple[str, ...] = DEFAULT_LINK_CLASSES
    #: ``fixed`` model: failed channels as (node_a, node_b) pairs.
    failed_channels: Tuple[Tuple[int, int], ...] = ()
    #: ``fixed`` model: failed chip (die) ids.
    failed_chips: Tuple[int, ...] = ()
    #: ``yield`` model: expected defect clusters per wafer (Poisson).
    defects_per_wafer: float = 0.0
    #: ``yield`` model: kill radius of one defect cluster (mm).
    defect_radius_mm: float = 8.0

    def __post_init__(self) -> None:
        if self.model not in FAULT_MODELS:
            raise ValueError(
                f"unknown fault model {self.model!r}; "
                f"expected one of {FAULT_MODELS}"
            )
        for name in ("link_rate", "die_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.defects_per_wafer < 0:
            raise ValueError("defects_per_wafer must be >= 0")
        if self.defect_radius_mm <= 0:
            raise ValueError("defect_radius_mm must be > 0")
        for pair in self.failed_channels:
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ValueError(
                    f"failed channel {pair!r} is not a (node_a, node_b) "
                    "pair of distinct nodes"
                )
        if self.model == "random" and not (self.link_rate or self.die_rate):
            raise ValueError(
                "random fault model needs link_rate > 0 or die_rate > 0"
            )
        if self.model == "fixed" and not (
            self.failed_channels or self.failed_chips
        ):
            raise ValueError(
                "fixed fault model needs failed_channels or failed_chips"
            )
        if self.model == "yield" and self.defects_per_wafer == 0:
            raise ValueError("yield fault model needs defects_per_wafer > 0")

    # ------------------------------------------------------------------
    @classmethod
    def null(cls) -> "FaultSpec":
        """The perfect-wafer spec."""
        return cls()

    @property
    def is_null(self) -> bool:
        return self.model == "none"

    def with_seed(self, seed: int) -> "FaultSpec":
        """Same fault law, different sample (for multi-instance sweeps)."""
        return replace(self, seed=seed)

    # -- declarative form ----------------------------------------------
    def to_data(self) -> Dict:
        """Keyword-dict view, the inverse of :meth:`from_opts`.

        Only non-default fields are emitted, so the null spec maps to an
        empty dict — exactly the ``ExperimentSpec`` ``faults={}`` form.
        """
        out: Dict = {}
        default = FaultSpec()
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value != getattr(default, name):
                out[name] = value
        return out

    @classmethod
    def from_opts(cls, opts: Dict) -> "FaultSpec":
        """Build (and validate) a spec from a keyword dict.

        Accepts the thawed option dicts of ``ExperimentSpec.faults``:
        sequence-valued fields arrive as lists or tuples and are
        normalised to tuples.
        """
        kwargs: Dict = {}
        for key, value in dict(opts).items():
            if key not in cls.__dataclass_fields__:
                raise ValueError(
                    f"unknown FaultSpec field {key!r}; known: "
                    f"{sorted(cls.__dataclass_fields__)}"
                )
            if key == "failed_channels":
                value = tuple(
                    tuple(int(n) for n in pair) for pair in value
                )
            elif key == "failed_chips":
                value = tuple(int(c) for c in value)
            elif key == "link_classes":
                value = tuple(str(c) for c in value)
            kwargs[key] = value
        return cls(**kwargs)

    def describe(self) -> str:
        if self.is_null:
            return "no faults"
        if self.model == "random":
            parts = []
            if self.link_rate:
                parts.append(f"{self.link_rate:.4g} link")
            if self.die_rate:
                parts.append(f"{self.die_rate:.4g} die")
            return f"random({', '.join(parts)}; seed={self.seed})"
        if self.model == "fixed":
            return (
                f"fixed({len(self.failed_channels)} channel(s), "
                f"{len(self.failed_chips)} chip(s))"
            )
        return (
            f"yield({self.defects_per_wafer:g}/wafer, "
            f"r={self.defect_radius_mm:g}mm; seed={self.seed})"
        )
