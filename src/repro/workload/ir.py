"""Workload IR: dependency DAGs of communication phases.

A :class:`Workload` is a directed acyclic graph of :class:`Phase` nodes.
Each phase carries a *traffic shape* (who talks to whom, at chip
granularity), a *message volume* (flits injected per participating node
during the phase) and an optional *compute* delay; edges (``after``) are
happens-after constraints.  The closed-loop driver
(:mod:`repro.workload.driver`) releases a phase's injections only once
every upstream phase has drained — the dependency-driven behaviour the
open-loop steady-state patterns of :mod:`repro.traffic` cannot express.

Phase patterns are chip-granular, matching the collective analysis the
paper applies to its ring AllReduce traffic (Sec. V-B5):

``("shift", k)``
    every participating chip at ring position ``i`` streams to the chip
    at position ``(i + k) mod n``; on-chip node ``j`` talks to its
    counterpart ``j`` on the destination chip.
``("all_to_all",)``
    every chip spreads its volume round-robin over all other chips
    (MoE dispatch / DLRM embedding exchange shape).
``("none",)``
    a pure compute phase: no packets, only the ``compute`` delay.

Builders for the common DNN-training collectives live in the
:data:`WORKLOADS` registry; recorded or synthetic traces round-trip
through :mod:`repro.workload.trace` (``repro.workload-trace/v1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from ..engine.spec import suggest

__all__ = [
    "Phase",
    "Workload",
    "WORKLOADS",
    "register_workload",
    "build_workload",
    "list_workloads",
    "workload_descriptions",
]

#: patterns a phase may carry, by tag.
_PATTERNS = ("shift", "all_to_all", "none")


@dataclass(frozen=True)
class Phase:
    """One communication (or compute) phase of a workload DAG."""

    name: str
    #: ("shift", k) | ("all_to_all",) | ("none",)
    pattern: Tuple = ("none",)
    #: flits injected per participating node during this phase.
    volume: int = 0
    #: names of phases that must drain before this one starts.
    after: Tuple[str, ...] = ()
    #: compute cycles between upstream drain and first injection.
    compute: int = 0

    def __post_init__(self):
        if not self.name:
            raise ValueError("phase name must be non-empty")
        if not self.pattern or self.pattern[0] not in _PATTERNS:
            raise ValueError(
                f"phase {self.name!r}: unknown pattern {self.pattern!r} "
                f"(expected one of {_PATTERNS})"
            )
        tag = self.pattern[0]
        if tag == "shift":
            if len(self.pattern) != 2 or int(self.pattern[1]) == 0:
                raise ValueError(
                    f"phase {self.name!r}: shift pattern needs a non-zero "
                    f"chip offset, got {self.pattern!r}"
                )
        elif len(self.pattern) != 1:
            raise ValueError(
                f"phase {self.name!r}: pattern {tag!r} takes no arguments"
            )
        if self.volume < 0:
            raise ValueError(f"phase {self.name!r}: volume must be >= 0")
        if tag != "none" and self.volume == 0:
            raise ValueError(
                f"phase {self.name!r}: communication phases need volume >= 1"
            )
        if self.compute < 0:
            raise ValueError(f"phase {self.name!r}: compute must be >= 0")

    @property
    def communicates(self) -> bool:
        return self.pattern[0] != "none"


@dataclass(frozen=True)
class Workload:
    """A validated DAG of phases (see module docstring)."""

    name: str
    phases: Tuple[Phase, ...] = ()
    #: topological order of phase indices (computed at construction).
    _order: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name:
            raise ValueError("workload name must be non-empty")
        if not self.phases:
            raise ValueError(f"workload {self.name!r} has no phases")
        names = [p.name for p in self.phases]
        index = {}
        for i, nm in enumerate(names):
            if nm in index:
                raise ValueError(
                    f"workload {self.name!r}: duplicate phase name {nm!r}"
                )
            index[nm] = i
        for p in self.phases:
            for dep in p.after:
                if dep not in index:
                    raise ValueError(
                        f"workload {self.name!r}: phase {p.name!r} waits on "
                        f"unknown phase {dep!r}{suggest(dep, names)}"
                    )
                if dep == p.name:
                    raise ValueError(
                        f"workload {self.name!r}: phase {p.name!r} cannot "
                        "wait on itself"
                    )
        # Kahn topological sort doubles as the cycle check.
        indeg = [len(p.after) for p in self.phases]
        out: Dict[int, List[int]] = {i: [] for i in range(len(self.phases))}
        for i, p in enumerate(self.phases):
            for dep in p.after:
                out[index[dep]].append(i)
        ready = [i for i, d in enumerate(indeg) if d == 0]
        order: List[int] = []
        while ready:
            i = ready.pop(0)
            order.append(i)
            for j in out[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        if len(order) != len(self.phases):
            stuck = sorted(names[i] for i, d in enumerate(indeg) if d > 0)
            raise ValueError(
                f"workload {self.name!r}: dependency cycle through "
                f"{', '.join(stuck)}"
            )
        object.__setattr__(self, "_order", tuple(order))

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    def topo_order(self) -> Tuple[int, ...]:
        """Phase indices in a valid execution order."""
        return self._order

    def phase_index(self) -> Dict[str, int]:
        return {p.name: i for i, p in enumerate(self.phases)}

    def total_volume(self) -> int:
        """Flits per participating node summed over all phases."""
        return sum(p.volume for p in self.phases if p.communicates)

    def describe(self) -> str:
        comm = sum(1 for p in self.phases if p.communicates)
        return (
            f"{self.name}: {self.num_phases} phase(s), {comm} "
            f"communicating, {self.total_volume()} flit(s)/node total"
        )


# ----------------------------------------------------------------------
# builder registry
# ----------------------------------------------------------------------
#: name -> (builder, description).  Builders have the signature
#: ``builder(num_chips, **opts) -> Workload``.
WORKLOADS: Dict[str, Tuple[Callable, str]] = {}


def register_workload(name: str, description: str):
    def deco(fn):
        WORKLOADS[name] = (fn, description)
        return fn

    return deco


def list_workloads() -> List[str]:
    return sorted(WORKLOADS)


def workload_descriptions() -> Dict[str, str]:
    return {name: WORKLOADS[name][1] for name in list_workloads()}


def _per_step(volume: int, steps: int) -> int:
    if volume < 1:
        raise ValueError(f"workload volume must be >= 1 flit, got {volume}")
    return int(math.ceil(volume / steps))


@register_workload(
    "ring_allreduce",
    "2(n-1) chained neighbour-shift phases moving volume/n flits each "
    "(reduce-scatter then all-gather)",
)
def ring_allreduce(num_chips: int, *, volume: int = 64) -> Workload:
    _check_chips("ring_allreduce", num_chips)
    steps = 2 * (num_chips - 1)
    per = _per_step(volume, num_chips)
    phases = []
    prev = ()
    for s in range(steps):
        kind = "rs" if s < num_chips - 1 else "ag"
        name = f"{kind}{s if s < num_chips - 1 else s - (num_chips - 1)}"
        phases.append(
            Phase(name=name, pattern=("shift", 1), volume=per, after=prev)
        )
        prev = (name,)
    return Workload(name="ring_allreduce", phases=tuple(phases))


@register_workload(
    "tree_allreduce",
    "log2(n) doubling-shift reduce phases up the tree, mirrored for the "
    "broadcast back down",
)
def tree_allreduce(num_chips: int, *, volume: int = 64) -> Workload:
    _check_chips("tree_allreduce", num_chips)
    levels = max(1, int(math.ceil(math.log2(num_chips))))
    per = _per_step(volume, levels)
    phases = []
    prev = ()
    for lvl in range(levels):
        name = f"reduce{lvl}"
        shift = (2 ** lvl) % num_chips or 1
        phases.append(
            Phase(name=name, pattern=("shift", shift), volume=per, after=prev)
        )
        prev = (name,)
    for lvl in reversed(range(levels)):
        name = f"bcast{lvl}"
        shift = (2 ** lvl) % num_chips or 1
        phases.append(
            Phase(name=name, pattern=("shift", shift), volume=per, after=prev)
        )
        prev = (name,)
    return Workload(name="tree_allreduce", phases=tuple(phases))


@register_workload(
    "hierarchical_allreduce",
    "ring reduce within chip groups, a long-stride exchange across "
    "groups, then a ring broadcast within groups",
)
def hierarchical_allreduce(
    num_chips: int, *, volume: int = 64, group: int = 0
) -> Workload:
    _check_chips("hierarchical_allreduce", num_chips)
    if group <= 0:
        group = max(2, int(math.sqrt(num_chips)))
    group = min(group, num_chips)
    local_steps = max(1, group - 1)
    per_local = _per_step(volume, 2 * group)
    per_global = _per_step(volume, max(2, num_chips // group))
    phases = []
    prev = ()
    for s in range(local_steps):
        name = f"local_rs{s}"
        phases.append(
            Phase(name=name, pattern=("shift", 1), volume=per_local,
                  after=prev)
        )
        prev = (name,)
    stride = group % num_chips or 1
    phases.append(
        Phase(name="global_ex", pattern=("shift", stride),
              volume=per_global, after=prev)
    )
    prev = ("global_ex",)
    for s in range(local_steps):
        name = f"local_ag{s}"
        phases.append(
            Phase(name=name, pattern=("shift", 1), volume=per_local,
                  after=prev)
        )
        prev = (name,)
    return Workload(name="hierarchical_allreduce", phases=tuple(phases))


@register_workload(
    "all_to_all",
    "MoE/DLRM-style exchange: an all-to-all dispatch, an expert-compute "
    "gap, then an all-to-all combine",
)
def all_to_all(
    num_chips: int, *, volume: int = 64, compute: int = 64
) -> Workload:
    _check_chips("all_to_all", num_chips)
    return Workload(
        name="all_to_all",
        phases=(
            Phase(name="dispatch", pattern=("all_to_all",), volume=volume),
            Phase(name="expert", pattern=("none",), compute=compute,
                  after=("dispatch",)),
            Phase(name="combine", pattern=("all_to_all",), volume=volume,
                  after=("expert",)),
        ),
    )


@register_workload(
    "pipeline",
    "stage x microbatch p2p grid: activation (s,b) waits on (s-1,b) and "
    "(s,b-1) — the 1F pipeline-parallel dependency frontier",
)
def pipeline(
    num_chips: int,
    *,
    volume: int = 32,
    stages: int = 0,
    microbatches: int = 4,
    compute: int = 16,
) -> Workload:
    _check_chips("pipeline", num_chips)
    if stages <= 0:
        stages = min(num_chips, 4)
    stages = min(stages, num_chips)
    if microbatches < 1:
        raise ValueError("pipeline needs microbatches >= 1")
    phases = []
    for s in range(stages):
        for b in range(microbatches):
            after = []
            if s > 0:
                after.append(f"s{s - 1}b{b}")
            if b > 0:
                after.append(f"s{s}b{b - 1}")
            phases.append(
                Phase(
                    name=f"s{s}b{b}",
                    pattern=("shift", 1),
                    volume=volume,
                    after=tuple(after),
                    compute=compute,
                )
            )
    return Workload(name="pipeline", phases=tuple(phases))


def _check_chips(name: str, num_chips: int) -> None:
    if num_chips < 2:
        raise ValueError(
            f"workload {name!r} needs >= 2 participating chips, "
            f"got {num_chips}"
        )


def build_workload(
    name: str, opts: Mapping = None, *, num_chips: int
) -> Workload:
    """Instantiate a registered workload (or a ``trace``) over
    ``num_chips`` participating chips.

    ``opts`` are the keyword arguments of the builder (an
    ``ExperimentSpec.workload_opts`` mapping); the special name
    ``trace`` expects ``opts["trace"]`` to hold a
    ``repro.workload-trace/v1`` JSON document.
    """
    opts = dict(opts or {})
    if name == "trace":
        from .trace import workload_loads

        text = opts.pop("trace", None)
        if not isinstance(text, str) or not text:
            raise ValueError(
                "workload 'trace' needs workload_opts={'trace': <JSON "
                "document in repro.workload-trace/v1 format>}"
            )
        if opts:
            raise ValueError(
                f"workload 'trace' got unexpected option(s): "
                f"{', '.join(sorted(opts))}"
            )
        return workload_loads(text)
    if name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}"
            + suggest(name, list(WORKLOADS) + ["trace"])
        )
    builder, _ = WORKLOADS[name]
    try:
        return builder(num_chips, **opts)
    except TypeError as exc:
        raise ValueError(f"workload {name!r}: {exc}") from None
