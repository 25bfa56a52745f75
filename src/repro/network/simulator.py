"""Cycle-accurate flit-level network simulator with virtual channels.

This is the reproduction's substitute for CNSim [72]: an input-buffered,
credit-flow-controlled, wormhole virtual-channel simulator.  The model
per cycle is:

1. *Credit return* — credits released ``link latency`` cycles ago arrive
   back at the upstream arbiter.
2. *Flit arrival* — flits that finished traversing a link (+ router
   pipeline) are appended to the downstream input buffer of their
   ``(link, VC)`` pair.
3. *Injection* — every active terminal starts a packet as a Bernoulli
   process with probability ``rate / (packet_length * nodes_per_chip)``
   per cycle (rate in the paper's flits/cycle/chip unit).  The process
   is sampled up front into an injection schedule (geometric
   inter-arrival gaps — same law, vectorized; see
   :mod:`repro.network.schedule`).
4. *Arbitration* — for every router with pending input flits, head flits
   request their next output.  Each output link grants up to
   ``capacity`` flits per cycle, round-robin over requesting inputs,
   subject to downstream credits and wormhole VC ownership (an output VC
   is owned by one packet from head-flit grant until tail-flit grant,
   which keeps packets contiguous per VC).  Ejection ports grant up to
   ``ejection_width`` flits per cycle.

Packets are source routed (see :mod:`repro.network.packet`): contention,
buffer occupancy, credit stalls and VC ownership — the phenomena the
paper's latency/throughput figures measure — are fully simulated, while
route *choice* is made at injection, exactly as the paper's oblivious
minimal/non-minimal algorithms do.

Fault handling: every core drops a packet-start event whose traffic
pattern returns ``dest(...) is None`` — the hook
:class:`repro.faults.FaultMaskedTraffic` uses to mask failed endpoints
(dead terminals are additionally absent from ``active_nodes()``, so the
injection schedule samples no events for them).  Failed *links* never
appear in routes because :class:`repro.faults.FaultAwareRouting` routes
around them; the simulator arrays keep the healthy graph's link ids, so
degraded and healthy runs share the same core machinery.

:class:`Simulator` is a thin facade over two interchangeable loops under
one front end.  :class:`~repro.network.corebase.CoreBase` turns
``(rate, seed)`` into packets with routes — schedule, destination and
route are drawn once, before the loop, by the same code on both cores —
and each core adds only its implementation of the per-cycle model:

* :class:`~repro.network.native.NativeCore` (default when a C compiler
  is present) — the struct-of-arrays loop compiled on demand from
  ``_simcore.c``, open-loop and closed-loop (the kernel's plan mode
  owns phase release).
* :class:`~repro.network.refcore.ReferenceCore` — the object-based
  loop, kept as the executable specification of the router model and
  the fallback on hosts without a C compiler.

A closed-loop run (``run(rate, plan=...)``, see
:mod:`repro.workload.driver`) goes through the same front end: the
plan's template events are packet rows with routes before the loop
starts, and only their release is dynamic — counters in the kernel,
``PhasePlan.begin/packet_done/flush`` under the reference loop, which
is the specification the kernel is tested against.

Select explicitly with ``Simulator(..., core="reference")`` or globally
via the ``REPRO_SIM_CORE`` environment variable.  For the same
``(graph, routing, traffic, params, rate)`` both cores return identical
results and probe channels, whether or not an
:class:`~repro.network.schedule.InjectionSchedule` is pinned
(``tests/network/test_core_equivalence.py``), or a plan given
(``tests/workload/test_closed_loop_identity.py``).
"""

from __future__ import annotations

import os
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence
from typing import Tuple, Union

from ..metrics.probe import Probe, build_probes
from ..obs import trace as obs_trace
from ..topology.graph import NetworkGraph
from .native import native_available
from .params import SimParams
from .schedule import InjectionSchedule
from .stats import CurveResult, PointResult, SimResult, cutoff_walk

if TYPE_CHECKING:
    from ..metrics.record import RunRecord

__all__ = [
    "CORE_ENV",
    "Simulator",
    "find_saturation",
    "resolve_core",
    "run_batch",
    "sweep_rates",
]

#: environment override for the default simulation core.
CORE_ENV = "REPRO_SIM_CORE"

#: core name -> (module, class); a core's module loads when a run picks it.
_CORES = {
    "native": (".native", "NativeCore"),
    "reference": (".refcore", "ReferenceCore"),
}
#: other accepted spellings.  "array" named a third, pure-Python core;
#: it stays only because bench/layers.py ``_cores`` still asks for it,
#: and goes with that call in ROADMAP item 1(a).
_ALIASES = {"ref": "reference", "array": "reference"}


def _core_class(name: str):
    module, cls = _CORES[name]
    return getattr(import_module(module, __package__), cls)


def resolve_core(core: Optional[str] = None) -> str:
    """The core a run will use: ``"native"`` or ``"reference"``.

    An explicit name wins, then ``REPRO_SIM_CORE``, then the native
    core when it can be compiled, else the reference core.  This is the
    only reader of the variable, so :class:`Simulator`,
    :func:`run_batch` and the engine always agree on the answer.
    Asking for the native core by name on a host that cannot compile
    it is a :class:`ValueError`, like any other unusable value.
    """
    source = "simulation core"
    if core is None:
        core = os.environ.get(CORE_ENV) or None
        source = CORE_ENV
    if core is None:
        return "native" if native_available() else "reference"
    name = _ALIASES.get(core, core)
    if name not in _CORES:
        raise ValueError(
            f"unknown {source} {core!r}; "
            f"expected one of {sorted(_CORES)}"
        )
    if name == "native" and not native_available():
        raise ValueError(
            f"{source} {core!r} needs a C compiler and none was found "
            "(or the kernel failed to build); use 'reference', or "
            f"leave {CORE_ENV} unset to fall back automatically"
        )
    return name


class Simulator:
    """One simulation run binding a graph, routing and traffic.

    A simulator runs once, like the core under it: a second
    :meth:`run` raises :data:`~repro.network.corebase.SINGLE_RUN`.
    Build a fresh ``Simulator`` per point (the engine always does).

    Parameters
    ----------
    graph:
        The router network.
    routing:
        Object exposing ``num_vcs`` and ``route(src, dst, rng) ->
        [(link_id, vc), ...]``.
    traffic:
        Object exposing ``active_nodes()``, ``dest(src, rng)`` and
        ``num_active_chips()`` (see :mod:`repro.traffic.base`).
    params:
        Router/measurement knobs (Table IV defaults).
    core:
        ``"native"`` or ``"reference"``; ``None`` reads the
        ``REPRO_SIM_CORE`` environment variable, then picks the native
        core when it can be compiled, else the reference core.
    probes:
        Optional metric probes (see :mod:`repro.metrics`): a sequence
        of :class:`~repro.metrics.Probe` instances and/or registered
        kind names.  With probes attached, :meth:`run` additionally
        decodes the core's post-run record into typed channels stored
        on ``SimResult.channels`` (and keeps the record itself on
        :attr:`last_record`).  Without probes nothing is recorded and
        results are bit-identical to a probe-less build.
    """

    def __init__(
        self,
        graph: NetworkGraph,
        routing,
        traffic,
        params: SimParams,
        *,
        core: Optional[str] = None,
        probes: Optional[Sequence[Union[Probe, str]]] = None,
    ) -> None:
        self.core_name = resolve_core(core)
        self._core = _core_class(self.core_name)(
            graph, routing, traffic, params
        )
        self.probes: List[Probe] = build_probes(probes)
        #: the most recent run's :class:`~repro.metrics.RunRecord`
        #: (``None`` until a probed run happened).
        self.last_record: Optional[RunRecord] = None
        if self.probes:
            self._core.enable_probes()

    # -- construction-time bindings (read-only conveniences) -----------
    @property
    def graph(self) -> NetworkGraph:
        return self._core.graph

    @property
    def routing(self):
        return self._core.routing

    @property
    def traffic(self):
        return self._core.traffic

    @property
    def params(self) -> SimParams:
        return self._core.params

    @property
    def num_vcs(self) -> int:
        return self._core.num_vcs

    # -- the simulation -------------------------------------------------
    def make_schedule(self, rate: float) -> InjectionSchedule:
        """Sample the injection schedule ``run(rate)`` would use.

        Consumes the core's numpy RNG, so either pass the result back
        into :meth:`run` (pinned mode) or use a fresh ``Simulator``.
        """
        return self._core.make_schedule(rate)

    def run(
        self,
        rate: float,
        schedule: Optional[InjectionSchedule] = None,
        plan=None,
    ) -> SimResult:
        """Run the full warmup+measure+drain window at ``rate``.

        ``rate`` is offered load in flits/cycle/chip over the traffic
        pattern's active chips.  ``schedule`` pins the packet-start
        events; by default the core samples its own.  ``plan`` switches
        to closed-loop mode (see
        :class:`~repro.workload.driver.PhasePlan`): injections follow
        the plan's phase releases, the window is the plan's
        ``[0, horizon())`` whatever ``params`` says, and the run ends
        when the last phase drains.

        With probes attached, each probe decodes the run's record into
        one channel on the returned result — strictly after the core
        finished, so the simulated numbers are unaffected.
        """
        result = self._core.run(rate, schedule=schedule, plan=plan)
        if self.probes:
            self.last_record = _collect_channels(
                self._core, rate, self.probes, result
            )
        return result

    # -- conservation bookkeeping ---------------------------------------
    @property
    def total_flits_injected(self) -> int:
        return self._core.total_flits_injected

    @property
    def total_flits_ejected(self) -> int:
        return self._core.total_flits_ejected

    def flits_in_flight(self) -> int:
        """Flits currently buffered or on wires (conservation checks)."""
        return self._core.flits_in_flight()


def _collect_channels(core, rate, probes, result) -> RunRecord:
    """Decode ``core``'s finished run into one channel per probe on
    ``result``; returns the record the probes read."""
    with obs_trace.span("probe.decode", rate=rate) as decode:
        record = core.run_record(rate)
        for probe in probes:
            channel = probe.collect(record)
            result.channels[channel.name] = channel
        # decode cost per hop: the run's measured delivered packets and
        # the route hops gathered for them
        delivered = record.measured_delivered_pids()
        decode.set(
            packets=int(delivered.size),
            hops=int(record.p_hops[delivered].sum()),
        )
    return record


def run_batch(
    graph: NetworkGraph,
    routing,
    traffic,
    params: SimParams,
    lanes: Sequence[Tuple[int, float]],
    *,
    core: Optional[str] = None,
    probes: Optional[Sequence[Union[Probe, str]]] = None,
    schedules: Optional[Sequence[InjectionSchedule]] = None,
    plans: Optional[Sequence] = None,
    stop_after: Optional[int] = None,
) -> List[SimResult]:
    """Simulate N replica lanes of one configuration, one after another.

    ``lanes`` is a sequence of ``(seed, rate)`` pairs; lane ``i`` is a
    fresh :class:`Simulator` over the shared ``graph``/``routing``/
    ``traffic`` with ``params`` reseeded to ``lanes[i][0]``, so results
    are those of each lane run on its own.  What lanes share is the
    routing (its closed-form plane, or its route table with each pair
    resolved once) and the graph's link and probe tables.  Each lane is dropped as soon as its result
    (and, with ``probes``, its channels) is read back, so one lane's
    packets and kernel state are alive at a time.  The engine's process
    pool runs batches side by side.

    ``core`` resolves as in :func:`resolve_core`.  ``probes`` may be
    instances, kind names or ``(name, options)`` pairs; channels land
    on each lane's ``SimResult.channels``.

    ``plans`` makes the lanes closed-loop: lane ``i`` runs ``plans[i]``
    (a fresh :class:`~repro.workload.driver.PhasePlan` each) paced at
    its rate.  A lane whose plan did not drain inside its horizon
    raises :class:`RuntimeError` naming the stuck phases.

    ``stop_after`` = k makes the lanes a curve's rates, cut after k
    saturated points (:func:`~repro.network.stats.cutoff_walk`): the
    results end at the k-th saturated lane, and no lane after it runs.

    A lane whose core fails raises :class:`RuntimeError` naming the
    lane and its rate.
    """
    lanes = list(lanes)
    for name, per_lane in (("schedules", schedules), ("plans", plans)):
        if per_lane is not None and len(per_lane) != len(lanes):
            raise ValueError(
                f"{len(per_lane)} {name} for {len(lanes)} lanes"
            )
    core = resolve_core(core)
    built = build_probes(probes)
    # span attribute only: what the lanes run when they are closed-loop
    workload = plans[0].workload.name if plans else None
    results: List[SimResult] = []
    saturated = 0
    with obs_trace.span(
        "kernel.run", lanes=len(lanes), core=core, workload=workload
    ):
        for i, (seed, rate) in enumerate(lanes):
            try:
                results.append(Simulator(
                    graph,
                    routing,
                    traffic,
                    params.scaled(seed=int(seed)),
                    core=core,
                    probes=built,
                ).run(
                    rate,
                    schedule=schedules[i] if schedules is not None else None,
                    plan=plans[i] if plans is not None else None,
                ))
            except RuntimeError as err:
                raise RuntimeError(f"lane {i} (rate {rate:g}): {err}") from err
            saturated += results[-1].saturated
            if stop_after and saturated >= stop_after:
                break
    for plan in (plans or ())[:len(results)]:
        plan.check_drained()
    return results


def sweep_rates(
    graph: NetworkGraph,
    routing,
    traffic,
    rates: Sequence[float],
    params: Optional[SimParams] = None,
    *,
    label: str = "",
    stop_after_saturation: int = 1,
) -> CurveResult:
    """One latency-vs-load curve: each offered rate on a fresh
    :class:`Simulator`, in order, cut off after
    ``stop_after_saturation`` saturated points.

    The direct, object-level walk.  :func:`repro.engine.
    run_experiments` applies the same cutoff (:func:`~repro.network.
    stats.cutoff_walk`) to specs it can rebuild in worker processes,
    several rates per batch, with caching.
    """
    params = params or SimParams()
    rates = [float(r) for r in rates]
    results: Dict[int, SimResult] = {}
    while True:
        complete, n = cutoff_walk(len(rates), results, stop_after_saturation)
        if complete:
            break
        results[n] = Simulator(graph, routing, traffic, params).run(rates[n])
    return CurveResult(
        label=label,
        points=tuple(PointResult(rates[ri], results[ri]) for ri in range(n)),
    )


def find_saturation(
    graph_factory: Callable[[], Tuple[NetworkGraph, object, object]],
    *,
    params: Optional[SimParams] = None,
    lo: float = 0.05,
    hi: float = 4.0,
    tol: float = 0.05,
    max_iter: int = 12,
) -> float:
    """Bisect for the saturation injection rate (flits/cycle/chip).

    ``graph_factory`` returns a fresh ``(graph, routing, traffic)`` triple
    per probe so simulator state never leaks between probes.  Returns the
    highest rate that is *not* saturated, within ``tol``.
    """
    params = params or SimParams()

    def probe(rate: float) -> bool:
        graph, routing, traffic = graph_factory()
        return Simulator(graph, routing, traffic, params).run(rate).saturated

    if probe(lo):
        return 0.0
    if not probe(hi):
        return hi
    good, bad = lo, hi
    for _ in range(max_iter):
        if bad - good <= tol:
            break
        mid = 0.5 * (good + bad)
        if probe(mid):
            bad = mid
        else:
            good = mid
    return good
