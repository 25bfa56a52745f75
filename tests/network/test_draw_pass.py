"""The kernel's draw pass is the scalar pre-pass's draws, bit for bit.

``VecRandom.draw`` (``draw_pass`` in ``_simcore.c``) replays what the
scalar loop of ``CoreBase._resolve_packets`` draws on one stdlib
MT19937 stream: each event's ``dest()``, then ``draw_via()`` for a kept
packet.  Hypothesis drives every pattern that publishes rows against
minimal routing and every intermediate draw (Dragonfly Valiant,
switch-less Valiant baseline/reduced x any/lower) and asserts equal
destinations, intermediates, fallback counts and RNG state afterwards.
The strategies force the stream's edges: heavy rejection
(``n = 2**k + 1``), ``randrange(1)`` (still draws), two groups (no
intermediate), dropped and self events (no intermediate) and batches
that start anywhere in, and cross, a twist.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import build_study
from repro.core import SwitchlessConfig, build_switchless
from repro.network import native_available
from repro.network.corebase import CoreBase
from repro.network.vecrandom import DestRows, VecRandom
from repro.routing import DragonflyRouting, SwitchlessRouting
from repro.topology.dragonfly import DragonflyConfig, build_dragonfly
from repro.traffic import (
    BitReverseTraffic,
    HotspotTraffic,
    UniformTraffic,
    WorstCaseTraffic,
)

pytestmark = pytest.mark.skipif(
    not native_available(), reason="the draw pass is the compiled kernel"
)


class SelfOrUniform(UniformTraffic):
    """Uniform, except that every third scope node sends to itself
    without a draw: the pre-pass drops such a packet, so no
    intermediate may be drawn for it."""

    def _selfish(self, src):
        return self.index.node_index[src] % 3 == 0

    def dest(self, src, rng):
        return src if self._selfish(src) else super().dest(src, rng)

    @property
    def dest_rows(self):
        nodes = self.index.nodes
        selfish = [n for n in nodes if self._selfish(n)]
        rest = [(n, i) for i, n in enumerate(nodes) if not self._selfish(n)]
        return DestRows.build(
            self.graph.num_nodes, [nodes], [n for n, _ in rest], 0,
            [i for _, i in rest], fixed=dict(zip(selfish, selfish)),
        )


@functools.lru_cache(maxsize=None)
def system(name):
    return {
        "sl9": lambda: build_switchless(SwitchlessConfig.radix8_equiv()),
        "sl9x4": lambda: build_switchless(SwitchlessConfig.small_equiv()),
        "sl2": lambda: build_switchless(
            SwitchlessConfig.radix8_equiv(num_wgroups=2)
        ),
        "df9": lambda: build_dragonfly(DragonflyConfig.radix8()),
        "df2": lambda: build_dragonfly(DragonflyConfig.radix8(g=2)),
    }[name]()


def groups(sys_):
    return getattr(sys_, "num_wgroups", None) or sys_.num_groups


ROUTINGS = {
    "minimal": lambda s: (
        SwitchlessRouting(s) if hasattr(s, "num_wgroups")
        else DragonflyRouting(s)
    ),
    "valiant": lambda s: (
        SwitchlessRouting(s, "valiant") if hasattr(s, "num_wgroups")
        else DragonflyRouting(s, "valiant", vc_spread=2)
    ),
    "baseline-lower": lambda s: SwitchlessRouting(
        s, "valiant", misroute_scope="lower"
    ),
    "reduced-any": lambda s: SwitchlessRouting(
        s, "valiant", policy="reduced"
    ),
    "reduced-lower": lambda s: SwitchlessRouting(
        s, "valiant", policy="reduced", misroute_scope="lower"
    ),
}


def pattern(kind, sys_, m):
    """Pattern ``kind`` on ``sys_``; ``m`` sizes the scope of the
    scoped kinds (``m - 1 = 2**k + 1`` rejects heavily, ``m = 2`` is
    ``randrange(1)``, ``m = 1`` drops every event)."""
    graph = sys_.graph
    scope = graph.terminals()[:m]
    g = groups(sys_)
    return {
        "uniform": lambda: UniformTraffic(graph, scope),
        "uniform-chip": lambda: UniformTraffic(graph, exclude="chip"),
        "hotspot": lambda: HotspotTraffic(
            graph, sys_.group_nodes, g, max(2, min(g, m % 5))
        ),
        "worst-case": lambda: WorstCaseTraffic(graph, sys_.group_nodes, g),
        "bit-reverse": lambda: BitReverseTraffic(graph, scope),
        "self": lambda: SelfOrUniform(graph, scope),
    }[kind]()


def scalar(traffic, routing, srcs, rng):
    """The scalar pre-pass's draws (``CoreBase._resolve_packets``)."""
    dsts, vias = [], []
    for s in srcs.tolist():
        d = traffic.dest(s, rng)
        via = None
        if d is not None and d != s:
            via = routing.draw_via(s, d, rng)
        dsts.append(-1 if d is None else d)
        vias.append(-1 if via is None else via)
    return dsts, vias


def check(traffic, routing, srcs, seed, skip_words):
    spec, fast = random.Random(seed), random.Random(seed)
    for rng in (spec, fast):
        for _ in range(skip_words):  # start anywhere in a twist
            rng.getrandbits(32)
    before = getattr(routing, "fallback_count", 0)
    want_dst, want_via = scalar(traffic, routing, srcs, spec)
    fallbacks = getattr(routing, "fallback_count", 0) - before
    via_rows = None if routing.is_deterministic else routing.via_rows
    vr = VecRandom.for_rng(fast)
    dst, via, counted = vr.draw(srcs, traffic.dest_rows, via_rows)
    vr.commit()
    assert dst.tolist() == want_dst
    if via is not None:
        assert via.tolist() == want_via
    else:
        assert set(want_via) <= {-1}
    assert counted == fallbacks
    assert fast.getstate() == spec.getstate()


SYSTEMS = {
    "sl9": list(ROUTINGS),
    "sl9x4": ["minimal", "valiant", "reduced-lower"],
    "sl2": ["valiant", "reduced-lower"],
    "df9": ["minimal", "valiant"],
    "df2": ["valiant"],
}
CASES = [(s, r) for s, routings in SYSTEMS.items() for r in routings]
KINDS = ["uniform", "uniform-chip", "hotspot", "worst-case", "bit-reverse",
         "self"]


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=st.sampled_from(CASES),
    kind=st.sampled_from(KINDS),
    m=st.one_of(
        st.sampled_from([1, 2, 3, 6, 10, 18, 34, 66]),  # 2**k + 2
        st.integers(1, 80),
    ),
    seed=st.integers(0, 2**32 - 1),
    skip_words=st.integers(0, 700),
    n=st.integers(0, 900),
)
def test_draw_pass_is_the_scalar_pre_pass(case, kind, m, seed, skip_words, n):
    sys_name, routing_name = case
    sys_ = system(sys_name)
    traffic = pattern(kind, sys_, m)
    routing = ROUTINGS[routing_name](sys_)
    # the whole scope: a permutation's inactive fixed points drop too
    scope = np.asarray(traffic.index.nodes, dtype=np.int64)
    srcs = np.random.default_rng(seed).choice(scope, n)
    check(traffic, routing, srcs, seed, skip_words)


@pytest.mark.parametrize("sys_name", ["sl9", "df9"])
def test_long_batch_crosses_twists(sys_name):
    """Thousands of events: the stream crosses many twists mid-batch,
    with intermediates interleaved between destinations."""
    sys_ = system(sys_name)
    traffic = UniformTraffic(sys_.graph)
    routing = ROUTINGS["valiant"](sys_)
    active = np.asarray(traffic.active_nodes(), dtype=np.int64)
    srcs = np.random.default_rng(1).choice(active, 5000)
    check(traffic, routing, srcs, 7, 623)


def test_single_node_scope_draws_nothing():
    """``n < 2``: every event drops before any word is drawn."""
    traffic = UniformTraffic(system("sl9").graph, [0])
    rng = random.Random(3)
    state = rng.getstate()
    vr = VecRandom.for_rng(rng)
    dst, _, _ = vr.draw(np.zeros(50, dtype=np.int64), traffic.dest_rows)
    vr.commit()
    assert (dst == -1).all() and rng.getstate() == state


def test_foreign_sources_rejected():
    traffic = UniformTraffic(system("sl9").graph)
    vr = VecRandom.for_rng(random.Random(0))
    n = traffic.graph.num_nodes
    for bad in (-1, n):
        with pytest.raises(ValueError, match="source"):
            vr.draw([bad], traffic.dest_rows)


@pytest.mark.parametrize(
    "study", ["fig13_misrouting", "fig10_local", "fig11_global"]
)
def test_bundled_sweeps_never_take_the_scalar_pre_pass(study, monkeypatch):
    """Every open-loop batch of these studies (Min and Valiant curves,
    hotspot, worst-case and uniform traffic) draws in the kernel."""

    def scalar_pre_pass(self, schedule, ctx):
        raise AssertionError(
            f"scalar pre-pass: {self.traffic.name} over "
            f"{type(self.routing).__name__}"
        )

    monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
    monkeypatch.setattr(CoreBase, "_resolve_packets", scalar_pre_pass)
    build_study(study, "quick").run(workers=1)
