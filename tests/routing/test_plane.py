"""The closed-form route plane equals the scalar ``route()`` spec.

``RoutePlane.resolve`` (the compiled ``plane_resolve``) is compared hop
for hop and VC for VC with ``_route_via`` — the scalar code the
reference cores and the deadlock verifier run.  Tests that resolve are
skipped on a host without the compiled kernel, where nothing resolves
through a plane either.

A route is a concatenation of label-determined pieces (source-side
segment, channels, transit segments, destination-side segment), so the
tier-1 tests enumerate *label classes*: every ordered pair of C-groups
with every local index on both sides, every pair of nodes inside each
C-group, and every intermediate group for every C-group pair.  The
``slow`` tests enumerate every ordered node pair outright.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest

from repro.core import SwitchlessConfig, build_switchless
from repro.network import native_available
from repro.routing import DragonflyRouting, SwitchlessRouting
from repro.topology.dragonfly import DragonflyConfig, build_dragonfly

SWITCHLESS = {
    "small_equiv": SwitchlessConfig.small_equiv,
    "radix8_equiv": SwitchlessConfig.radix8_equiv,
    # fig12_scalability at default scale
    "fig12": lambda: SwitchlessConfig(
        mesh_dim=5, chiplet_dim=1, num_local=7, num_global=4, num_wgroups=8
    ),
    # fig10_local: W-groups of the radix-16-equivalent system
    "fig10": lambda: SwitchlessConfig.radix16_equiv(
        num_wgroups=2, cgroups_per_wafer=1
    ),
    "small_io": lambda: SwitchlessConfig.small_equiv(
        cgroup_style="io-router"
    ),
}
SWITCHLESS_MODES = [
    ("minimal", "any"), ("valiant", "any"), ("valiant", "lower"),
]
DRAGONFLY = {
    "small_equiv": DragonflyConfig.small_equiv,
    "radix8": DragonflyConfig.radix8,
    # fig10_local's SW-based side
    "fig10": lambda: DragonflyConfig.radix16(g=2),
}

needs_kernel = pytest.mark.skipif(
    not native_available(), reason="RoutePlane.resolve is the compiled kernel"
)


@functools.lru_cache(maxsize=None)
def switchless_system(name):
    return build_switchless(SWITCHLESS[name]())


@functools.lru_cache(maxsize=None)
def dragonfly_system(name):
    return build_dragonfly(DRAGONFLY[name]())


# ----------------------------------------------------------------------
# enumeration and comparison
# ----------------------------------------------------------------------
def cgroups_of(routing):
    """Node ids per C-group (switch-less) or per switch with its
    terminals (Dragonfly: terminals only, switches do not route)."""
    system = routing.system
    if isinstance(routing, SwitchlessRouting):
        return [cg.nodes for row in system.cgroups for cg in row]
    return [
        terms for group in system.terminals for terms in group
    ]


def label_class_triples(routing, num_groups):
    """``(src, dst, via)`` triples covering every label class.

    Meshes above 4x4 (the fig12 geometry) take every fifth local index
    per C-group pair, rotating, to stay inside the tier-1 budget; the
    ``slow`` tests below have no such thinning.
    """
    cgs = cgroups_of(routing)
    L = len(cgs[0])
    stride = 5 if L > 16 else 1
    group_of = routing.system.group_of
    triples = []
    for i, a in enumerate(cgs):
        for j, b in enumerate(cgs):
            if i == j:
                triples += [(s, d, -1) for s in a for d in b]
                continue
            # every local index on both sides, in shifting combinations
            triples += [
                (a[k], b[(k * 3 + i + j) % L], -1)
                for k in range((i + j) % stride, L, stride)
            ]
            if (
                routing.mode == "valiant"
                and group_of(a[0]) != group_of(b[0])
                and (i + 2 * j) % stride == 0
            ):
                k = (i + 2 * j) % L
                triples += [
                    (a[k], b[(k + i) % L], via) for via in range(num_groups)
                ]
    return triples


def all_pair_triples(routing, num_groups):
    """Every ordered node pair, minimal and through every group."""
    nodes = [n for cg in cgroups_of(routing) for n in cg]
    group_of = routing.system.group_of
    for s in nodes:
        for d in nodes:
            yield s, d, -1
            if routing.mode == "valiant" and group_of(s) != group_of(d):
                for via in range(num_groups):
                    yield s, d, via


def assert_plane_equals_route(routing, triples, chunk=200_000):
    """Compare the plane with ``_route_via`` on every triple, a chunk
    at a time (millions of routes do not fit in memory at once)."""
    triples = iter(triples)
    while True:
        part = list(itertools.islice(triples, chunk))
        if not part:
            break
        _assert_chunk_equals_route(routing, part)


def _assert_chunk_equals_route(routing, triples):
    plane = routing.route_plane()
    V = routing.num_vcs
    srcs, dsts, vias = (np.array(col) for col in zip(*triples))
    want_lv, want_hops = [], []
    for s, d, via in triples:
        path = routing._route_via(s, d, None if via < 0 else via)
        want_hops.append(len(path))
        want_lv += [link * V + vc for link, vc in path]
    want_lv = np.array(want_lv)
    want_hops = np.array(want_hops)
    routes = plane.resolve(srcs, dsts, vias)
    assert np.array_equal(routes.hops, want_hops)
    assert np.array_equal(routes.off, np.cumsum(want_hops) - want_hops)
    assert np.array_equal(routes.lv, want_lv)
    if routing.mode == "minimal":
        # via=None is the all-minimal shorthand
        routes = plane.resolve(srcs, dsts)
        assert np.array_equal(routes.lv, want_lv)


def switchless_routings(name):
    system = switchless_system(name)
    return [
        pytest.param(
            SwitchlessRouting(
                system, mode, policy=policy, misroute_scope=scope
            ),
            id=f"{name}-{policy}-{mode}-{scope}",
        )
        for policy in ("baseline", "reduced")
        for mode, scope in SWITCHLESS_MODES
    ]


def dragonfly_routings(name, modes=("minimal", "valiant")):
    system = dragonfly_system(name)
    return [
        pytest.param(
            DragonflyRouting(system, mode, vc_spread=spread),
            id=f"{name}-{mode}-spread{spread}",
        )
        for mode in modes
        for spread in (1, 2)
    ]


ALL_SWITCHLESS = [r for name in SWITCHLESS for r in switchless_routings(name)]
ALL_DRAGONFLY = [r for name in DRAGONFLY for r in dragonfly_routings(name)]


# ----------------------------------------------------------------------
# plane == route()
# ----------------------------------------------------------------------
@needs_kernel
@pytest.mark.parametrize("routing", ALL_SWITCHLESS)
def test_switchless_label_classes(routing):
    assert_plane_equals_route(
        routing,
        label_class_triples(routing, routing.system.num_wgroups),
    )


@needs_kernel
@pytest.mark.parametrize("routing", ALL_DRAGONFLY)
def test_dragonfly(routing):
    # enumerated outright (src == dst included) where that is cheap
    system = routing.system
    triples = (
        label_class_triples
        if system.cfg.num_chips > 100 and routing.mode == "valiant"
        else all_pair_triples
    )
    assert_plane_equals_route(routing, triples(routing, system.num_groups))


@needs_kernel
@pytest.mark.slow
@pytest.mark.parametrize(
    "routing", dragonfly_routings("small_equiv", modes=("valiant",))
)
def test_dragonfly_valiant_all_pairs(routing):
    assert_plane_equals_route(
        routing, all_pair_triples(routing, routing.system.num_groups)
    )


@needs_kernel
@pytest.mark.slow
@pytest.mark.parametrize(
    "routing",
    [
        r
        for name in ("small_equiv", "radix8_equiv", "fig10", "small_io")
        for r in switchless_routings(name)
    ],
)
def test_switchless_all_pairs(routing):
    assert_plane_equals_route(
        routing, all_pair_triples(routing, routing.system.num_wgroups)
    )


@needs_kernel
@pytest.mark.slow
@pytest.mark.parametrize("routing", switchless_routings("fig12")[:1])
def test_fig12_geometry_all_pairs_minimal(routing):
    # 2.56M pairs: the minimal baseline only
    assert_plane_equals_route(
        routing, all_pair_triples(routing, routing.system.num_wgroups)
    )


def test_draw_via_is_the_random_part_of_route():
    """``route()`` == ``_route_via(draw_via())`` with one RNG stream,
    fallback bookkeeping included."""
    system = switchless_system("small_equiv")
    nodes = list(range(system.graph.num_nodes))
    for routing in (
        SwitchlessRouting(system, "valiant"),
        SwitchlessRouting(
            system, "valiant", policy="reduced", misroute_scope="lower"
        ),
        DragonflyRouting(dragonfly_system("small_equiv"), "valiant"),
    ):
        if isinstance(routing, DragonflyRouting):
            nodes = [n for cg in cgroups_of(routing) for n in cg]
        pick = random.Random(3)
        pairs = [(pick.choice(nodes), pick.choice(nodes)) for _ in range(400)]
        a, b = random.Random(5), random.Random(5)
        fallbacks = []
        for draw, rng in ((routing.route, a), (routing.draw_via, b)):
            before = getattr(routing, "fallback_count", 0)
            out = [draw(s, d, rng) for s, d in pairs]
            fallbacks.append(getattr(routing, "fallback_count", 0) - before)
            if draw == routing.route:
                routes = out
        vias = out
        assert a.getstate() == b.getstate()
        assert fallbacks[0] == fallbacks[1]
        assert routes == [
            routing._route_via(s, d, via) for (s, d), via in zip(pairs, vias)
        ]
        assert any(v is not None for v in vias)


@needs_kernel
def test_resolve_rejects_foreign_ids():
    routing = SwitchlessRouting(switchless_system("radix8_equiv"), "valiant")
    plane = routing.route_plane()
    n = routing.system.graph.num_nodes
    with pytest.raises(ValueError, match="node id"):
        plane.resolve([0], [n])
    with pytest.raises(ValueError, match="node id"):
        plane.resolve([-1], [0])
    with pytest.raises(ValueError, match="via"):
        plane.resolve([0], [1], [routing.system.num_wgroups])
    empty = plane.resolve([], [])
    assert empty.lv.size == 0 and empty.off.size == 0


def test_resolve_without_the_kernel_says_so(monkeypatch):
    from repro.network import native

    monkeypatch.setattr(native, "load_native", lambda: None)
    plane = SwitchlessRouting(switchless_system("small_equiv")).route_plane()
    with pytest.raises(RuntimeError, match="compiled kernel"):
        plane.resolve([0], [1])


def test_tables_grow_with_nodes_not_pairs():
    """O(C-groups * mesh^2 + W^2 + W * C^2): three times the W-groups
    (nine times the pairs) costs about three times the bytes."""
    for policy in ("baseline", "reduced"):
        small, large = (
            SwitchlessRouting(
                build_switchless(SwitchlessConfig.small_equiv(num_wgroups=g)),
                policy=policy,
            ).route_plane().table_bytes()
            for g in (3, 9)
        )
        assert large < 4 * small


# ----------------------------------------------------------------------
# scale evidence
# ----------------------------------------------------------------------
@needs_kernel
@pytest.mark.slow
def test_radix32_class_system_beyond_the_old_dense_cap():
    """16,464 endpoints (nn^2 ~ 2.7e8): the plane builds, stays small,
    resolves 100K pairs in one call, and one batch point runs on it."""
    import tracemalloc

    from repro.network import NativeBatch, SimParams
    from repro.traffic import UniformTraffic

    system = build_switchless(SwitchlessConfig.radix32_equiv(num_wgroups=21))
    graph = system.graph
    assert graph.num_nodes == 16464
    routing = SwitchlessRouting(system, "minimal")
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    plane = routing.route_plane()
    built = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    assert plane.table_bytes() < 64 << 20
    assert built < 64 << 20

    pick = np.random.default_rng(7)
    srcs = pick.integers(0, graph.num_nodes, 100_000)
    dsts = pick.integers(0, graph.num_nodes, 100_000)
    routes = plane.resolve(srcs, dsts)
    V = routing.num_vcs
    for i in pick.choice(100_000, 2_000, replace=False).tolist():
        path = routing._route_via(int(srcs[i]), int(dsts[i]), None)
        lo = int(routes.off[i])
        assert routes.lv[lo: lo + int(routes.hops[i])].tolist() == [
            link * V + vc for link, vc in path
        ]

    params = SimParams(warmup_cycles=50, measure_cycles=100, drain_cycles=200)
    batch = NativeBatch(graph, routing, UniformTraffic(graph), params, [1])
    [result] = batch.run([0.05])
    assert result.packets_measured > 0
