"""Switch-less routing: Algorithm 1 structure, VC policies, deadlock.

The deadlock section encodes the reproduction's central finding about
Sec. IV-B: the baseline VC scheme is acyclic
everywhere; the reduced scheme is acyclic on IO-router C-groups (where
Property 1(c1) literally holds) and *cyclic* on mesh C-groups with
corner chips — pinned here as expected behaviour, not an accident.
"""

import random

import pytest

from repro.core import SwitchlessConfig, build_switchless
from repro.routing import SwitchlessRouting, verify_deadlock_free
from repro.routing.base import validate_path


def sample_pairs(sys, n=250, seed=0):
    rng = random.Random(seed)
    terms = sys.graph.terminals()
    out = []
    while len(out) < n:
        s, d = rng.choice(terms), rng.choice(terms)
        if s != d:
            out.append((s, d))
    return out


ALL_MODES = [
    ("baseline", "minimal", "any"),
    ("baseline", "valiant", "any"),
    ("reduced", "minimal", "any"),
    ("reduced", "valiant", "any"),
    ("reduced", "valiant", "lower"),
]


class TestPathValidity:
    @pytest.mark.parametrize("policy,mode,scope", ALL_MODES)
    def test_all_paths_valid(self, small_switchless, policy, mode, scope):
        r = SwitchlessRouting(
            small_switchless, mode, policy=policy, misroute_scope=scope
        )
        rng = random.Random(1)
        for s, d in sample_pairs(small_switchless, 150):
            path = r.route(s, d, rng)
            validate_path(small_switchless.graph, s, d, path, num_vcs=r.num_vcs)

    @pytest.mark.parametrize("policy,mode,scope", ALL_MODES)
    def test_io_router_paths_valid(
        self, small_switchless_io, policy, mode, scope
    ):
        r = SwitchlessRouting(
            small_switchless_io, mode, policy=policy, misroute_scope=scope
        )
        rng = random.Random(2)
        for s, d in sample_pairs(small_switchless_io, 150):
            path = r.route(s, d, rng)
            validate_path(
                small_switchless_io.graph, s, d, path, num_vcs=r.num_vcs
            )


class TestAlgorithmOneStructure:
    def test_minimal_channel_counts(self, small_switchless):
        """Minimal routes: <= 1 global, <= 2 local channels (Alg. 1)."""
        sys = small_switchless
        r = SwitchlessRouting(sys, "minimal")
        rng = random.Random(3)
        for s, d in sample_pairs(sys, 200):
            classes = [sys.graph.links[l].klass for l, _ in r.route(s, d, rng)]
            assert classes.count("global") <= 1
            assert classes.count("local") <= 2
            inter = sys.group_of(s) != sys.group_of(d)
            assert classes.count("global") == (1 if inter else 0)

    def test_valiant_channel_counts(self, small_switchless):
        sys = small_switchless
        r = SwitchlessRouting(sys, "valiant")
        rng = random.Random(4)
        for s, d in sample_pairs(sys, 200):
            classes = [sys.graph.links[l].klass for l, _ in r.route(s, d, rng)]
            assert classes.count("global") <= 2
            assert classes.count("local") <= 4

    def test_intra_cgroup_stays_local(self, small_switchless):
        sys = small_switchless
        r = SwitchlessRouting(sys, "minimal")
        cg = sys.cgroup(0, 0)
        s, d = cg.nodes[0], cg.nodes[5]
        classes = [
            sys.graph.links[l].klass
            for l, _ in r.route(s, d, random.Random(0))
        ]
        assert set(classes) <= {"onchip", "sr"}

    def test_valiant_spreads_over_wgroups(self, small_switchless):
        sys = small_switchless
        r = SwitchlessRouting(sys, "valiant")
        rng = random.Random(5)
        s = sys.group_nodes(0)[0]
        d = sys.group_nodes(1)[0]
        mids = set()
        for _ in range(200):
            path = r.route(s, d, rng)
            ws = {sys.group_of(sys.graph.links[l].dst) for l, _ in path}
            mids |= ws - {0, 1}
        assert len(mids) >= sys.num_wgroups - 3


class TestVCCounts:
    """The paper's headline: one extra VC vs the traditional Dragonfly."""

    def test_baseline_counts(self, small_switchless):
        assert SwitchlessRouting(small_switchless, "minimal").num_vcs == 4
        assert SwitchlessRouting(small_switchless, "valiant").num_vcs == 6

    def test_reduced_counts(self, small_switchless):
        assert SwitchlessRouting(
            small_switchless, "minimal", policy="reduced"
        ).num_vcs == 3
        assert SwitchlessRouting(
            small_switchless, "valiant", policy="reduced",
            misroute_scope="any",
        ).num_vcs == 4
        assert SwitchlessRouting(
            small_switchless, "valiant", policy="reduced",
            misroute_scope="lower",
        ).num_vcs == 3


class TestDeadlock:
    def test_baseline_minimal_acyclic(self, small_switchless):
        r = SwitchlessRouting(small_switchless, "minimal")
        rep = verify_deadlock_free(small_switchless.graph, r, max_pairs=800)
        assert rep.acyclic, rep.describe(small_switchless.graph)

    def test_baseline_valiant_acyclic(self, small_switchless):
        r = SwitchlessRouting(small_switchless, "valiant")
        rep = verify_deadlock_free(small_switchless.graph, r, max_pairs=250)
        assert rep.acyclic

    def test_reduced_minimal_acyclic_on_io_router(self, small_switchless_io):
        """Constructive proof of the paper's 3-VC claim (Fig. 8(a))."""
        r = SwitchlessRouting(small_switchless_io, "minimal", policy="reduced")
        rep = verify_deadlock_free(
            small_switchless_io.graph, r, max_pairs=1500
        )
        assert rep.acyclic

    def test_reduced_valiant_any_acyclic_on_io_router(
        self, small_switchless_io
    ):
        r = SwitchlessRouting(
            small_switchless_io, "valiant", policy="reduced",
            misroute_scope="any",
        )
        rep = verify_deadlock_free(small_switchless_io.graph, r, max_pairs=400)
        assert rep.acyclic

    def test_reduced_cyclic_on_mesh_cgroups(self, small_switchless):
        """Documented finding: corner-chip deliveries must share boundary
        links with transit walks, so no strict label order can realise
        Property 1(c1) on a plain mesh and the 3-VC scheme has CDG
        cycles there.  If this ever turns acyclic, the routing changed
        and so must the module docs of repro.routing.switchless and
        this file."""
        r = SwitchlessRouting(small_switchless, "minimal", policy="reduced")
        rep = verify_deadlock_free(small_switchless.graph, r, max_pairs=2500)
        assert not rep.acyclic

    def test_lower_scope_fallback_counted(self, small_switchless):
        r = SwitchlessRouting(
            small_switchless, "valiant", policy="reduced",
            misroute_scope="lower",
        )
        rng = random.Random(7)
        for s, d in sample_pairs(small_switchless, 300):
            r.route(s, d, rng)
        # some source/destination pairs have no monotone intermediate
        assert r.fallback_count > 0


class TestArgs:
    def test_bad_args(self, small_switchless):
        with pytest.raises(ValueError):
            SwitchlessRouting(small_switchless, "wild")
        with pytest.raises(ValueError):
            SwitchlessRouting(small_switchless, "minimal", policy="magic")
        with pytest.raises(ValueError):
            SwitchlessRouting(
                small_switchless, "minimal", misroute_scope="upper"
            )
