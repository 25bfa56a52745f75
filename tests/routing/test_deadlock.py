"""The CDG checker itself: must find cycles where they exist."""

import pytest

from repro.routing.deadlock import verify_deadlock_free
from repro.topology.graph import NetworkGraph


def make_ring(n=4):
    g = NetworkGraph("ring")
    for i in range(n):
        g.add_node("core", chip=i)
    for i in range(n):
        g.add_channel(i, (i + 1) % n, latency=1, klass="sr")
    return g


class ClockwiseRouting:
    """Single-VC clockwise ring routing — the textbook deadlock example."""

    num_vcs = 1

    def __init__(self, g, n):
        self.g, self.n = g, n

    def route(self, src, dst, rng):
        path, cur = [], src
        while cur != dst:
            nxt = (cur + 1) % self.n
            path.append((self.g.link_between(cur, nxt), 0))
            cur = nxt
        return path

    def enumerate_routes(self, src, dst):
        yield self.route(src, dst, None)


class DatelineRouting(ClockwiseRouting):
    """Same ring with a VC dateline at node 0 — deadlock free."""

    num_vcs = 2

    def route(self, src, dst, rng):
        path, cur, vc = [], src, 0
        while cur != dst:
            nxt = (cur + 1) % self.n
            if nxt == 0:
                vc = 1
            path.append((self.g.link_between(cur, nxt), vc))
            cur = nxt
        return path


def test_detects_ring_cycle():
    g = make_ring()
    report = verify_deadlock_free(g, ClockwiseRouting(g, 4))
    assert not report.acyclic
    assert report.cycle is not None
    assert len(report.cycle) == 4
    assert "DEADLOCK" in report.describe(g)


def test_dateline_breaks_cycle():
    g = make_ring()
    report = verify_deadlock_free(g, DatelineRouting(g, 4))
    assert report.acyclic
    assert bool(report) is True
    assert "deadlock-free" in report.describe()


def test_pair_restriction():
    """Cycles need all-to-all; a single pair is trivially acyclic."""
    g = make_ring()
    report = verify_deadlock_free(
        g, ClockwiseRouting(g, 4), pairs=[(0, 2)]
    )
    assert report.acyclic
    assert report.pairs_checked == 1


def test_invalid_paths_caught():
    g = make_ring()

    class Broken(ClockwiseRouting):
        def route(self, src, dst, rng):
            return [(0, 0)]  # ignores src

    with pytest.raises(ValueError):
        verify_deadlock_free(g, Broken(g, 4))


@pytest.mark.parametrize("max_pairs", [0, -3])
def test_empty_sample_is_rejected(max_pairs):
    """Checking no pair proves nothing, so it must not read as acyclic."""
    g = make_ring()
    with pytest.raises(ValueError, match=f"max_pairs .* got {max_pairs}"):
        verify_deadlock_free(g, ClockwiseRouting(g, 4), max_pairs=max_pairs)
