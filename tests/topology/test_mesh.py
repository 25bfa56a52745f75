"""Mesh/switch builders and XY paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.base import validate_path
from repro.topology.mesh import (
    MeshSpec,
    build_mesh,
    build_switch_with_terminals,
    xy_links,
)
from repro.topology.properties import terminal_diameter


class TestMeshSpec:
    def test_chiplet_must_divide(self):
        with pytest.raises(ValueError):
            MeshSpec(dim=4, chiplet_dim=3)

    def test_counts(self):
        s = MeshSpec(dim=4, chiplet_dim=2)
        assert s.num_nodes == 16
        assert s.num_chips == 4
        assert s.chips_per_side == 2

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            MeshSpec(dim=2, capacity=0)

    @pytest.mark.parametrize("dim,chiplet_dim", [(0, 1), (4, 0), (-2, 1)])
    def test_bad_dims_rejected(self, dim, chiplet_dim):
        with pytest.raises(ValueError):
            MeshSpec(dim=dim, chiplet_dim=chiplet_dim)


class TestBuildMesh:
    def test_link_count(self):
        block = build_mesh(MeshSpec(dim=4))
        # 2 * d * (d-1) channels, two directed links each
        assert block.graph.num_links == 2 * 2 * 4 * 3

    def test_chiplet_boundary_classes(self):
        block = build_mesh(MeshSpec(dim=4, chiplet_dim=2))
        counts = block.graph.link_class_counts()
        # per row: 3 x-links, 1 crossing a chiplet boundary; same for cols
        assert counts["sr"] == 2 * 4 * 1 * 2
        assert counts["onchip"] == 2 * 4 * 2 * 2

    def test_chip_blocks(self):
        block = build_mesh(MeshSpec(dim=4, chiplet_dim=2), chip_base=10)
        chips = block.graph.chips()
        assert sorted(chips) == [10, 11, 12, 13]
        assert all(len(nodes) == 4 for nodes in chips.values())

    def test_perimeter_clockwise(self):
        block = build_mesh(MeshSpec(dim=3))
        perim = block.perimeter_nodes()
        coords = [block.coords[n] for n in perim]
        assert coords == [
            (0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0),
        ]

    def test_perimeter_adjacent_pairs(self):
        block = build_mesh(MeshSpec(dim=5))
        perim = block.perimeter_nodes()
        for a, b in zip(perim, perim[1:] + perim[:1]):
            ya, xa = block.coords[a]
            yb, xb = block.coords[b]
            assert abs(ya - yb) + abs(xa - xb) == 1

    def test_dim1(self):
        block = build_mesh(MeshSpec(dim=1))
        assert block.perimeter_nodes() == [block.grid[0][0]]
        assert block.graph.num_links == 0

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_perimeter_visits_each_edge_node_once(self, dim):
        block = build_mesh(MeshSpec(dim=dim))
        perim = block.perimeter_nodes()
        assert len(perim) == len(set(perim)) == 4 * (dim - 1)
        for n in perim:
            y, x = block.coords[n]
            assert y in (0, dim - 1) or x in (0, dim - 1)

    def test_link_latency_and_energy_follow_class(self):
        spec = MeshSpec(dim=4, chiplet_dim=2, sr_latency=3, onchip_latency=1)
        block = build_mesh(spec)
        for link in block.graph.links:
            (y0, x0), (y1, x1) = block.coords[link.src], block.coords[link.dst]
            if (y0 // 2, x0 // 2) != (y1 // 2, x1 // 2):
                assert (link.klass, link.latency) == ("sr", 3)
            else:
                assert (link.klass, link.latency) == ("onchip", 1)

    def test_build_into_shared_graph(self):
        first = build_mesh(MeshSpec(dim=2))
        second = build_mesh(
            MeshSpec(dim=2), first.graph,
            chip_base=4, coord_prefix=(7,), node_kind="router",
        )
        assert second.graph is first.graph
        assert first.graph.num_nodes == 8
        assert second.chips == [4, 5, 6, 7]
        assert set(second.coords).isdisjoint(first.coords)
        node = first.graph.nodes[second.grid[1][0]]
        assert node.coords == (7, 1, 0)
        assert node.kind == "router"
        # the two blocks are not linked to each other
        assert not any(
            first.graph.has_link(a, b)
            for a in first.coords for b in second.coords
        )

    @pytest.mark.parametrize("dim,chiplet_dim", [(6, 2), (6, 3), (4, 1)])
    def test_snake_chip_order_covers_mesh_with_adjacent_chips(
        self, dim, chiplet_dim
    ):
        block = build_mesh(MeshSpec(dim=dim, chiplet_dim=chiplet_dim))
        order = block.snake_chip_nodes()
        assert sorted(order) == sorted(block.coords)
        chips = [block.graph.nodes[n].chip for n in order[::chiplet_dim ** 2]]
        cps = block.spec.chips_per_side
        for a, b in zip(chips, chips[1:]):
            (ra, ca), (rb, cb) = divmod(a, cps), divmod(b, cps)
            assert abs(ra - rb) + abs(ca - cb) == 1


class TestXYLinks:
    @given(
        dim=st.integers(2, 6),
        src=st.integers(0, 35),
        dst=st.integers(0, 35),
    )
    @settings(max_examples=60, deadline=None)
    def test_xy_paths_valid_and_shortest(self, dim, src, dst):
        src %= dim * dim
        dst %= dim * dim
        block = build_mesh(MeshSpec(dim=dim))
        path = [(lid, 0) for lid in xy_links(block, src, dst)]
        validate_path(block.graph, src, dst, path)
        sy, sx = block.coords[src]
        dy, dx = block.coords[dst]
        assert len(path) == abs(sy - dy) + abs(sx - dx)

    def test_xy_same_node_is_empty(self):
        block = build_mesh(MeshSpec(dim=3))
        assert xy_links(block, 4, 4) == []

    def test_xy_crosses_chiplet_boundaries_on_sr_links(self):
        block = build_mesh(MeshSpec(dim=4, chiplet_dim=2))
        links = xy_links(block, block.grid[0][0], block.grid[3][3])
        klasses = [block.graph.links[lid].klass for lid in links]
        assert klasses == ["onchip", "sr", "onchip"] * 2

    def test_xy_goes_x_first(self):
        block = build_mesh(MeshSpec(dim=3))
        links = xy_links(block, block.grid[0][0], block.grid[2][2])
        first = block.graph.links[links[0]]
        assert block.coords[first.dst] == (0, 1)


class TestSwitchBlock:
    def test_structure(self):
        sw = build_switch_with_terminals(6)
        assert len(sw.terminals) == 6
        assert sw.graph.degree_out(sw.switch) == 6
        assert not sw.graph.nodes[sw.switch].is_terminal
        sw.graph.validate()

    def test_terminal_links_and_chips(self):
        sw = build_switch_with_terminals(
            4, terminal_latency=5, capacity=2, chip_base=8,
        )
        assert sorted(sw.graph.chips()) == [8, 9, 10, 11]
        for link in sw.graph.links:
            assert link.klass == "terminal"
            assert (link.latency, link.capacity) == (5, 2)
            assert sw.switch in (link.src, link.dst)
        assert terminal_diameter(sw.graph) == 2
