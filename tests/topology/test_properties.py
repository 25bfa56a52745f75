"""Graph property helpers cross-checked on known topologies."""

from repro.topology.graph import NetworkGraph
from repro.topology.mesh import MeshSpec, build_mesh
from repro.topology.properties import (
    average_shortest_path,
    bisection_channels,
    component_summary,
    degree_histogram,
    hop_diameter,
    pair_path_diversity,
    surviving_networkx,
    terminal_diameter,
)


def test_mesh_diameter():
    block = build_mesh(MeshSpec(dim=4))
    assert hop_diameter(block.graph) == 6  # 2*(4-1)
    assert terminal_diameter(block.graph) == 6


def test_average_shortest_path_positive():
    block = build_mesh(MeshSpec(dim=3))
    avg = average_shortest_path(block.graph)
    assert 1.0 < avg < 4.0


def test_bisection_channels_mesh():
    block = build_mesh(MeshSpec(dim=4))
    left = [block.grid[y][x] for y in range(4) for x in range(2)]
    right = [block.grid[y][x] for y in range(4) for x in range(2, 4)]
    # 4 rows x 1 crossing channel x 2 directions
    assert bisection_channels(block.graph, left, right) == 8


def test_bisection_respects_capacity():
    block = build_mesh(MeshSpec(dim=4, capacity=2))
    left = [block.grid[y][x] for y in range(4) for x in range(2)]
    right = [block.grid[y][x] for y in range(4) for x in range(2, 4)]
    assert bisection_channels(block.graph, left, right) == 16


def test_degree_histogram():
    block = build_mesh(MeshSpec(dim=3))
    hist = degree_histogram(block.graph)
    # 4 corners (deg 2), 4 edges (deg 3), 1 centre (deg 4)
    assert hist == {2: 4, 3: 4, 4: 1}


def test_snake_chip_nodes_adjacency():
    """Consecutive chips in snake order share a mesh boundary."""
    block = build_mesh(MeshSpec(dim=4, chiplet_dim=2))
    order = block.snake_chip_nodes()
    assert len(order) == 16
    # chips of 4 nodes each; check chip order is 0,1,3,2 (row-major ids)
    chips = [block.graph.nodes[n].chip for n in order]
    assert chips == [0] * 4 + [1] * 4 + [3] * 4 + [2] * 4


def test_surviving_networkx_drops_failed_channel():
    block = build_mesh(MeshSpec(dim=2))
    a, b = block.grid[0][0], block.grid[0][1]
    dead = block.graph.links_between(a, b) + block.graph.links_between(b, a)
    g = surviving_networkx(block.graph, failed_links=dead)
    assert not g.has_edge(a, b)
    assert g.number_of_edges() == 3
    assert g.number_of_nodes() == 4


def test_surviving_networkx_drops_failed_node_and_its_channels():
    block = build_mesh(MeshSpec(dim=3))
    centre = block.grid[1][1]
    g = surviving_networkx(block.graph, failed_nodes=[centre])
    assert centre not in g
    # 12 channels in a 3x3 mesh, 4 of them touch the centre
    assert g.number_of_edges() == 8


def test_component_summary_healthy_mesh():
    block = build_mesh(MeshSpec(dim=3))
    g = surviving_networkx(block.graph)
    summary = component_summary(g, block.graph.terminals())
    assert summary["connected"]
    assert summary["num_components"] == 1
    assert summary["terminal_reach_fraction"] == 1.0
    assert summary["isolated_terminals"] == 0


def test_component_summary_isolated_corner():
    block = build_mesh(MeshSpec(dim=3))
    corner = block.grid[0][0]
    dead = [
        lid
        for n in (block.grid[0][1], block.grid[1][0])
        for lid in block.graph.links_between(corner, n)
        + block.graph.links_between(n, corner)
    ]
    g = surviving_networkx(block.graph, failed_links=dead)
    summary = component_summary(g, block.graph.terminals())
    assert not summary["connected"]
    assert summary["num_terminal_components"] == 2
    assert summary["largest_component_terminals"] == 8
    assert summary["terminal_reach_fraction"] == 8 / 9
    assert summary["isolated_terminals"] == 1


def test_pair_path_diversity_ring_and_mesh():
    ring = build_mesh(MeshSpec(dim=2))  # a 2x2 mesh is a 4-ring
    g = surviving_networkx(ring.graph)
    assert pair_path_diversity(g, [(0, 3), (1, 2)]) == 2.0
    block = build_mesh(MeshSpec(dim=3))
    g = surviving_networkx(block.graph)
    centre = block.grid[1][1]
    corner = block.grid[0][0]
    # link-disjoint paths are bounded by the corner's two channels
    assert pair_path_diversity(g, [(centre, corner)]) == 2.0


def test_pair_path_diversity_counts_unreachable_as_zero():
    block = build_mesh(MeshSpec(dim=2))
    g = surviving_networkx(block.graph, failed_nodes=[block.grid[0][0]])
    a, b = block.grid[0][1], block.grid[1][1]
    # one reachable pair over a single remaining channel, one dead pair
    assert pair_path_diversity(g, [(a, b), (block.grid[0][0], b)]) == 0.5
    assert pair_path_diversity(g, []) == 0.0


def test_pair_path_diversity_sample_is_seeded():
    block = build_mesh(MeshSpec(dim=4))
    g = surviving_networkx(block.graph)
    terms = block.graph.terminals()
    pairs = [(s, d) for s in terms for d in terms if s != d]
    first = pair_path_diversity(g, pairs, max_pairs=5, seed=3)
    assert first == pair_path_diversity(g, pairs, max_pairs=5, seed=3)
    assert 2.0 <= first <= 4.0
