"""Node/port labeling and up/down channel typing (Sec. IV-B).

Definition 1 (paper): a channel from node ``(w_i, c_i, n_i)`` to
``(w_j, c_j, n_j)`` is **up** iff the source tuple is lexicographically
smaller; a path is *legal* for up*/down* routing when it never uses an up
channel after a down channel.

The labeling implemented here is the ring-peel labeling (the paper's
Fig. 8(b)/(c) family): node labels increase from the centre of the mesh
outwards, with every ring labeled consecutively clockwise, so that

* perimeter nodes carry the highest labels, consecutive along the
  clockwise boundary walk (seam between the last and first position);
* ports (labeled ``mesh_dim**2 + rank``) sit above all nodes, satisfying
  "ports consistently ordered and higher than the cores";
* a monotone (all-up or all-down) walk exists between any two perimeter
  positions by walking the boundary on the arc that avoids the seam —
  this is the constructive form of Property 1(c2).

Reproduction note: Property 1(c1) as literally stated — a label-monotone
*down-only* path from every port to every core — is unsatisfiable for any
total node order (a down path cannot end at a node labeled higher than
its start).  The paper itself defers intra-mesh details ("beyond the
scope of this paper", Sec. IV-C).  Our VC-reduced routing therefore
delivers port->core segments on the spare VC-0 mesh class instead (see
:mod:`repro.routing.switchless`), which the CDG checker proves safe; the
functions below quantify exactly how much of c1 a labeling satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = [
    "ring_peel_labels",
    "CGroupLabeling",
    "downonly_reachable_fraction",
]


def ring_peel_labels(dim: int) -> List[List[int]]:
    """Node labels for a ``dim x dim`` mesh, centre-out ring peeling.

    Returns ``labels[y][x]``.  The outermost ring holds the largest
    labels, consecutive clockwise starting at the top-left corner; each
    inner ring continues the same scheme with smaller labels.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    labels = [[-1] * dim for _ in range(dim)]
    total = dim * dim
    top, left = 0, 0
    bottom, right = dim - 1, dim - 1
    next_high = total  # labels of the current ring end at next_high - 1
    while top <= bottom and left <= right:
        ring: List[Tuple[int, int]] = []
        if top == bottom:
            ring = [(top, x) for x in range(left, right + 1)]
        elif left == right:
            ring = [(y, left) for y in range(top, bottom + 1)]
        else:
            for x in range(left, right + 1):
                ring.append((top, x))
            for y in range(top + 1, bottom + 1):
                ring.append((y, right))
            for x in range(right - 1, left - 1, -1):
                ring.append((bottom, x))
            for y in range(bottom - 1, top, -1):
                ring.append((y, left))
        base = next_high - len(ring)
        for i, (y, x) in enumerate(ring):
            labels[y][x] = base + i
        next_high = base
        top += 1
        left += 1
        bottom -= 1
        right -= 1
    assert next_high == 0
    return labels


@dataclass
class CGroupLabeling:
    """Labels of one C-group: nodes by ring peeling, ports above nodes."""

    dim: int
    #: labels[y][x] for nodes.
    node_labels: List[List[int]]
    #: port rank -> label (mesh_dim**2 + rank).
    port_labels: List[int]

    @classmethod
    def build(cls, dim: int, num_ports: int) -> "CGroupLabeling":
        node_labels = ring_peel_labels(dim)
        base = dim * dim
        return cls(dim, node_labels, [base + r for r in range(num_ports)])

    def label_at(self, y: int, x: int) -> int:
        return self.node_labels[y][x]

    def is_up_mesh_hop(self, a: Tuple[int, int], b: Tuple[int, int]) -> bool:
        """Whether the mesh hop from grid coord ``a`` to ``b`` is up."""
        return self.label_at(*a) < self.label_at(*b)


def downonly_reachable_fraction(
    labels: Sequence[Sequence[int]], start: Tuple[int, int]
) -> float:
    """Fraction of nodes reachable from ``start`` by label-decreasing hops.

    Quantifies Property 1(c1) for a given attachment point: 1.0 would mean
    the literal paper property holds from there.  With ring-peel labels
    the reachable set is large for high-label attachments but can never
    include nodes labeled above the start — see the module docstring.
    """
    dim = len(labels)
    seen = {start}
    stack = [start]
    while stack:
        y, x = stack.pop()
        here = labels[y][x]
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ny, nx = y + dy, x + dx
            if 0 <= ny < dim and 0 <= nx < dim and (ny, nx) not in seen:
                if labels[ny][nx] < here:
                    seen.add((ny, nx))
                    stack.append((ny, nx))
    return len(seen) / (dim * dim)
