"""Canonical 16-vertex target graphs and small-graph utilities.

Two graphs are decomposed by this package: the Shrikhande graph and the
line graph of K_{4,4}.  Both are 6-regular on 16 vertices with 48 edges
and share the strong regularity parameters srg(16, 6, 2, 2), yet they are
not isomorphic: the neighbourhood of a vertex induces a 6-cycle in one
and two disjoint triangles in the other (so L(K_{4,4}) has 8 K_4
subgraphs and the Shrikhande graph none).  Each edge table is tied to the
definition of its graph, a Cayley graph on Z_4^2, by a stored vertex map
(DEFINITIONS), which matches_definition checks in one set comparison.

Vertices are numbered 1..16 throughout, and every labelled 16-tuple used
elsewhere in the package indexes this numbering: position i of a tuple is
the label attached to vertex i.  A list of such tuples (the blocks of a
design or a certificate) is held as one read-only (B, 16) int32 array;
as_block_array makes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable

import numpy as np


class TargetId(str, Enum):
    """Identifier of a canonical target graph; the value is the file token."""

    SHRIKHANDE = "shrikhande"
    LINE_K44 = "lk44"


# Edge set of the Shrikhande graph on vertices 1..16.
SHRIKHANDE_EDGES: tuple[tuple[int, int], ...] = (
    (1, 2), (1, 4), (1, 5), (1, 8), (1, 13), (1, 14), (2, 3), (2, 5),
    (2, 6), (2, 14), (2, 15), (3, 4), (3, 6), (3, 7), (3, 15), (3, 16),
    (4, 7), (4, 8), (4, 13), (4, 16), (5, 6), (5, 8), (5, 9), (5, 12),
    (6, 7), (6, 9), (6, 10), (7, 8), (7, 10), (7, 11), (8, 11), (8, 12),
    (9, 10), (9, 12), (9, 13), (9, 16), (10, 11), (10, 13), (10, 14), (11, 12),
    (11, 14), (11, 15), (12, 15), (12, 16), (13, 14), (13, 16), (14, 15), (15, 16),
)

# Edge set of the line graph of K_{4,4} on vertices 1..16.
LINE_K44_EDGES: tuple[tuple[int, int], ...] = (
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4),
    (2, 8), (2, 11), (2, 12), (3, 4), (3, 9), (3, 13), (3, 15), (4, 10),
    (4, 14), (4, 16), (5, 6), (5, 7), (5, 8), (5, 9), (5, 10), (6, 7),
    (6, 11), (6, 13), (6, 14), (7, 12), (7, 15), (7, 16), (8, 9), (8, 10),
    (8, 11), (8, 12), (9, 10), (9, 13), (9, 15), (10, 14), (10, 16), (11, 12),
    (11, 13), (11, 14), (12, 15), (12, 16), (13, 14), (13, 15), (14, 16), (15, 16),
)


class GraphError(ValueError):
    """A graph value violates its structural invariants."""


_INT32 = np.iinfo(np.int32)


def as_block_array(blocks, width: int = 16) -> np.ndarray:
    """Blocks as one read-only, C-contiguous (B, width) int32 array.

    An int32 array is taken over, not copied.  Raises ValueError unless
    every block has `width` labels and every label fits in int32.
    """
    arr = np.asarray(blocks)
    if arr.shape == (0,):
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"blocks must be rows of {width} labels, got shape {arr.shape}")
    if arr.size and arr.dtype != np.int32:
        if not _INT32.min <= arr.min() <= arr.max() <= _INT32.max:
            raise ValueError("block labels must fit in int32")
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SmallGraph:
    """An undirected simple graph on vertices 1..vertex_count (at most 64).

    Stored both as a sorted edge tuple and as per-vertex adjacency bitmasks,
    the masks built from the checked edges: loops, vertices outside
    1..vertex_count and repeated edges are rejected.  Bit v of
    ``adjacency[u]`` is set iff {u, v} is an edge.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[int, ...] = field(compare=False)

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if not 1 <= vertex_count <= 64:
            raise GraphError(f"vertex count {vertex_count} outside 1..64")
        canon = []
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise GraphError(f"edge ({u},{v}) outside 1..{vertex_count}")
            canon.append((u, v) if u < v else (v, u))
        if len(set(canon)) != len(canon):
            raise GraphError("repeated edge")
        canon.sort()
        masks = [0] * (vertex_count + 1)
        for u, v in canon:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "adjacency", tuple(masks))

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)


@dataclass(frozen=True)
class TargetGraph:
    """One of the two canonical decomposition targets.

    Construction checks that the graph is strongly regular with parameters
    srg(16, 6, 2, 2), which implies 16 vertices, 48 edges and 6-regularity.
    """

    id: TargetId
    graph: SmallGraph

    def __post_init__(self) -> None:
        params = srg_parameters(self.graph)
        if params != (16, 6, 2, 2):
            raise GraphError(f"target graph must be srg(16, 6, 2, 2), got {params}")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.graph.edges

    @cached_property
    def edge_ends(self) -> np.ndarray:
        """The read-only (2, 48) array of the 0-based positions at the two
        ends of each edge, built once per graph."""
        ends = np.array(list(zip(*self.edges)), dtype=np.intp) - 1
        ends.flags.writeable = False
        return ends


def shrikhande() -> TargetGraph:
    """The Shrikhande graph with its fixed vertex numbering."""
    return _TARGETS[TargetId.SHRIKHANDE]


def line_k44() -> TargetGraph:
    """The line graph of K_{4,4} with its fixed vertex numbering."""
    return _TARGETS[TargetId.LINE_K44]


def target_graph(target: TargetId) -> TargetGraph:
    """Look up a canonical target by id."""
    return _TARGETS[TargetId(target)]


def srg_parameters(g: SmallGraph) -> tuple[int, int, int, int] | None:
    """Return (v, k, lambda, mu) if g is strongly regular, else None.

    Requires regularity, a constant common-neighbour count lambda over
    adjacent pairs and mu over non-adjacent pairs, with at least one pair
    of each kind so both counts are determined.
    """
    n = g.vertex_count
    degrees = {g.degree(v) for v in range(1, n + 1)}
    lam: set[int] = set()
    mu: set[int] = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            common = (g.adjacency[u] & g.adjacency[v]).bit_count()
            (lam if g.has_edge(u, v) else mu).add(common)
    if len(degrees) != 1 or len(lam) != 1 or len(mu) != 1:
        return None
    return (n, degrees.pop(), lam.pop(), mu.pop())


def k4_count(g: SmallGraph) -> int:
    """The number of K_4 subgraphs of an srg(v, k, 2, mu), an isomorphism
    invariant: each edge has two common neighbours and closes a K_4 iff
    they are adjacent, and a K_4 has six edges."""
    closing = 0
    for u, v in g.edges:
        common = g.adjacency[u] & g.adjacency[v]
        closing += bool(common & g.adjacency[common.bit_length() - 1])
    return closing // 6


# Each target by its definition, a Cayley graph on Z_4^2 in which two
# elements are adjacent iff they differ by a step, and its witness: for
# table vertex v = 1..16, the code 4a + b of the element (a, b) v maps to
DEFINITIONS: dict[TargetId, tuple[str, set[tuple[int, int]], tuple[int, ...]]] = {
    TargetId.SHRIKHANDE: ("Cay(Z_4^2, ±(1,0), ±(0,1), ±(1,1))",
                          {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)},
                          (0, 1, 2, 3, 5, 6, 7, 4, 10, 11, 8, 9, 15, 12, 13, 14)),
    # the 4x4 rook's graph: a move along a row or a column
    TargetId.LINE_K44: ("K_4 □ K_4", {(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)},
                        (0, 1, 2, 3, 4, 8, 12, 5, 6, 7, 9, 13, 10, 11, 14, 15)),
}


def matches_definition(target: TargetId) -> bool:
    """Whether the target's edge table is the graph of its definition
    (DEFINITIONS) under the stored witness: the codes are a permutation of
    0..15, so vertex v -> codes[v-1] is a bijection onto Z_4^2, and the
    table's edges are exactly the pairs whose codes differ by a step."""
    _, steps, codes = DEFINITIONS[TargetId(target)]
    if sorted(codes) != list(range(16)):
        return False
    step_pairs = {(u + 1, v + 1) for u in range(16) for v in range(u + 1, 16)
                  if ((codes[u] // 4 - codes[v] // 4) % 4, (codes[u] - codes[v]) % 4) in steps}
    return set(target_graph(target).edges) == step_pairs


def format_edge_list(g: SmallGraph) -> str:
    """Serialize to the fixture format: `graph <n>` then one `u v` line per edge."""
    lines = [f"graph {g.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


_TARGETS: dict[TargetId, TargetGraph] = {
    TargetId.SHRIKHANDE: TargetGraph(
        TargetId.SHRIKHANDE, SmallGraph(16, SHRIKHANDE_EDGES)
    ),
    TargetId.LINE_K44: TargetGraph(TargetId.LINE_K44, SmallGraph(16, LINE_K44_EDGES)),
}
