"""Canonical 16-vertex target graphs and small-graph utilities.

Two graphs are decomposed by this package: the Shrikhande graph and the
line graph of K_{4,4}.  Both are 6-regular on 16 vertices with 48 edges
and share the strong regularity parameters srg(16, 6, 2, 2), yet they are
not isomorphic: the neighbourhood of a vertex induces a 6-cycle in one
and two disjoint triangles in the other.

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

    Stored both as a sorted edge tuple and as per-vertex adjacency bitmasks;
    the two representations are cross-checked at construction.  Bit v of
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
        rebuilt = sorted(
            (u, v)
            for u in range(1, vertex_count + 1)
            for v in range(u + 1, vertex_count + 1)
            if masks[u] >> v & 1
        )
        if rebuilt != canon:
            raise GraphError("edge list and adjacency masks disagree")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "adjacency", tuple(masks))

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return [u for u in range(1, self.vertex_count + 1) if self.adjacency[v] >> u & 1]

    @cached_property
    def _signature_classes(self) -> dict[tuple, list[int]]:
        # vertices grouped by is_isomorphic's signature, each group ascending;
        # kept on the graph, so a target is read once however many parts
        # are matched against it
        classes: dict[tuple, list[int]] = {}
        for w, sig in enumerate(_signatures(_neighbour_lists(self))[1:], start=1):
            classes.setdefault(sig, []).append(w)
        return classes


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
    if n < 2:
        return None
    k = g.degree(1)
    if any(g.degree(v) != k for v in range(2, n + 1)):
        return None
    lam: int | None = None
    mu: int | None = None
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            common = (g.adjacency[u] & g.adjacency[v]).bit_count()
            if g.has_edge(u, v):
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    if lam is None or mu is None:
        return None
    return (n, k, lam, mu)


def _neighbour_lists(g: SmallGraph) -> list[list[int]]:
    # ascending, because g.edges is sorted with u < v; index 0 is unused
    nb: list[list[int]] = [[] for _ in range(g.vertex_count + 1)]
    for u, v in g.edges:
        nb[u].append(v)
        nb[v].append(u)
    return nb


def _signatures(nb: list[list[int]]) -> list[tuple]:
    # (degree, sorted neighbour degrees) of each vertex; index 0 is unused
    deg = [len(vs) for vs in nb]
    return [(deg[v], tuple(sorted(deg[u] for u in nb[v]))) for v in range(len(nb))]


def is_isomorphic(g: SmallGraph, h: SmallGraph) -> dict[int, int] | None:
    """Find a vertex bijection f with {u,v} in E(g) iff {f(u),f(v)} in E(h).

    Plain backtracking over candidate images, pruned by degree and by the
    multiset of neighbour degrees, mapping next the vertex of g with the
    most already-mapped neighbours (ties: fewest candidates, then lowest
    number).  That choice depends only on which vertices are mapped, never
    on their images, and backtracking restores the mapped set, so the
    vertex mapped at depth k is the same in every branch.  The order and
    each vertex's earlier-mapped neighbours are therefore fixed once per
    call before the search, which visits the same nodes as choosing at
    every node would.  Returns the bijection as a dict on vertices of g,
    in the order they were mapped, or None when no isomorphism exists.
    """
    n = g.vertex_count
    if n != h.vertex_count or len(g.edges) != len(h.edges):
        return None

    sig_h = h._signature_classes
    g_nb = _neighbour_lists(g)
    candidates = [sig_h.get(sig, []) for sig in _signatures(g_nb)]
    if not all(candidates[1:]):
        return None

    # fix the order: keys[v] packs (-mapped neighbours, candidate count, v)
    # into one int, so min(keys) is the next vertex; a mapped one holds done
    big = (n + 1) ** 2
    done = big * big
    keys = [len(c) * (n + 1) + v for v, c in enumerate(candidates)]
    keys[0] = done
    order: list[int] = []
    earlier: list[list[int]] = []  # earlier[k]: neighbours of order[k] in order[:k]
    for _ in range(n):
        v = keys.index(min(keys))
        keys[v] = done
        order.append(v)
        prior = []
        for u in g_nb[v]:
            if keys[u] == done:
                prior.append(u)
            else:
                keys[u] -= big
        earlier.append(prior)
    options = [candidates[v] for v in order]

    h_adj = h.adjacency
    image = [0] * (n + 1)

    def extend(k: int, used_h: int) -> bool:
        if k == n:
            return True
        # image of order[k] must be adjacent in h to exactly the images of
        # its mapped neighbours, among all mapped images
        need = 0
        for u in earlier[k]:
            need |= 1 << image[u]
        for w in options[k]:
            if used_h >> w & 1 or h_adj[w] & used_h != need:
                continue
            image[order[k]] = w
            if extend(k + 1, used_h | 1 << w):
                return True
        return False

    if extend(0, 0):
        return {v: image[v] for v in order}
    return None


def graph_from_edges(edges: Iterable[tuple[int, int]]) -> SmallGraph:
    """Build a SmallGraph from edges over arbitrary integer points.

    The support is relabelled 1..k in sorted point order.
    """
    es = [(u, v) if u < v else (v, u) for u, v in edges]
    support = sorted({p for e in es for p in e})
    index = {p: i + 1 for i, p in enumerate(support)}
    return SmallGraph(len(support), [(index[u], index[v]) for u, v in es])


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
