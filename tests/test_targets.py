from __future__ import annotations

import random

import pytest

from design_forge.blocks import develop, paper_base_blocks
from design_forge.targets import (
    GraphError,
    SmallGraph,
    TargetGraph,
    TargetId,
    format_edge_list,
    is_isomorphic,
    line_k44,
    matches_definition,
    shrikhande,
    srg_parameters,
    target_graph,
)


def test_both_targets_are_srg_16_6_2_2():
    assert srg_parameters(shrikhande().graph) == (16, 6, 2, 2)
    assert srg_parameters(line_k44().graph) == (16, 6, 2, 2)


def test_known_edges_and_non_edges():
    g = shrikhande().graph
    assert g.has_edge(1, 2) and g.has_edge(15, 16)
    assert not g.has_edge(1, 3)
    assert g.degree(1) == 6
    h = line_k44().graph
    assert h.has_edge(1, 7)
    assert not h.has_edge(1, 8)
    assert h.degree(16) == 6


def test_target_graph_lookup_by_id():
    assert target_graph(TargetId.SHRIKHANDE) is shrikhande()
    assert target_graph(TargetId.LINE_K44) is line_k44()
    assert target_graph("shrikhande") is shrikhande()


def _graph_from_edges(edges) -> SmallGraph:
    """A SmallGraph from edges over arbitrary integer points, the support
    relabelled 1..k in sorted point order."""
    es = [(u, v) if u < v else (v, u) for u, v in edges]
    support = sorted({p for e in es for p in e})
    index = {p: i + 1 for i, p in enumerate(support)}
    return SmallGraph(len(support), [(index[u], index[v]) for u, v in es])


def _components(g: SmallGraph) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(1, g.vertex_count + 1):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in g.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def test_neighborhoods_distinguish_the_targets():
    # same srg parameters, but the neighborhood of every vertex is a 6-cycle
    # in one target and two disjoint triangles in the other
    for target, expected_components in ((shrikhande(), 1), (line_k44(), 2)):
        for v in range(1, 17):
            nb = set(target.graph.neighbors(v))
            nbhd = _graph_from_edges(e for e in target.graph.edges if set(e) <= nb)
            assert nbhd.vertex_count == 6
            assert all(nbhd.degree(u) == 2 for u in range(1, 7))
            assert len(_components(nbhd)) == expected_components


def test_targets_are_not_isomorphic():
    assert is_isomorphic(shrikhande().graph, line_k44().graph) is None


def test_each_edge_table_matches_its_definition():
    assert all(matches_definition(target) for target in TargetId)


def test_isomorphism_found_under_random_relabelling():
    rng = random.Random(7)
    for target in (shrikhande(), line_k44()):
        perm = list(range(1, 17))
        rng.shuffle(perm)
        relabelled = SmallGraph(
            16, [(perm[u - 1], perm[v - 1]) for u, v in target.graph.edges]
        )
        mapping = is_isomorphic(target.graph, relabelled)
        assert mapping is not None
        for u, v in target.graph.edges:
            assert relabelled.has_edge(mapping[u], mapping[v])


def _assert_isomorphism(g: SmallGraph, h: SmallGraph, f: dict[int, int]) -> None:
    vertices = list(range(1, g.vertex_count + 1))
    assert sorted(f) == vertices and sorted(f.values()) == vertices
    for u in vertices:
        for v in vertices[u:]:
            assert g.has_edge(u, v) == h.has_edge(f[u], f[v]), (u, v)


def test_isomorphism_respects_edge_count():
    path3 = SmallGraph(3, [(1, 2), (2, 3)])
    triangle = SmallGraph(3, [(1, 2), (2, 3), (1, 3)])
    assert is_isomorphic(path3, triangle) is None
    f = is_isomorphic(triangle, triangle)
    assert f is not None
    _assert_isomorphism(triangle, triangle, f)


def _reference_is_isomorphic(g: SmallGraph, h: SmallGraph) -> dict[int, int] | None:
    """The search as it was written first, choosing the next vertex at every
    node; is_isomorphic must return exactly what this returns."""
    n = g.vertex_count
    if n != h.vertex_count or len(g.edges) != len(h.edges):
        return None

    def signature(gr: SmallGraph, v: int) -> tuple:
        return (gr.degree(v), tuple(sorted(gr.degree(u) for u in gr.neighbors(v))))

    sig_h: dict[tuple, list[int]] = {}
    for w in range(1, n + 1):
        sig_h.setdefault(signature(h, w), []).append(w)
    candidates = {v: sig_h.get(signature(g, v), []) for v in range(1, n + 1)}
    if any(not c for c in candidates.values()):
        return None

    g_nb = {v: g.neighbors(v) for v in range(1, n + 1)}
    mapping: dict[int, int] = {}
    used_h = 0

    def pick_next() -> int:
        best, best_key = 0, None
        for v in range(1, n + 1):
            if v in mapping:
                continue
            mapped_nb = sum(1 for u in g_nb[v] if u in mapping)
            key = (-mapped_nb, len(candidates[v]), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    def extend() -> bool:
        nonlocal used_h
        if len(mapping) == n:
            return True
        v = pick_next()
        # image of v must be adjacent in h to exactly the images of v's
        # mapped neighbours, among all mapped images
        need = 0
        for u in g_nb[v]:
            if u in mapping:
                need |= 1 << mapping[u]
        for w in candidates[v]:
            if used_h >> w & 1:
                continue
            if h.adjacency[w] & used_h != need:
                continue
            mapping[v] = w
            used_h |= 1 << w
            if extend():
                return True
            del mapping[v]
            used_h &= ~(1 << w)
        return False

    if extend():
        return dict(mapping)
    return None


def _assert_same_as_reference(g: SmallGraph, h: SmallGraph) -> dict[int, int] | None:
    want = _reference_is_isomorphic(g, h)
    got = is_isomorphic(g, h)
    assert got == want
    if got is not None:
        assert list(got.items()) == list(want.items())  # same order of mapping
        _assert_isomorphism(g, h, got)
    return got


def _design_parts(target: TargetId, n: int) -> list[SmallGraph]:
    edges = target_graph(target).edges
    return [
        _graph_from_edges((row[u - 1], row[v - 1]) for u, v in edges)
        for row in develop(paper_base_blocks(target, n)).blocks.tolist()
    ]


@pytest.mark.parametrize("n", [97, 193])
@pytest.mark.parametrize("target", list(TargetId))
def test_isomorphism_matches_reference_on_design_blocks(target, n):
    goal = target_graph(target).graph
    other = next(t for t in TargetId if t is not target)
    for part in _design_parts(target, n):
        assert _assert_same_as_reference(part, goal) is not None
    for part in _design_parts(other, n)[:20]:
        assert _assert_same_as_reference(part, goal) is None


def test_isomorphism_matches_reference_between_the_targets():
    sh, lk = shrikhande().graph, line_k44().graph
    assert _assert_same_as_reference(sh, lk) is None
    assert _assert_same_as_reference(lk, sh) is None
    assert _assert_same_as_reference(sh, sh) is not None
    assert _assert_same_as_reference(lk, lk) is not None


_ALL_PAIRS = [(u, v) for u in range(1, 17) for v in range(u + 1, 17)]


def _switched(g: SmallGraph, swaps: int, rng: random.Random) -> SmallGraph:
    # degree-preserving double-edge swaps {a,b},{c,d} -> {a,d},{c,b}: the
    # result is 6-regular, so every vertex passes the signature filter and
    # the search has to backtrack to tell it from the target
    edges = set(g.edges)
    done = 0
    while done < swaps:
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted(e)) for e in ((a, d), (c, b))}
        if a == d or c == b or len(new) < 2 or new & edges:
            continue
        edges -= {(a, b), (c, d)}
        edges |= new
        done += 1
    return SmallGraph(16, edges)


@pytest.mark.parametrize("target", list(TargetId))
def test_isomorphism_matches_reference_on_random_graphs(target):
    rng = random.Random(20261018)
    goal = target_graph(target).graph
    for _ in range(200):
        _assert_same_as_reference(SmallGraph(16, rng.sample(_ALL_PAIRS, 48)), goal)
    found = 0
    for i in range(24):
        perm = list(range(1, 17))
        rng.shuffle(perm)
        relabelled = SmallGraph(16, [(perm[u - 1], perm[v - 1]) for u, v in goal.edges])
        switched = _switched(relabelled, i % 4, rng)
        found += _assert_same_as_reference(switched, goal) is not None
        _assert_same_as_reference(goal, switched)
    assert 6 <= found < 24  # both outcomes of the deep search are exercised


def test_isomorphism_matches_reference_on_small_graphs():
    path3 = SmallGraph(3, [(1, 2), (2, 3)])
    triangle = SmallGraph(3, [(1, 2), (2, 3), (1, 3)])
    cycle5 = SmallGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    star5 = SmallGraph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    small = [
        path3,
        triangle,
        SmallGraph(3, [(1, 2)]),
        SmallGraph(3, [(2, 3)]),
        SmallGraph(1, []),
        _graph_from_edges([(10, 20), (20, 30)]),
        cycle5,
        SmallGraph(5, [(3, 1), (1, 4), (4, 2), (2, 5), (5, 3)]),
        star5,
        SmallGraph(5, [(2, 1), (2, 3), (2, 4), (2, 5)]),
    ]
    for g in small:
        for h in small:
            _assert_same_as_reference(g, h)


def test_srg_parameters_none_for_irregular_graphs():
    assert srg_parameters(SmallGraph(3, [(1, 2)])) is None
    # regular but lambda not constant: 6-cycle plus nothing has mu only
    cycle5 = SmallGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert srg_parameters(cycle5) == (5, 2, 0, 1)


def test_small_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        SmallGraph(3, [(1, 1)])
    with pytest.raises(GraphError):
        SmallGraph(3, [(1, 4)])
    with pytest.raises(GraphError):
        SmallGraph(3, [(1, 2), (2, 1)])


def test_adjacency_and_edges_agree_on_random_graphs():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 64)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        chosen = rng.sample(pairs, rng.randint(0, min(len(pairs), 200)))
        g = SmallGraph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in chosen])
        assert g.edges == tuple(sorted(chosen))
        from_masks = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                      if g.adjacency[u] >> v & 1]
        assert from_masks == list(g.edges)
        assert g.adjacency[0] == 0 and all(m >> (n + 1) == 0 and not m & 1 for m in g.adjacency)


def test_graph_from_edges_relabels_support():
    g = _graph_from_edges([(10, 20), (20, 30)])
    assert g.vertex_count == 3
    assert g.has_edge(1, 2) and g.has_edge(2, 3) and not g.has_edge(1, 3)


def test_edge_list_round_trip():
    g = shrikhande().graph
    header, *rows = format_edge_list(g).splitlines()
    assert header == f"graph {g.vertex_count}"
    again = SmallGraph(int(header.split()[1]), [tuple(map(int, r.split())) for r in rows])
    assert again.vertex_count == g.vertex_count
    assert again.edges == g.edges


def test_target_edge_lists_have_48_edges_and_degree_6():
    for target in (shrikhande(), line_k44()):
        assert len(target.graph.edges) == 48
        assert all(target.graph.degree(v) == 6 for v in range(1, 17))


def _circulant_16_1_2_3() -> SmallGraph:
    # 6-regular with 48 edges, but adjacent pairs share 4 or 2 neighbours
    return SmallGraph(16, [(v + 1, (v + d) % 16 + 1) for v in range(16) for d in (1, 2, 3)])


def _shrikhande_without_vertex_16() -> SmallGraph:
    return SmallGraph(15, [e for e in shrikhande().edges if 16 not in e])


def _five_cycle() -> SmallGraph:
    # strongly regular, but srg(5, 2, 0, 1)
    return SmallGraph(5, [(v, v % 5 + 1) for v in range(1, 6)])


@pytest.mark.parametrize("graph", [_circulant_16_1_2_3, _shrikhande_without_vertex_16, _five_cycle])
def test_target_graph_rejects_a_graph_that_is_not_srg_16_6_2_2(graph):
    g = graph()
    assert srg_parameters(g) != (16, 6, 2, 2)
    with pytest.raises(GraphError):
        TargetGraph(TargetId.SHRIKHANDE, g)
