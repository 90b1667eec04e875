from __future__ import annotations

import random

import pytest

from design_forge.targets import (
    GraphError,
    SmallGraph,
    TargetId,
    format_edge_list,
    graph_from_edges,
    is_isomorphic,
    line_k44,
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
            nbhd = graph_from_edges(e for e in target.graph.edges if set(e) <= nb)
            assert nbhd.vertex_count == 6
            assert all(nbhd.degree(u) == 2 for u in range(1, 7))
            assert len(_components(nbhd)) == expected_components


def test_targets_are_not_isomorphic():
    assert is_isomorphic(shrikhande().graph, line_k44().graph) is None


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


def test_isomorphism_respects_edge_count():
    path3 = SmallGraph(3, [(1, 2), (2, 3)])
    triangle = SmallGraph(3, [(1, 2), (2, 3), (1, 3)])
    assert is_isomorphic(path3, triangle) is None
    assert is_isomorphic(triangle, triangle) == {1: 1, 2: 2, 3: 3} or is_isomorphic(
        triangle, triangle
    )


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


def test_graph_from_edges_relabels_support():
    g = graph_from_edges([(10, 20), (20, 30)])
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
