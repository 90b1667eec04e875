from __future__ import annotations

import random

import pytest

from design_forge.cli import main
from design_forge.targets import (
    GraphError,
    SmallGraph,
    TargetGraph,
    TargetId,
    DEFINITIONS,
    format_edge_list,
    k4_count,
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
    sh, lk = shrikhande().graph, line_k44().graph
    assert _reference_is_isomorphic(sh, lk) is None
    assert _reference_is_isomorphic(lk, sh) is None
    # the invariant selftest compares: L(K_{4,4}) has 8 K_4s, one per
    # K_4 row or column of the rook's graph, the Shrikhande graph none
    assert (k4_count(sh), k4_count(lk)) == (0, 8)


def test_each_edge_table_matches_its_definition():
    assert all(matches_definition(target) for target in TargetId)


def _definition_graph(target: TargetId) -> SmallGraph:
    # the Cayley graph of the definition with (a, b) as vertex 4a + b + 1,
    # built without the stored witness
    steps = DEFINITIONS[target][1]
    return SmallGraph(16, [(u + 1, v + 1) for u in range(16) for v in range(u)
                           if ((u // 4 - v // 4) % 4, (u - v) % 4) in steps])


@pytest.mark.parametrize("target", list(TargetId))
def test_each_edge_table_is_isomorphic_to_its_definition_by_search(target):
    table = target_graph(target).graph
    f = _reference_is_isomorphic(table, _definition_graph(target))
    assert f is not None
    _assert_isomorphism(table, _definition_graph(target), f)
    other = next(t for t in TargetId if t is not target)
    assert _reference_is_isomorphic(table, _definition_graph(other)) is None


def _with_codes(monkeypatch, target: TargetId, codes: list[int]) -> None:
    name, steps, _ = DEFINITIONS[target]
    monkeypatch.setitem(DEFINITIONS, target, (name, steps, tuple(codes)))


@pytest.mark.parametrize("broken", ["swapped", "repeated"])
def test_a_broken_witness_fails_the_definitional_check(monkeypatch, capsys, tmp_path, broken):
    codes = list(DEFINITIONS[TargetId.SHRIKHANDE][2])
    if broken == "swapped":
        codes[0], codes[1] = codes[1], codes[0]
    else:
        codes[1] = codes[0]
    path = tmp_path / "d97.cert"
    assert main(["construct", "--graph", "shrikhande", "--order", "97", "--out", str(path)]) == 0
    capsys.readouterr()
    _with_codes(monkeypatch, TargetId.SHRIKHANDE, codes)
    assert not matches_definition(TargetId.SHRIKHANDE)
    assert matches_definition(TargetId.LINE_K44)
    assert main(["verify", "--raw", str(path)]) == 1
    assert "  part: edge table is not the shrikhande graph\n" in capsys.readouterr().out
    assert main(["verify", str(path)]) == 0


def test_a_witness_that_is_not_a_permutation_fails_even_where_its_steps_match(monkeypatch):
    # codes shifted by 16, or with a 17th code, give the same pairs with a
    # step difference as the witness, so only the permutation test fails them
    codes = DEFINITIONS[TargetId.SHRIKHANDE][2]
    for broken in ([c + 16 for c in codes], [*codes, 16]):
        _with_codes(monkeypatch, TargetId.SHRIKHANDE, broken)
        assert not matches_definition(TargetId.SHRIKHANDE)


def test_isomorphism_found_under_random_relabelling():
    rng = random.Random(7)
    for target in (shrikhande(), line_k44()):
        perm = list(range(1, 17))
        rng.shuffle(perm)
        relabelled = SmallGraph(
            16, [(perm[u - 1], perm[v - 1]) for u, v in target.graph.edges]
        )
        mapping = _reference_is_isomorphic(target.graph, relabelled)
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
    assert _reference_is_isomorphic(path3, triangle) is None
    f = _reference_is_isomorphic(triangle, triangle)
    assert f is not None
    _assert_isomorphism(triangle, triangle, f)


def _reference_is_isomorphic(g: SmallGraph, h: SmallGraph) -> dict[int, int] | None:
    """A plain backtracking isomorphism search, the tests' oracle: it finds
    a vertex bijection f with {u,v} in E(g) iff {f(u),f(v)} in E(h), or
    returns None when none exists.  Candidates are pruned by degree and
    the multiset of neighbour degrees; the next vertex mapped is the one
    with the most mapped neighbours (ties: fewest candidates, lowest)."""
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


@pytest.mark.parametrize("vertex_count", [0, 65])
def test_small_graph_takes_1_to_64_vertices(vertex_count):
    with pytest.raises(GraphError, match=f"^vertex count {vertex_count} outside 1..64$"):
        SmallGraph(vertex_count, [])


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
