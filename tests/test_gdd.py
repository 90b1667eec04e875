from __future__ import annotations

import gc
import random
import re
import tracemalloc
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest

from design_forge import gdd as gdd_mod
from design_forge.assemble import ConstructionError, construct_design
from design_forge.cli import main

from design_forge.gdd import (
    BudgetExhaustedError,
    Gdd,
    GddError,
    GddType,
    IngredientFileError,
    IngredientStore,
    IngredientUnavailableError,
    UnsupportedOrderError,
    exact_cover_search,
    format_gdd_file,
    gdd_24_t,
    inflate,
    kronecker_mols,
    mols_for_order,
    parse_gdd_file,
    read_gdd_file,
    td_from_mols,
    verify_gdd,
    write_gdd_file,
)
from design_forge.targets import TargetId


def test_gdd_type_parsing_and_printing():
    t = GddType.parse("24^5")
    assert t.point_count() == 120
    assert str(t) == "24^5"
    assert GddType.of(3, 5) == GddType.parse("3^5")
    with pytest.raises(GddError):
        GddType.parse("24^")
    with pytest.raises(GddError):
        GddType.parse("0^4")


@pytest.mark.parametrize("text", ["3^\u00b2", "\u0663^5", "+3^5", "3^5_0", "-3^5"])
def test_gdd_type_tokens_are_ascii_decimal(text):
    with pytest.raises(GddError, match=f"^{re.escape(f'bad type token {text!r}, want g^u')}$"):
        GddType.parse(text)


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [("gdd 4 3^4", "gdd 4 3^\u00b2", "td43.txt: bad type token '3^\u00b2', want g^u"),
     ("gdd 4 ", "gdd \u0664 ", "td43.txt line 1: block size '\u0664' is not an integer >= 2"),
     ("group 3 4 5", "group 3 +4 5", "td43.txt line 3: non-integer point"),
     ("block 0 ", "block \u0660 ", "td43.txt line 6: non-integer point")],
    ids=["superscript exponent", "arabic-indic k", "point with a plus sign",
         "arabic-indic point"],
)
def test_gdd_file_integers_are_ascii_decimal(old, new, message):
    text = format_gdd_file(td_from_mols(4, 3, mols_for_order(3)))
    assert old in text
    with pytest.raises(IngredientFileError, match=f"^{re.escape(message)}$"):
        parse_gdd_file(text.replace(old, new, 1), what="td43.txt")


def test_mols_prime_power_counts():
    assert len(mols_for_order(2)) == 1
    assert len(mols_for_order(3)) == 2
    assert len(mols_for_order(5)) == 4
    assert len(mols_for_order(4)) == 3
    assert len(mols_for_order(8)) == 7


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 8, 24])
def test_mols_make_a_transversal_design_that_verifies(m):
    # a TD(s + 2, m) from s squares is a GDD exactly when every square is
    # Latin and every pair orthogonal, so verify_gdd checks both
    mols = mols_for_order(m)
    assert verify_gdd(td_from_mols(len(mols) + 2, m, mols)).passed


def test_trivial_two_gdd_of_type_1_2_passes():
    g = Gdd(
        gdd_type=GddType.of(1, 2),
        k=2,
        blocks=((0, 1),),
    )
    report = verify_gdd(g)
    assert report.passed
    assert report.count_expected == 1


def test_kronecker_product_order_24():
    m = kronecker_mols(mols_for_order(8), mols_for_order(3))
    assert m.shape == (2, 24, 24)
    assert np.array_equal(mols_for_order(24), m)


def test_macneish_product_is_wilson_inflation():
    # kronecker_mols pairs square i of MOLS(8) with square i of MOLS(3), so
    # TD(4, 24) from their product is TD(4, 8) inflated by weight 3
    inflated = inflate(td_from_mols(4, 8, mols_for_order(8)), 3).blocks
    direct = td_from_mols(4, 24, mols_for_order(24)).blocks
    assert np.array_equal(inflated[np.lexsort(inflated.T[::-1])], direct)


def test_td_4_3_has_nine_blocks():
    td = td_from_mols(4, 3, mols_for_order(3))
    assert td.gdd_type == GddType.of(3, 4)
    assert len(td.blocks) == 9
    assert verify_gdd(td).passed


def test_td_4_24_has_576_blocks():
    td = td_from_mols(4, 24, mols_for_order(24))
    assert len(td.blocks) == 576
    report = verify_gdd(td)
    assert report.passed
    assert report.count_expected == 576


def test_td_4_2_is_unavailable():
    # needs 2 orthogonal latin squares of order 2; there is only 1
    with pytest.raises(IngredientUnavailableError):
        td_from_mols(4, 2, mols_for_order(2))


def test_verify_gdd_catches_an_intra_group_block():
    td = td_from_mols(4, 3, mols_for_order(3))
    tampered = Gdd(
        gdd_type=td.gdd_type,
        k=td.k,
        blocks=td.blocks.tolist()[:-1] + [[0, 1, 4, 7]],
    )
    report = verify_gdd(tampered)
    assert not report.passed
    assert report.label_errors or report.pair_errors


def test_verify_gdd_catches_a_dropped_block():
    td = td_from_mols(4, 3, mols_for_order(3))
    report = verify_gdd(
        Gdd(gdd_type=td.gdd_type, k=td.k, blocks=td.blocks[:-1])
    )
    assert not report.passed
    assert report.count_actual == 8
    # each block covers 6 cross pairs, so exactly 6 go uncovered
    assert len(report.pair_errors) == 6
    assert all(count == 0 for _, count in report.pair_errors)


def test_inflate_by_weight_one_is_identity_on_counts():
    td = td_from_mols(4, 3, mols_for_order(3))
    out = inflate(td, 1)
    assert out.gdd_type == td.gdd_type
    assert len(out.blocks) == len(td.blocks)


def test_inflate_multiplies_blocks_by_weight_squared():
    td = td_from_mols(4, 3, mols_for_order(3))
    out = inflate(td, 3)
    assert out.gdd_type == GddType.of(9, 4)
    assert len(out.blocks) == 9 * 9
    assert verify_gdd(out).passed


def test_inflating_type_3_4_by_weight_8_reaches_type_24_4():
    # alternative route to the t = 4 ingredient
    td = td_from_mols(4, 3, mols_for_order(3))
    out = inflate(td, 8)
    assert out.gdd_type == GddType.of(24, 4)
    assert len(out.blocks) == 9 * 64
    assert verify_gdd(out).passed


def test_exact_cover_type_1_4_is_the_single_block():
    found = exact_cover_search(GddType.of(1, 4), 4)
    assert found is not None
    assert found.blocks.tolist() == [[0, 1, 2, 3]]


def test_exact_cover_finds_type_3_5():
    found = exact_cover_search(GddType.parse("3^5"), 4)
    assert found is not None
    assert len(found.blocks) == 15
    assert verify_gdd(found).passed


def test_exact_cover_is_deterministic_for_a_seed():
    a = exact_cover_search(GddType.parse("3^5"), 4, seed=3)
    b = exact_cover_search(GddType.parse("3^5"), 4, seed=3)
    assert a is not None and b is not None
    assert np.array_equal(a.blocks, b.blocks)


def test_exact_cover_divisibility_precheck():
    # 3^3 has 27 cross pairs, not divisible by 6
    assert exact_cover_search(GddType.parse("3^3"), 4) is None


def test_exact_cover_type_6_4_does_not_yield_a_design():
    # equivalent to a pair of orthogonal latin squares of order 6, which
    # do not exist; a small budget must end in exhaustion, never a design
    try:
        found = exact_cover_search(GddType.parse("6^4"), 4, node_budget=50_000)
    except BudgetExhaustedError:
        found = None
    assert found is None


def test_exact_cover_budget_error_reports_nodes():
    with pytest.raises(BudgetExhaustedError) as err:
        exact_cover_search(GddType.parse("6^4"), 4, node_budget=1_000)
    assert err.value.nodes == 1_001


@pytest.mark.parametrize(
    ("gdd_type", "k", "message"),
    [("3^14", 4, "42 points exceeds the desk-scale guard of 40"),
     ("3^5", 1, "block size must be at least 2")],
)
def test_exact_cover_search_guards_raise_before_searching(gdd_type, k, message):
    with pytest.raises(GddError, match=f"^{message}$"):
        exact_cover_search(GddType.parse(gdd_type), k)


def _reference_exact_cover_search(gdd_type, k, node_budget=1_000_000, seed=0):
    """A pair-indexed backtracking search with exact_cover_search's choice
    rule: (the sorted blocks of the first solution, or None when none
    exists; the nodes searched)."""
    n = gdd_type.point_count()
    sizes = gdd_type.group_sizes()
    if len(sizes) < k:
        return None, 0
    groups = []
    start = 0
    for g in sizes:
        groups.append(tuple(range(start, start + g)))
        start += g
    group_of = {p: i for i, grp in enumerate(groups) for p in grp}

    pair_index = {}
    for a in range(n):
        for b in range(a + 1, n):
            if group_of[a] != group_of[b]:
                pair_index[(a, b)] = len(pair_index)
    pair_count = len(pair_index)
    if pair_count % (k * (k - 1) // 2):
        return None, 0

    candidates = []
    for chosen in combinations(range(len(groups)), k):
        for pts in product(*(groups[i] for i in chosen)):
            candidates.append(tuple(sorted(pts)))
    random.Random(seed).shuffle(candidates)
    block_pairs = [
        tuple(pair_index[(a, b)] for a, b in combinations(block, 2)) for block in candidates
    ]
    blocks_of_pair = [[] for _ in range(pair_count)]
    for b, pairs in enumerate(block_pairs):
        for p in pairs:
            blocks_of_pair[p].append(b)

    covered = bytearray(pair_count)
    conflicts = [0] * len(candidates)  # covered pairs inside each candidate
    usable = [len(blocks_of_pair[p]) for p in range(pair_count)]
    chosen_blocks = []
    nodes = 0

    def place(b):
        for p in block_pairs[b]:
            covered[p] = 1
        for p in block_pairs[b]:
            for b2 in blocks_of_pair[p]:
                conflicts[b2] += 1
                if conflicts[b2] == 1:
                    for q in block_pairs[b2]:
                        if not covered[q]:
                            usable[q] -= 1

    def unplace(b):
        for p in block_pairs[b]:
            for b2 in blocks_of_pair[p]:
                conflicts[b2] -= 1
                if conflicts[b2] == 0:
                    for q in block_pairs[b2]:
                        if not covered[q]:
                            usable[q] += 1
        for p in block_pairs[b]:
            covered[p] = 0

    def search():
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExhaustedError(nodes)
        best_pair = -1
        best_count = None
        for p in range(pair_count):
            if not covered[p]:
                c = usable[p]
                if c == 0:
                    return False
                if best_count is None or c < best_count:
                    best_pair, best_count = p, c
                    if c == 1:
                        break
        if best_pair < 0:
            return True
        for b in blocks_of_pair[best_pair]:
            if conflicts[b] == 0:
                chosen_blocks.append(b)
                place(b)
                if search():
                    return True
                unplace(b)
                chosen_blocks.pop()
        return False

    if not search():
        return None, nodes
    return sorted(list(candidates[b]) for b in chosen_blocks), nodes


@pytest.mark.parametrize(
    ("gdd_type", "seed"),
    [("3^5", seed) for seed in range(20)]
    + [(t, 0) for t in ("1^4", "3^3", "2^4", "2^6", "2^7", "3^4", "4^4", "1^13")],
)
def test_exact_cover_search_matches_the_pair_indexed_reference(gdd_type, seed):
    # a search that runs out always reports budget + 1 nodes, so only the
    # smallest budget that returns tells two search trees apart: both
    # searches return the same blocks there, and run out one node before
    t = GddType.parse(gdd_type)
    expected, nodes = _reference_exact_cover_search(t, 4, seed=seed)
    found = exact_cover_search(t, 4, node_budget=nodes, seed=seed)
    assert (None if found is None else found.blocks.tolist()) == expected
    assert (found is None) == (gdd_type in ("3^3", "2^4", "2^6"))
    if gdd_type == "3^3":  # 27 cross pairs: no node is searched
        assert nodes == 0
        return
    for search in (exact_cover_search, _reference_exact_cover_search):
        with pytest.raises(BudgetExhaustedError) as err:
            search(t, 4, node_budget=nodes - 1, seed=seed)
        assert err.value.nodes == nodes


def test_exact_cover_search_and_the_reference_both_exhaust_a_small_budget_on_6_4():
    for search in (exact_cover_search, _reference_exact_cover_search):
        with pytest.raises(BudgetExhaustedError):
            search(GddType.parse("6^4"), 4, node_budget=1_000)


def test_gdd_file_round_trip(tmp_path):
    td = td_from_mols(4, 3, mols_for_order(3))
    path = tmp_path / "td43.txt"
    write_gdd_file(td, path)
    again = read_gdd_file(path)
    assert again.gdd_type == td.gdd_type
    assert np.array_equal(again.blocks, td.blocks)
    assert format_gdd_file(again) == format_gdd_file(td)


def test_gdd_file_with_a_bad_block_is_rejected(tmp_path):
    td = td_from_mols(4, 3, mols_for_order(3))
    text = format_gdd_file(td)
    broken = text.replace("block ", "block 0 ", 1)
    with pytest.raises(IngredientFileError):
        parse_gdd_file(broken)


def test_ingredient_store_finds_shipped_types():
    store = IngredientStore.default()
    assert store.find(4, GddType.parse("3^5")) is not None
    assert store.find(4, GddType.parse("6^5")) is not None
    assert store.find(4, GddType.parse("7^5")) is None


def test_gdd_24_4_is_a_transversal_design():
    g = gdd_24_t(4)
    assert g.gdd_type == GddType.of(24, 4)
    assert len(g.blocks) == 576
    assert verify_gdd(g).passed


def test_gdd_24_5_from_store_and_from_regeneration(tmp_path):
    stored = gdd_24_t(5)
    assert stored.gdd_type == GddType.of(24, 5)
    assert len(stored.blocks) == 960
    assert verify_gdd(stored).passed
    assert "6^5" in stored.provenance

    regenerated = gdd_24_t(5, IngredientStore(tmp_path))
    assert len(regenerated.blocks) == 960
    assert verify_gdd(regenerated).passed
    assert "3^5" in regenerated.provenance


@pytest.mark.parametrize("route", ["stored", "searched"])
def test_gdd_24_5_rows_are_its_inflated_ingredient_lexsorted(tmp_path, route):
    # one key of each row's first two points sorts the rows as lexsort of
    # all four does, since a pair of points lies in one block
    if route == "stored":
        store = IngredientStore.default()
        ingredient, weight = store.find(4, GddType.of(6, 5)), 4
    else:
        store = IngredientStore(tmp_path)
        ingredient, weight = exact_cover_search(GddType.of(3, 5), 4), 8
    inflated = inflate(ingredient, weight).blocks
    assert np.array_equal(gdd_24_t(5, store).blocks, inflated[np.lexsort(inflated.T[::-1])])


def test_gdd_24_t_rejects_small_t():
    with pytest.raises(GddError):
        gdd_24_t(3)


def test_block_counts_match_48_t_t_minus_1():
    for t in (4, 5):
        g = gdd_24_t(t)
        assert len(g.blocks) == 48 * t * (t - 1)


def test_ingredient_store_finds_a_file_that_starts_with_a_comment(tmp_path):
    shipped = IngredientStore.default().find(4, GddType.parse("6^5"))
    (tmp_path / "commented.txt").write_text(
        "# a 4-GDD of type 6^5\n\n" + format_gdd_file(shipped), encoding="utf-8"
    )
    (tmp_path / "notes.txt").write_text("not an ingredient\n", encoding="utf-8")
    found = IngredientStore(tmp_path).find(4, GddType.parse("6^5"))
    assert found is not None
    assert np.array_equal(found.blocks, shipped.blocks)
    assert IngredientStore(tmp_path).find(4, GddType.parse("3^5")) is None
    assert IngredientStore(tmp_path / "missing").find(4, GddType.parse("6^5")) is None


# TD(4,3) from mols_for_order(3): groups {0,1,2} {3,4,5} {6,7,8} {9,10,11}
TD43_BLOCKS = (
    (0, 3, 6, 9), (0, 4, 7, 10), (0, 5, 8, 11), (1, 3, 7, 11), (1, 4, 8, 9),
    (1, 5, 6, 10), (2, 3, 8, 10), (2, 4, 6, 11), (2, 5, 7, 9),
)
# the six cross pairs of the last block (2, 5, 7, 9), in report order
LAST_BLOCK_UNCOVERED = [((2, 5), 0), ((2, 7), 0), ((5, 7), 0), ((2, 9), 0), ((5, 9), 0), ((7, 9), 0)]


def _with_last_block(block):
    return TD43_BLOCKS[:-1] + (block,)


# (blocks, block errors, pair errors): one case per verify_gdd message.  A
# block with a repeated or out-of-range point is not counted, a block with
# two points in one group is.
VERIFY_GDD_CASES = {
    "block not k distinct": (
        _with_last_block((2, 2, 7, 9)),
        ["block 8: not 4 distinct points"], LAST_BLOCK_UNCOVERED),
    "point out of range": (
        _with_last_block((2, 5, 7, 12)),
        ["block 8: point out of range"], LAST_BLOCK_UNCOVERED),
    "negative point out of range": (
        _with_last_block((-1, 5, 7, 9)),
        ["block 8: point out of range"], LAST_BLOCK_UNCOVERED),
    "two points share a group": (
        _with_last_block((2, 5, 7, 8)),
        ["block 8: two points share a group"],
        [((2, 8), 2), ((5, 8), 2), ((7, 8), 1), ((2, 9), 0), ((5, 9), 0), ((7, 9), 0)]),
    "block messages in block order": (
        TD43_BLOCKS[:2] + ((0, 5, 8, 12), (1, 3, 3, 11), (1, 4, 8, 7)) + TD43_BLOCKS[5:],
        ["block 2: point out of range", "block 3: not 4 distinct points",
         "block 4: two points share a group"],
        [((1, 3), 0), ((0, 5), 0), ((3, 7), 0), ((4, 7), 2), ((0, 8), 0), ((5, 8), 0),
         ((7, 8), 1), ((1, 9), 0), ((4, 9), 0), ((8, 9), 0), ((0, 11), 0), ((1, 11), 0),
         ((3, 11), 0), ((5, 11), 0), ((7, 11), 0), ((8, 11), 0)]),
    "pair counts capped at 255": (
        TD43_BLOCKS + ((0, 3, 6, 9),) * 300,
        [],
        [((0, 3), 255), ((0, 6), 255), ((3, 6), 255), ((0, 9), 255), ((3, 9), 255),
         ((6, 9), 255)]),
}


@pytest.mark.parametrize("case", sorted(VERIFY_GDD_CASES))
def test_verify_gdd_reports_each_violation_verbatim(case):
    blocks, block_errors, pair_errors = VERIFY_GDD_CASES[case]
    report = verify_gdd(Gdd(gdd_type=GddType.of(3, 4), k=4, blocks=blocks))
    assert not report.passed
    assert report.count_expected == 9
    assert report.count_actual == len(blocks)
    assert report.label_errors == block_errors
    assert report.pair_errors == pair_errors


def test_verify_gdd_of_24_5_peaks_under_160_kib():
    # uint16 pair counts and one chunk of blocks; int64 counts over all 960
    # blocks at once peaked at 0.327 MiB
    design = gdd_24_t(5)
    gc.collect()
    tracemalloc.start()
    try:
        report = verify_gdd(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 160 * 2**10


def test_verify_gdd_passes_td_4_3():
    report = verify_gdd(Gdd(gdd_type=GddType.of(3, 4), k=4, blocks=TD43_BLOCKS))
    assert report.passed
    assert (report.label_errors, report.pair_errors) == ([], [])


# (edit of the TD(4,3) file's lines, message): group line i must be exactly
# the i-th consecutive range of the type.  Line 1 is the header, lines 2-5
# the groups.
GDD_FILE_GROUP_CASES = {
    "wrong point": (
        lambda lines: lines[:2] + ["group 3 4 6"] + lines[3:],
        "line 3: group 1 must be points 3..5"),
    "missing line": (
        lambda lines: lines[:4] + lines[5:],
        "line 1: 3^4 has 4 groups, the file lists 3"),
    "extra line": (
        lambda lines: lines[:5] + ["group 12 13 14"] + lines[5:],
        "line 6: 3^4 has only 4 groups"),
    "wrong size": (
        lambda lines: lines[:1] + ["group 0 1 2 3"] + lines[2:],
        "line 2: group 0 must be points 0..2"),
}


@pytest.mark.parametrize("case", sorted(GDD_FILE_GROUP_CASES))
def test_gdd_file_groups_out_of_layout_name_their_line(case):
    edit, message = GDD_FILE_GROUP_CASES[case]
    lines = format_gdd_file(td_from_mols(4, 3, mols_for_order(3))).splitlines()
    with pytest.raises(IngredientFileError, match=f"^{re.escape('td43.txt ' + message)}$"):
        parse_gdd_file("\n".join(edit(lines)) + "\n", what="td43.txt")


@pytest.mark.parametrize(
    "text",
    [
        "gdd 2000 3^5\ngroup 0 1 2\ngroup 3 4 5\ngroup 6 7 8\ngroup 9 10 11\ngroup 12 13 14\n",
        "gdd 4 3^1000000\n",
        "gdd 2 1^2000\n" + "".join(f"group {p}\n" for p in range(2000)),
    ],
    ids=["block size above the group count", "a million groups claimed, none listed",
         "two thousand groups listed, no blocks"],
)
def test_a_hostile_header_is_rejected_in_memory_sized_by_the_file(text):
    tracemalloc.start()
    try:
        with pytest.raises(IngredientFileError):
            parse_gdd_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("".join(line + "\n" for line in format_gdd_file(td_from_mols(4, 3, mols_for_order(3)))
                 .splitlines()[:-1]),
         "line 1: a 4-GDD of type 3^4 has 9 blocks, the file lists 8"),
        ("# C(4, 2) does not divide the 10 pairs\ngdd 4 1^5\n"
         + "".join(f"group {p}\n" for p in range(5)),
         "line 2: a 4-GDD of type 1^5 has no whole number of blocks, the file lists 0"),
    ],
    ids=["a block dropped", "no whole number of blocks"],
)
def test_gdd_file_with_a_block_count_other_than_the_types_names_the_header_line(text, message):
    with pytest.raises(IngredientFileError, match=f"^{re.escape('f.txt ' + message)}$"):
        parse_gdd_file(text, what="f.txt")


_TD43_LINES = format_gdd_file(td_from_mols(4, 3, mols_for_order(3))).splitlines()


@pytest.mark.parametrize(
    ("lines", "message"),
    [
        (["# comments only", "#"], ": missing 'gdd' header"),
        (_TD43_LINES[:5] + ["foo 1 2"] + _TD43_LINES[5:], " line 6: unknown keyword 'foo'"),
        # the last block repeats the first: the line counts are right, the pairs not
        (_TD43_LINES[:-1] + [_TD43_LINES[5]], ": fails verification (0 block, 12 pair errors)"),
    ],
    ids=["comments only", "unknown keyword", "a block repeated"],
)
def test_read_gdd_file_names_the_file_it_rejects(tmp_path, lines, message):
    path = tmp_path / "f.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IngredientFileError, match=f"^{re.escape(str(path) + message)}$"):
        read_gdd_file(path)


def test_gdd_file_with_a_short_block_row_names_its_line():
    text = format_gdd_file(td_from_mols(4, 3, mols_for_order(3)))
    lines = text.splitlines()
    lines[7] = "block 0 3 6"
    with pytest.raises(IngredientFileError, match="line 8"):
        parse_gdd_file("\n".join(lines) + "\n")


def test_gdd_file_with_a_point_beyond_int32_is_rejected():
    text = format_gdd_file(td_from_mols(4, 3, mols_for_order(3)))
    with pytest.raises(IngredientFileError):
        parse_gdd_file(text.replace("block 0 ", f"block {2**40} ", 1))


def _reference_verify_gdd_blocks(design):
    """The block and pair checks of verify_gdd as a loop over Python ints:
    (block errors, pair errors)."""
    n, k = design.point_count(), design.k
    group_of = design.gdd_type.group_of().tolist()
    counts = bytearray(n * (n - 1) // 2)
    block_errors, pair_errors = [], []
    for idx, block in enumerate(design.blocks.tolist()):
        if len(set(block)) != k:
            block_errors.append(f"block {idx}: not {k} distinct points")
            continue
        if any(not 0 <= p < n for p in block):
            block_errors.append(f"block {idx}: point out of range")
            continue
        if len({group_of[p] for p in block}) != k:
            block_errors.append(f"block {idx}: two points share a group")
        for a, b in combinations(sorted(block), 2):
            i = b * (b - 1) // 2 + a
            counts[i] = min(counts[i] + 1, 255)
    for b in range(n):
        for a in range(b):
            c = counts[b * (b - 1) // 2 + a]
            if c != (group_of[a] != group_of[b]):
                pair_errors.append(((a, b), c))
    return block_errors, pair_errors


@pytest.mark.parametrize("seed", range(40))
def test_verify_gdd_matches_the_loop_reference_on_random_corruptions(seed):
    rng = random.Random(seed)
    base = td_from_mols(4, 3, mols_for_order(3)) if seed % 2 else gdd_24_t(4)
    n = base.point_count()
    blocks = base.blocks.tolist()
    for _ in range(rng.randrange(1, 6)):
        kind = rng.randrange(4)
        if kind == 0:  # move a point anywhere, in range or not
            blocks[rng.randrange(len(blocks))][rng.randrange(4)] = rng.randrange(-2, n + 2)
        elif kind == 1:
            blocks.append(list(rng.choice(blocks)))
        elif kind == 2 and len(blocks) > 1:
            blocks.pop(rng.randrange(len(blocks)))
        else:
            blocks.extend([list(rng.choice(blocks))] * rng.randrange(250, 260))
    design = replace(base, blocks=blocks)
    report = verify_gdd(design)
    assert (report.label_errors, report.pair_errors) == _reference_verify_gdd_blocks(design)
    assert report.passed == (not report.label_errors and not report.pair_errors
                             and len(blocks) == report.count_expected)


def _move_one_point(design):
    """The design with one point of block 0 moved to another point of its
    group: every block still meets k distinct groups, but four cross pairs
    are now covered twice and four not at all."""
    blocks = [list(map(int, row)) for row in design.blocks]
    p = blocks[0][0]
    group_of = design.gdd_type.group_of()
    blocks[0][0] = next(q for q in np.flatnonzero(group_of == group_of[p]).tolist() if q != p)
    return replace(design, blocks=tuple(map(tuple, blocks)))


def _swap_two_cells(mols):
    """The MOLS with two cells of row 0 of square 0 swapped: every row is
    still a permutation, but two columns of that square are not."""
    squares = mols.copy()
    squares[0, 0, [0, 1]] = squares[0, 0, [1, 0]]
    return squares


@pytest.mark.parametrize(
    ("stage", "t", "route"),
    [
        ("td_from_mols", 4, "stored"),
        ("td_from_mols", 5, "stored"),
        ("td_from_mols", 5, "searched"),
        ("inflate", 5, "stored"),
        ("inflate", 5, "searched"),
        ("mols_for_order", 4, "stored"),
    ],
)
def test_a_corrupted_intermediate_is_caught_at_a_boundary(
    monkeypatch, tmp_path, capsys, stage, t, route
):
    original = getattr(gdd_mod, stage)
    corrupt = _swap_two_cells if stage == "mols_for_order" else _move_one_point
    calls = []

    def corrupted(*args, **kwargs):
        calls.append(stage)
        return corrupt(original(*args, **kwargs))

    monkeypatch.setattr(gdd_mod, stage, corrupted)
    empty = tmp_path / "empty"
    empty.mkdir()
    store = IngredientStore(empty) if route == "searched" else None

    with pytest.raises(ConstructionError) as err:
        construct_design(TargetId.SHRIKHANDE, 96 * t + 1, store)
    assert calls
    message = str(err.value)
    assert "FAIL (" in message and "\n" not in message and len(message) < 200

    calls.clear()
    out = tmp_path / "g.txt"
    argv = ["gdd", "--type", f"24^{t}", "--out", str(out)]
    if route == "searched":
        argv += ["--ingredients", str(empty)]
    assert main(argv) == 1
    assert calls
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "FAIL (" in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


def test_gdd_command_checks_a_searched_design_before_writing_it(monkeypatch, tmp_path, capsys):
    search = gdd_mod.exact_cover_search
    monkeypatch.setattr("design_forge.cli.exact_cover_search",
                        lambda *args, **kwargs: _move_one_point(search(*args, **kwargs)))
    out = tmp_path / "g.txt"
    assert main(["gdd", "--type", "3^5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "4-GDD of type 3^5 failed verification: FAIL (" in err and err.count("\n") == 1
    assert not out.exists()


# --- MOLS: the loop constructions that the MOLS arrays must reproduce -------


def _gf2_mul(x: int, y: int, poly: int, degree: int) -> int:
    r = 0
    while y:
        if y & 1:
            r ^= x
        y >>= 1
        x <<= 1
        if x >> degree & 1:
            x ^= poly
    return r


_BINARY_FIELD_POLY = {4: 0b111, 8: 0b1011}  # x^2+x+1, x^3+x+1


def _reference_kronecker(a: list, b: list) -> list:
    m, n = len(a[0]), len(b[0])
    squares = []
    for i in range(min(len(a), len(b))):
        sq = [[0] * (m * n) for _ in range(m * n)]
        for x1, x2, y1, y2 in product(range(m), range(n), range(m), range(n)):
            sq[x1 * n + x2][y1 * n + y2] = a[i][x1][y1] * n + b[i][x2][y2]
        squares.append(sq)
    return squares


def _reference_mols(q: int) -> list:
    """The squares as nested lists, built by the loops mols_for_order replaced."""
    if q == 24:
        return _reference_kronecker(_reference_mols(8), _reference_mols(3))
    if q in _BINARY_FIELD_POLY:
        poly, degree = _BINARY_FIELD_POLY[q], q.bit_length() - 1
        return [
            [[_gf2_mul(a, x, poly, degree) ^ y for y in range(q)] for x in range(q)]
            for a in range(1, q)
        ]
    return [[[(a * x + y) % q for y in range(q)] for x in range(q)] for a in range(1, q)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 24])
def test_mols_for_order_matches_the_loop_reference(q):
    assert mols_for_order(q).tolist() == _reference_mols(q)


@pytest.mark.parametrize("q", [3, 8, 24])
def test_mols_squares_are_one_read_only_int32_array(q):
    squares = mols_for_order(q)
    assert isinstance(squares, np.ndarray) and squares.dtype == np.int32
    assert squares.shape == (len(_reference_mols(q)), q, q)
    with pytest.raises(ValueError):
        squares[0, 0, 0] = 0


def test_mols_for_an_order_without_a_field_is_unsupported():
    for m in (6, 9, 12):
        with pytest.raises(UnsupportedOrderError):
            mols_for_order(m)


_Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]  # x + y over Z_3
_Z3_2X = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]  # 2x + y over Z_3
_Z5 = [[[(a * x + y) % 5 for y in range(5)] for x in range(5)] for a in range(1, 5)]


@pytest.mark.parametrize(
    "order, squares, first_pair_error",
    [
        # square 0, row 1 holds symbol 1 twice: row point 1 meets symbol point 6 + 1 twice
        (3, [[[0, 1, 2], [1, 1, 0], [2, 0, 1]], _Z3_2X], ((1, 7), 2)),
        # square 1, column 0 holds symbol 0 twice: column point 3 meets symbol point 9 twice
        (3, [_Z3, [[0, 1, 2], [0, 1, 2], [1, 2, 0]]], ((3, 9), 2)),
        # squares 1 and 4 are the same: their symbol-0 points 15 and 30 meet 5 times
        (5, _Z5 + [_Z5[1]], ((15, 30), 5)),
        (3, [_Z3, _Z3], ((6, 9), 3)),
        # two defects: the least pair, square 0's row 2, is listed first
        (3, [[[0, 1, 2], [1, 2, 0], [2, 0, 0]], [[1, 1, 2], _Z3[1], _Z3[2]]], ((2, 6), 2)),
        (3, [_Z3, [[0, 1, 2], [0, 1, 2], [1, 2, 0]], _Z3], ((3, 9), 2)),
    ],
)
def test_defective_mols_make_a_td_that_fails_verification(order, squares, first_pair_error):
    # the MOLS are not checked when built: verify_gdd on the TD is their check
    mols = np.array(squares, dtype=np.int32)
    report = verify_gdd(td_from_mols(len(mols) + 2, order, mols))
    assert not report.passed
    assert report.label_errors == []
    assert report.pair_errors[0] == first_pair_error


@pytest.mark.parametrize(
    "order, squares",
    [
        (3, [[[0, 1], [1, 0]]]),
        (3, _Z3),
        (3, [[row[:2] for row in _Z3]] * 2),
    ],
)
def test_td_from_mols_rejects_squares_of_the_wrong_shape(order, squares):
    mols = np.array(squares, dtype=np.int32)
    with pytest.raises(GddError, match=rf"^MOLS of shape \(.*\) are not squares of order {order}$"):
        td_from_mols(3, order, mols)


@pytest.mark.parametrize(("build", "message"), [
    (lambda: td_from_mols(1, 3, mols_for_order(3)), "block size must be at least 2"),
    (lambda: inflate(td_from_mols(4, 3, mols_for_order(3)), 0), "weight must be positive"),
], ids=["TD block size 1", "inflate weight 0"])
def test_td_from_mols_and_inflate_reject_sizes_below_their_least(build, message):
    with pytest.raises(GddError, match=f"^{message}$"):
        build()


# --- ingredient file headers -------------------------------------------------


@pytest.mark.parametrize("k", ["x", "0", "1"])
def test_gdd_file_header_needs_a_block_size_of_at_least_two(tmp_path, k):
    text = f"# not a design\ngdd {k} 3^5\n"
    with pytest.raises(IngredientFileError, match=f"^bad.txt line 2: block size '{k}' "):
        parse_gdd_file(text, what="bad.txt")
    shipped = IngredientStore.default().find(4, GddType.parse("3^5"))
    (tmp_path / "bad.txt").write_text(text, encoding="utf-8")
    (tmp_path / "good.txt").write_text(format_gdd_file(shipped), encoding="utf-8")
    found = IngredientStore(tmp_path).find(4, GddType.parse("3^5"))
    assert found is not None and np.array_equal(found.blocks, shipped.blocks)
