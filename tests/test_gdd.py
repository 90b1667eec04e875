from __future__ import annotations

import pytest

from design_forge.gdd import (
    BudgetExhaustedError,
    Gdd,
    GddError,
    GddType,
    IngredientFileError,
    IngredientStore,
    IngredientUnavailableError,
    exact_cover_search,
    format_gdd_file,
    gdd_24_t,
    inflate,
    kronecker_mols,
    mols_binary_field,
    mols_for_order,
    mols_prime_power,
    parse_gdd_file,
    read_gdd_file,
    td_from_mols,
    verify_gdd,
    write_gdd_file,
)


def test_gdd_type_parsing_and_printing():
    t = GddType.parse("24^5")
    assert t.point_count() == 120
    assert str(t) == "24^5"
    assert GddType.of(3, 5) == GddType.parse("3^5")
    with pytest.raises(GddError):
        GddType.parse("24^")
    with pytest.raises(GddError):
        GddType.parse("0^4")


def test_mols_prime_power_counts():
    assert len(mols_prime_power(2).squares) == 1
    assert len(mols_prime_power(3).squares) == 2
    assert len(mols_prime_power(5).squares) == 4
    assert len(mols_binary_field(4).squares) == 3
    assert len(mols_binary_field(8).squares) == 7


def test_trivial_two_gdd_of_type_1_2_passes():
    g = Gdd(
        gdd_type=GddType.of(1, 2),
        k=2,
        groups=((0,), (1,)),
        blocks=((0, 1),),
    )
    report = verify_gdd(g)
    assert report.passed
    assert report.block_count_expected == 1


def test_kronecker_product_order_24():
    m = kronecker_mols(mols_binary_field(8), mols_prime_power(3))
    assert m.order == 24
    assert len(m.squares) == 2
    assert mols_for_order(24).order == 24


def test_td_4_3_has_nine_blocks():
    td = td_from_mols(4, 3, mols_prime_power(3))
    assert td.gdd_type == GddType.of(3, 4)
    assert len(td.blocks) == 9
    assert verify_gdd(td).passed


def test_td_4_24_has_576_blocks():
    td = td_from_mols(4, 24, mols_for_order(24))
    assert len(td.blocks) == 576
    report = verify_gdd(td)
    assert report.passed
    assert report.block_count_expected == 576


def test_td_4_2_is_unavailable():
    # needs 2 orthogonal latin squares of order 2; there is only 1
    with pytest.raises(IngredientUnavailableError):
        td_from_mols(4, 2, mols_prime_power(2))


def test_verify_gdd_catches_an_intra_group_block():
    td = td_from_mols(4, 3, mols_prime_power(3))
    tampered = Gdd(
        gdd_type=td.gdd_type,
        k=td.k,
        groups=td.groups,
        blocks=td.blocks[:-1] + ((0, 1, 4, 7),),
    )
    report = verify_gdd(tampered)
    assert not report.passed
    assert report.block_errors or report.pair_errors


def test_verify_gdd_catches_a_dropped_block():
    td = td_from_mols(4, 3, mols_prime_power(3))
    report = verify_gdd(
        Gdd(gdd_type=td.gdd_type, k=td.k, groups=td.groups, blocks=td.blocks[:-1])
    )
    assert not report.passed
    assert report.block_count_actual == 8
    # each block covers 6 cross pairs, so exactly 6 go uncovered
    assert len(report.pair_errors) == 6
    assert all(count == 0 for _, count in report.pair_errors)


def test_inflate_by_weight_one_is_identity_on_counts():
    td = td_from_mols(4, 3, mols_prime_power(3))
    out = inflate(td, 1)
    assert out.gdd_type == td.gdd_type
    assert len(out.blocks) == len(td.blocks)


def test_inflate_multiplies_blocks_by_weight_squared():
    td = td_from_mols(4, 3, mols_prime_power(3))
    out = inflate(td, 3)
    assert out.gdd_type == GddType.of(9, 4)
    assert len(out.blocks) == 9 * 9
    assert verify_gdd(out).passed


def test_inflating_type_3_4_by_weight_8_reaches_type_24_4():
    # alternative route to the t = 4 ingredient
    td = td_from_mols(4, 3, mols_prime_power(3))
    out = inflate(td, 8)
    assert out.gdd_type == GddType.of(24, 4)
    assert len(out.blocks) == 9 * 64
    assert verify_gdd(out).passed


def test_exact_cover_type_1_4_is_the_single_block():
    found = exact_cover_search(GddType.of(1, 4), 4)
    assert found is not None
    assert found.blocks == ((0, 1, 2, 3),)


def test_exact_cover_finds_type_3_5():
    found = exact_cover_search(GddType.parse("3^5"), 4)
    assert found is not None
    assert len(found.blocks) == 15
    assert verify_gdd(found).passed


def test_exact_cover_is_deterministic_for_a_seed():
    a = exact_cover_search(GddType.parse("3^5"), 4, seed=3)
    b = exact_cover_search(GddType.parse("3^5"), 4, seed=3)
    assert a is not None and b is not None
    assert a.blocks == b.blocks


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
    assert err.value.nodes >= 1_000


def test_gdd_file_round_trip(tmp_path):
    td = td_from_mols(4, 3, mols_prime_power(3))
    path = tmp_path / "td43.txt"
    write_gdd_file(td, path)
    again = read_gdd_file(path)
    assert again.gdd_type == td.gdd_type
    assert again.blocks == td.blocks
    assert again.groups == td.groups


def test_gdd_file_with_a_bad_block_is_rejected(tmp_path):
    td = td_from_mols(4, 3, mols_prime_power(3))
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
    assert found.blocks == shipped.blocks
    assert IngredientStore(tmp_path).find(4, GddType.parse("3^5")) is None
