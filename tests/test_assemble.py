from __future__ import annotations

import pytest

from design_forge.assemble import (
    admissible,
    construct_design,
    inflate_block_to_k4444,
    overlay_group,
)
from design_forge.blocks import develop, k4444_decomposition, paper_base_blocks
from design_forge.certify import certify
from design_forge.gdd import IngredientStore
from design_forge.targets import TargetId


def test_admissible_matches_the_arithmetic_form():
    admitted = [n for n in range(1, 1000) if admissible(n)]
    assert admitted == [1, 97, 193, 289, 385, 481, 577, 673, 769, 865, 961]


def test_admissible_rejects_nonpositive():
    with pytest.raises(ValueError):
        admissible(0)


def test_inflate_block_covers_cross_pairs_of_the_right_points():
    dec = k4444_decomposition(TargetId.SHRIKHANDE)
    out = inflate_block_to_k4444((2, 0, 7, 5), dec)
    assert len(out) == 2
    points = sorted(set(out[0]) | set(out[1]))
    want = sorted(4 * p + j for p in (0, 2, 5, 7) for j in range(4))
    assert points == want


def test_overlay_group_uses_all_96_points_plus_infinity():
    d97 = develop(paper_base_blocks(TargetId.SHRIKHANDE, 97))
    group = tuple(range(24))
    out = overlay_group(group, d97, 500)
    assert len(out) == 97
    used = set()
    for block in out:
        used.update(block)
    assert used == set(range(96)) | {500}


def test_construct_order_one_is_empty():
    d = construct_design(TargetId.SHRIKHANDE, 1)
    assert d.blocks.shape == (0, 16)
    assert certify(d).passed


def test_construct_direct_orders():
    for n in (97, 193, 289):
        d = construct_design(TargetId.LINE_K44, n)
        assert len(d.blocks) == n * (n - 1) // 96


def test_construct_rejects_inadmissible_orders():
    for n in (2, 16, 96, 98, 192):
        with pytest.raises(ValueError):
            construct_design(TargetId.SHRIKHANDE, n)


def test_construct_order_385_both_targets():
    for target in TargetId:
        d = construct_design(target, 385)
        assert len(d.blocks) == 1540
        assert certify(d).passed


def test_construct_order_481_uses_the_ingredient_store():
    d = construct_design(TargetId.SHRIKHANDE, 481)
    assert len(d.blocks) == 2405


def test_construct_order_481_with_empty_store_regenerates(tmp_path):
    d = construct_design(TargetId.SHRIKHANDE, 481, IngredientStore(tmp_path))
    assert len(d.blocks) == 2405


def test_block_count_formula():
    # t(96t+1) blocks at order 96t+1
    for t, n in ((4, 385), (5, 481)):
        assert n * (n - 1) // 96 == t * (96 * t + 1)
