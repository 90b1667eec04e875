from __future__ import annotations

import numpy as np
import pytest

from design_forge.assemble import _assembled_blocks, admissible, construct_design
from design_forge.blocks import develop, k4444_decomposition, paper_base_blocks
from design_forge.certify import certify
from design_forge.gdd import IngredientStore, gdd_24_t
from design_forge.targets import TargetId


def test_admissible_matches_the_arithmetic_form():
    admitted = [n for n in range(1, 1000) if admissible(n)]
    assert admitted == [1, 97, 193, 289, 385, 481, 577, 673, 769, 865, 961]


def test_admissible_rejects_nonpositive():
    with pytest.raises(ValueError):
        admissible(0)


@pytest.mark.parametrize("t", [4, 5])
@pytest.mark.parametrize("target", list(TargetId))
def test_assembly_follows_the_documented_point_naming(target, t):
    base = gdd_24_t(t)
    out = _assembled_blocks(target, base, t)
    assert out.dtype == np.int32
    g = len(base.blocks)
    assert out.shape == (2 * g + 97 * t, 16)
    # rows 2j and 2j+1: label l goes to 4 * p[l % 4] + l // 4, p block j ascending
    dec = k4444_decomposition(target)
    for j, block in enumerate(base.blocks.tolist()):
        p = sorted(block)
        assert out[2 * j:2 * j + 2].tolist() == [[4 * p[l % 4] + l // 4 for l in d] for d in dec]
    # the 97 rows of overlay i: x < 96 goes to 96i + x, 96 to the new point 96t
    d97 = develop(paper_base_blocks(target, 97)).blocks.tolist()
    for i in range(t):
        overlay = out[2 * g + 97 * i:2 * g + 97 * (i + 1)]
        assert overlay.tolist() == [[96 * i + x if x < 96 else 96 * t for x in row]
                                    for row in d97]


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
