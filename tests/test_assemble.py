from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from design_forge.assemble import _assembled_slices, _SLICE_ROWS, admissible, construct_design
from design_forge.blocks import develop, k4444_decomposition, paper_base_blocks
from design_forge.certify import certify, format_certificate, write_certificate
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
    out = np.concatenate(list(_assembled_slices(target, base, t)()))
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


def _reference_assembled_blocks(target, base, t):
    # the assembly as two whole-array expressions, before it was written in
    # place and then sliced
    dec = np.array(k4444_decomposition(target), dtype=np.int32)
    pieces = 4 * base.blocks[:, dec % 4] + dec // 4
    d97 = develop(paper_base_blocks(target, 97)).blocks
    shift = 96 * np.arange(t, dtype=np.int32)[:, None, None]
    overlays = np.where(d97 == 96, np.int32(96 * t), d97 + shift)
    return np.concatenate((pieces.reshape(-1, 16), overlays.reshape(-1, 16)))


@pytest.mark.parametrize("t", [4, 5])
@pytest.mark.parametrize("target", list(TargetId))
def test_assembly_slices_join_to_the_whole_array_expressions(target, t):
    base = gdd_24_t(t)
    slices = _assembled_slices(target, base, t)
    first, again = list(slices()), list(slices())
    # pieces of _SLICE_ROWS rows, the last of them shorter, then one overlay per group
    pieces = -(-2 * len(base.blocks) // _SLICE_ROWS)
    assert [len(s) for s in first[:pieces - 1]] == [_SLICE_ROWS] * (pieces - 1)
    assert [len(s) for s in first[pieces:]] == [97] * t
    reference = _reference_assembled_blocks(target, base, t)
    for made in (first, again):  # made afresh on every call
        out = np.concatenate(made)
        assert out.dtype == reference.dtype == np.int32
        assert np.array_equal(out, reference)


@pytest.mark.parametrize("n", [1, 97, 385])
def test_construct_writes_what_it_returns(tmp_path, n):
    # with out, the slices made again after the count pass are written, and
    # nothing is returned; without, they are joined into the Certificate
    out = tmp_path / "d.cert"
    assert construct_design(TargetId.LINE_K44, n, out=out) is None
    assert out.read_bytes() == format_certificate(construct_design(TargetId.LINE_K44, n)).encode()


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


def test_construct_and_write_of_481_peak_under_0_42_mib(tmp_path):
    # the uint8 counts of its 115,440 pairs with one slice, then the
    # 2405-row block array joined from the slices beside them (0.335 MiB
    # measured, warm); 1024-row label and 512-row write slices keep every
    # other stage below that (0.524 MiB before them)
    construct_design(TargetId.LINE_K44, 481)  # the first call loads the catalog
    gc.collect()
    tracemalloc.start()
    try:
        write_certificate(construct_design(TargetId.LINE_K44, 481), tmp_path / "d481.cert")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.42 * 2**20
