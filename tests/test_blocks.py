from __future__ import annotations

import random

import numpy as np
import pytest

from design_forge.algebra import NotASubgroupError, Ring
from design_forge.blocks import (
    BaseBlock,
    DevelopmentError,
    DuplicateLabelError,
    NotInCatalogError,
    catalog,
    develop,
    difference_transversal_check,
    k4444_decomposition,
    paper_base_blocks,
)
from design_forge.certify import Certificate, certify
from design_forge.targets import TargetId

ALL_CATALOG = sorted(catalog().items(), key=lambda kv: (kv[0][0].value, kv[0][1]))
EXPECTED_BLOCKS = {97: 97, 193: 386, 289: 867}


def test_catalog_has_all_six_entries():
    assert len(ALL_CATALOG) == 6
    for target in TargetId:
        for n in (97, 193, 289):
            block = paper_base_blocks(target, n)
            assert block.target is target
            assert len(block.labels) == 16


def test_catalog_miss_raises():
    with pytest.raises(NotInCatalogError):
        paper_base_blocks(TargetId.SHRIKHANDE, 385)


def test_catalog_pins_known_tuples_and_omegas():
    b = paper_base_blocks(TargetId.SHRIKHANDE, 97)
    assert b.labels == (0, 4, 6, 62, 1, 11, 19, 45, 69, 80, 59, 78, 32, 74, 28, 44)
    assert b.omega == 1
    b = paper_base_blocks(TargetId.SHRIKHANDE, 289)
    assert b.labels == (0, 136, 232, 11, 176, 180, 89, 159, 288, 257, 90, 42, 45, 260, 37, 19)
    assert b.omega == 139
    b = paper_base_blocks(TargetId.LINE_K44, 193)
    assert b.labels == (0, 19, 167, 32, 3, 78, 159, 28, 34, 24, 141, 87, 1, 118, 183, 39)
    assert b.omega == 81


def test_develop_block_counts():
    for (target, n), block in ALL_CATALOG:
        design = develop(block)
        assert design.order == n
        assert len(design.blocks) == EXPECTED_BLOCKS[n]
        assert len(set(map(tuple, design.blocks.tolist()))) == EXPECTED_BLOCKS[n]


def test_developed_designs_certify():
    for (_, n), block in ALL_CATALOG:
        report = certify(Certificate.from_design(develop(block)))
        assert report.passed, f"order {n}: {report.summary()}"


def test_difference_transversal_holds_for_catalog_blocks():
    for _, block in ALL_CATALOG:
        assert difference_transversal_check(block)


def test_difference_transversal_rejects_known_mutation():
    block = paper_base_blocks(TargetId.SHRIKHANDE, 97)
    labels = list(block.labels)
    assert labels[-1] == 44
    labels[-1] = 45
    mutated = BaseBlock(tuple(labels), block.target, block.ring, block.omega)
    assert not difference_transversal_check(mutated)


def test_duplicate_labels_fail_both_oracles():
    block = paper_base_blocks(TargetId.LINE_K44, 97)
    labels = list(block.labels)
    labels[3] = labels[0]
    mutated = BaseBlock(tuple(labels), block.target, block.ring, block.omega)
    assert not difference_transversal_check(mutated)
    with pytest.raises(DuplicateLabelError):
        develop(mutated)


def test_exponent_count_requires_admissible_order():
    f = Ring.field(97)
    block = paper_base_blocks(TargetId.SHRIKHANDE, 97)
    assert block.exponent_count == 1
    assert paper_base_blocks(TargetId.SHRIKHANDE, 193).exponent_count == 2
    assert paper_base_blocks(TargetId.SHRIKHANDE, 289).exponent_count == 3
    with pytest.raises(ValueError):
        BaseBlock(block.labels, block.target, Ring.field(101), 1).exponent_count


def test_k4444_decompositions_are_two_blocks_of_16():
    for target in TargetId:
        blocks = k4444_decomposition(target)
        assert len(blocks) == 2
        for b in blocks:
            assert len(b) == 16
            assert sorted(b) == list(range(16))


def test_k4444_first_tuples_are_pinned():
    assert k4444_decomposition(TargetId.SHRIKHANDE)[0] == (
        0, 1, 2, 5, 3, 4, 7, 6, 10, 9, 8, 13, 11, 14, 15, 12
    )
    assert k4444_decomposition(TargetId.LINE_K44)[0] == (
        0, 1, 2, 3, 5, 6, 7, 4, 11, 10, 15, 14, 8, 9, 13, 12
    )


def test_k4444_blocks_only_cover_cross_residue_pairs():
    from design_forge.targets import target_graph

    for target in TargetId:
        goal = target_graph(target)
        for block in k4444_decomposition(target):
            for u, v in goal.graph.edges:
                assert block[u - 1] % 4 != block[v - 1] % 4


def test_develop_includes_the_identity_translate():
    for _, block in ALL_CATALOG:
        design = develop(block)
        assert block.labels in map(tuple, design.blocks.tolist())


def test_random_label_mutations_agree_with_develop_and_certify():
    # the transversal criterion must match the definitional check on
    # arbitrary single-label edits, not only on the catalog blocks
    rng = random.Random(99)
    for _, block in ALL_CATALOG[:2]:
        n = block.ring.order
        for _ in range(25):
            labels = list(block.labels)
            pos = rng.randrange(16)
            labels[pos] = (labels[pos] + rng.randrange(1, n)) % n
            mutated = BaseBlock(tuple(labels), block.target, block.ring, block.omega)
            fast = difference_transversal_check(mutated)
            try:
                slow = certify(Certificate.from_design(develop(mutated))).passed
            except DevelopmentError:
                slow = False
            assert fast == slow


def test_designs_hold_one_read_only_int32_array():
    from design_forge.assemble import construct_design

    developed = develop(paper_base_blocks(TargetId.LINE_K44, 289))
    assembled = construct_design(TargetId.LINE_K44, 385)
    for design, count in ((developed, 867), (assembled, 1540)):
        assert design.blocks.shape == (count, 16)
        assert design.blocks.dtype == np.int32
        assert design.blocks.flags.c_contiguous
        with pytest.raises(ValueError):
            design.blocks[0, 0] = 1


def test_duplicate_label_error_names_the_first_bad_tuple():
    block = paper_base_blocks(TargetId.SHRIKHANDE, 193)
    labels = list(block.labels)
    labels[5] = labels[2]
    mutated = BaseBlock(tuple(labels), block.target, block.ring, block.omega)
    with pytest.raises(DuplicateLabelError, match=r"e=0, d=0 "):
        develop(mutated)


def test_develop_rejects_an_omega_whose_signed_powers_are_no_subgroup():
    block = paper_base_blocks(TargetId.SHRIKHANDE, 193)
    bad = BaseBlock(block.labels, block.target, block.ring, 2)  # 2^2 = 4 is not +-1 or +-2
    with pytest.raises(NotASubgroupError):
        develop(bad)
