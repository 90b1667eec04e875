"""Acceptance checks for the whole toolkit, one test per criterion.

Each test prints a single pass/fail line (shown under pytest -v -s or -rP)
and asserts correctness exactly; stated time bounds are asserted too.
"""

from __future__ import annotations

import random
import time

from design_forge.assemble import admissible, construct_design
from design_forge.blocks import (
    BaseBlock,
    DevelopmentError,
    catalog,
    develop,
    difference_transversal_check,
    k4444_decomposition,
    paper_base_blocks,
)
from design_forge.certify import Certificate, CertMode, certify
from design_forge.gdd import (
    GddType,
    IngredientStore,
    exact_cover_search,
    gdd_24_t,
    inflate,
    kronecker_mols,
    mols_for_order,
    td_from_mols,
    verify_gdd,
)
from design_forge.targets import TargetId, is_isomorphic, line_k44, shrikhande, srg_parameters

EXPECTED_BLOCK_COUNT = {97: 97, 193: 386, 289: 867}


def _line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_catalog_designs_reproduce_exactly():
    worst = 0.0
    ok = True
    for target in TargetId:
        for n in (97, 193, 289):
            t0 = time.perf_counter()
            design = develop(paper_base_blocks(target, n))
            report = certify(Certificate.from_design(design))
            elapsed = time.perf_counter() - t0
            worst = max(worst, elapsed)
            ok = ok and report.passed and len(design.blocks) == EXPECTED_BLOCK_COUNT[n]
            ok = ok and elapsed < 1.0
    _line(1, ok, f"6 designs, 97/386/867 blocks, worst {worst:.3f}s < 1s")


def test_criterion_2_k4444_decompositions_certify_four_partite():
    t0 = time.perf_counter()
    ok = True
    for target in TargetId:
        cert = Certificate(target, 16, CertMode.FOUR_PARTITE, tuple(k4444_decomposition(target)))
        report = certify(cert)
        ok = ok and report.passed and report.count_expected == 2
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 0.1
    _line(2, ok, f"both targets, 2 blocks, 96 cross pairs once, {elapsed:.3f}s < 0.1s")


def test_criterion_3_order_385_end_to_end():
    t0 = time.perf_counter()
    ok = True
    for target in TargetId:
        design = construct_design(target, 385)
        report = certify(Certificate.from_design(design))
        ok = ok and report.passed and len(design.blocks) == 1540
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _line(3, ok, f"order 385 both targets, 1540 blocks each, {elapsed:.2f}s < 10s")


def test_criterion_4_order_481_with_store_and_with_regeneration(tmp_path):
    design = construct_design(TargetId.SHRIKHANDE, 481)
    ok = len(design.blocks) == 2405

    # empty store: the pipeline must regenerate type 3^5 and still pass
    t0 = time.perf_counter()
    regen = exact_cover_search(GddType.parse("3^5"), 4)
    regen_elapsed = time.perf_counter() - t0
    ok = ok and regen is not None and len(regen.blocks) == 15 and regen_elapsed < 60.0

    design2 = construct_design(TargetId.LINE_K44, 481, IngredientStore(tmp_path))
    ok = ok and len(design2.blocks) == 2405
    _line(4, ok, f"order 481 via store and via 3^5 regeneration ({regen_elapsed:.2f}s < 60s), 2405 blocks")


def test_criterion_5_td_4_24_from_kronecker_mols():
    t0 = time.perf_counter()
    mols = kronecker_mols(mols_for_order(8), mols_for_order(3))
    td = td_from_mols(4, 24, mols)
    report = verify_gdd(td)
    cross_pairs = 6 * 24 * 24
    elapsed = time.perf_counter() - t0
    ok = (
        report.passed
        and len(td.blocks) == 576
        and cross_pairs == 3456
        and report.block_count_expected == cross_pairs // 6
        and elapsed < 5.0
    )
    _line(5, ok, f"TD(4,24): 576 blocks, 3456 cross pairs once, {elapsed:.2f}s < 5s")


def test_criterion_6_structure_checks():
    t0 = time.perf_counter()
    ok = srg_parameters(shrikhande().graph) == (16, 6, 2, 2)
    ok = ok and srg_parameters(line_k44().graph) == (16, 6, 2, 2)
    for target in (shrikhande(), line_k44()):
        g = target.graph
        for u in range(1, 17):
            for v in range(1, 17):
                # entry (u,v) of A^2 counts common neighbors
                entry = (g.adjacency[u] & g.adjacency[v]).bit_count()
                ok = ok and entry == (6 if u == v else 2)
    ok = ok and is_isomorphic(shrikhande().graph, line_k44().graph) is None
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _line(6, ok, f"srg(16,6,2,2) both, A^2 = 2J + 4I, non-isomorphic, {elapsed:.2f}s < 5s")


def _develop_certifies(block: BaseBlock) -> bool:
    try:
        design = develop(block)
    except DevelopmentError:
        return False
    return certify(Certificate.from_design(design)).passed


def test_criterion_7_transversal_criterion_equals_develop_and_certify():
    rng = random.Random(20260816)
    checked = 0
    ok = True
    t0 = time.perf_counter()
    for (_, _), block in sorted(catalog().items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        ok = ok and difference_transversal_check(block) and _develop_certifies(block)
        n = block.ring.order
        for _ in range(100):
            labels = list(block.labels)
            pos = rng.randrange(16)
            labels[pos] = (labels[pos] + rng.randrange(1, n)) % n
            mutated = BaseBlock(tuple(labels), block.target, block.ring, block.omega)
            ok = ok and difference_transversal_check(mutated) == _develop_certifies(mutated)
            checked += 1
    elapsed = time.perf_counter() - t0
    _line(7, ok, f"6 catalog blocks + {checked} mutations agree, {elapsed:.1f}s")


def test_criterion_8_certifier_rejects_every_single_label_mutation():
    rng = random.Random(8128)
    ok = True
    rejected = 0
    for n in (97, 385):
        cert = Certificate.from_design(construct_design(TargetId.SHRIKHANDE, n))
        assert certify(cert).passed
        for _ in range(100):
            blocks = list(cert.blocks)
            i = rng.randrange(len(blocks))
            b = list(blocks[i])
            pos = rng.randrange(16)
            b[pos] = (b[pos] + rng.randrange(1, n)) % n
            blocks[i] = tuple(b)
            mutated = Certificate(cert.target, cert.order, cert.mode, tuple(blocks))
            ok = ok and not certify(mutated).passed
            rejected += 1
    _line(8, ok, f"{rejected}/200 mutations rejected at orders 97 and 385")


def test_criterion_9_admissibility_matches_the_divisibility_clauses():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 10_001):
        clauses = (n >= 16 or n == 1) and n * (n - 1) % 96 == 0 and (n - 1) % 6 == 0
        ok = ok and admissible(n) == clauses == (n == 1 or n % 96 == 1)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _line(9, ok, f"n <= 10000, matches clauses and 96t+1 exactly, {elapsed:.2f}s < 1s")
