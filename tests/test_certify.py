from __future__ import annotations

import random

import numpy as np
import pytest

from design_forge.blocks import develop, k4444_decomposition, paper_base_blocks
from design_forge.certify import (
    Certificate,
    CertificateParseError,
    CertMode,
    certify,
    certify_raw_edges,
    format_certificate,
    parse_certificate,
    read_certificate,
    write_certificate,
)
from design_forge.targets import TargetId, target_graph


def _d97(target=TargetId.SHRIKHANDE):
    return develop(paper_base_blocks(target, 97))


def test_empty_design_of_order_one_passes():
    report = certify(Certificate(TargetId.SHRIKHANDE, 1, CertMode.COMPLETE, ()))
    assert report.passed
    assert report.count_expected == 0


def test_complete_mode_pass_and_counts():
    report = certify(Certificate.from_design(_d97()))
    assert report.passed
    assert report.count_expected == report.count_actual == 97


def test_wrong_block_count_fails():
    design = _d97()
    report = certify(
        Certificate(design.target, design.order, CertMode.COMPLETE, design.blocks[:-1])
    )
    assert not report.passed
    assert report.count_actual == 96
    assert report.pair_errors


def test_swapping_two_labels_in_a_block_fails():
    # positions 1 and 3 sit asymmetrically in the canonical graph, so the
    # swap rewires the block's edge set
    design = _d97()
    blocks = list(design.blocks)
    b = list(blocks[0])
    b[1], b[3] = b[3], b[1]
    blocks[0] = tuple(b)
    report = certify(Certificate(design.target, design.order, CertMode.COMPLETE, tuple(blocks)))
    assert not report.passed
    counts = {count for _, count in report.pair_errors}
    assert 0 in counts and 2 in counts


def test_out_of_range_label_reported():
    design = _d97()
    blocks = list(design.blocks)
    blocks[0] = (99, *blocks[0][1:])
    report = certify(Certificate(design.target, design.order, CertMode.COMPLETE, tuple(blocks)))
    assert not report.passed
    assert report.label_errors


def test_four_partite_mode_passes_for_k4444_pieces():
    for target in TargetId:
        cert = Certificate(
            target, 16, CertMode.FOUR_PARTITE, tuple(k4444_decomposition(target))
        )
        report = certify(cert)
        assert report.passed, report.summary()
        assert report.count_expected == 2


def test_four_partite_rejects_intra_part_pairs():
    # a complete-order-16 style block covers residue-equal pairs, which the
    # 4-partite mode must flag
    cert = Certificate(
        TargetId.SHRIKHANDE, 16, CertMode.FOUR_PARTITE, (tuple(range(16)), tuple(range(16)))
    )
    report = certify(cert)
    assert not report.passed


def test_certify_raw_edges_agrees_with_tuple_mode():
    design = _d97()
    goal = target_graph(design.target)
    parts = [
        [(block[u - 1], block[v - 1]) for u, v in goal.graph.edges]
        for block in design.blocks
    ]
    report = certify_raw_edges(97, parts, design.target)
    assert report.passed


def test_certify_raw_edges_empty_partition_of_order_one_passes():
    report = certify_raw_edges(1, [], TargetId.SHRIKHANDE)
    assert report.passed
    assert report.count_expected == 0


def test_certify_raw_edges_flags_a_part_of_the_wrong_target():
    # swap one shrikhande part for line graph edges over the same 16 points:
    # the part is a perfectly good 6-regular srg, but not this target
    design = _d97(TargetId.SHRIKHANDE)
    goal = target_graph(TargetId.SHRIKHANDE)
    wrong = target_graph(TargetId.LINE_K44)
    parts = [
        [(block[u - 1], block[v - 1]) for u, v in goal.graph.edges]
        for block in design.blocks
    ]
    parts[0] = [
        (design.blocks[0][u - 1], design.blocks[0][v - 1]) for u, v in wrong.graph.edges
    ]
    report = certify_raw_edges(97, parts, TargetId.SHRIKHANDE)
    assert not report.passed
    assert any("part 0" in msg for msg in report.part_errors)


def test_certify_raw_edges_rejects_a_non_target_part():
    design = _d97()
    goal = target_graph(design.target)
    parts = [
        [(block[u - 1], block[v - 1]) for u, v in goal.graph.edges]
        for block in design.blocks
    ]
    # rewire one part: drop an edge, add a pair that keeps the count at 48
    part = parts[0]
    missing = part.pop()
    part.append((missing[0], (missing[1] + 1) % 97))
    report = certify_raw_edges(97, parts, design.target)
    assert not report.passed


def _d97_parts():
    edges = target_graph(TargetId.SHRIKHANDE).edges
    return [[(row[u - 1], row[v - 1]) for u, v in edges] for row in _d97().blocks.tolist()]


def _loop(part):
    part[0] = (part[0][0], part[0][0])


def _label_97(part):
    part[0] = (part[0][0], 97)


def _repeat_edge(part):
    part[1] = part[0]


def _drop_edge(part):
    part.pop()


def _seventeenth_point(part):
    # the moved edge's far end keeps its other five edges, so 17 points remain
    outside = min(set(range(97)) - {p for e in part for p in e})
    part[0] = (part[0][0], outside)


@pytest.mark.parametrize(
    "edit, errors, message",
    [
        (_loop, "label_errors", "part 0: bad edge ({0},{0})"),
        (_label_97, "label_errors", "part 0: bad edge ({0},97)"),
        (_repeat_edge, "label_errors", "part 0: repeated edge"),
        (_drop_edge, "part_errors", "part 0: 47 edges, want 48"),
        (_seventeenth_point, "part_errors", "part 0: 17 vertices, want 16"),
    ],
)
def test_certify_raw_edges_rejection_messages(edit, errors, message):
    parts = _d97_parts()
    first = parts[0][0][0]
    edit(parts[0])
    report = certify_raw_edges(97, parts, TargetId.SHRIKHANDE)
    assert not report.passed
    assert message.format(first) in getattr(report, errors)


def test_certificate_round_trip(tmp_path):
    design = _d97(TargetId.LINE_K44)
    cert = Certificate.from_design(design)
    path = tmp_path / "d97.cert"
    write_certificate(cert, path)
    again = read_certificate(path)
    assert again == cert


def test_format_starts_with_design_header():
    cert = Certificate.from_design(_d97())
    text = format_certificate(cert)
    assert text.startswith("design shrikhande 97 complete\nblocks 97\n")


def test_parse_skips_comments_and_blank_lines():
    cert = Certificate.from_design(_d97())
    lines = format_certificate(cert).splitlines()
    lines.insert(1, "# a comment")
    lines.insert(0, "")
    again = parse_certificate("\n".join(lines) + "\n")
    assert again == cert


def test_parse_errors_name_the_line():
    with pytest.raises(CertificateParseError) as err:
        parse_certificate("design shrikhande 97 complete\nblocks 2\n0 1 2\n")
    assert err.value.line == 3


def test_unknown_header_keyword_rejected():
    with pytest.raises(CertificateParseError):
        parse_certificate("layout shrikhande 97 complete\nblocks 0\n")


def test_wrong_order_in_header_is_a_failing_report_not_a_parse_error():
    # syntax and semantics stay separate: a well-formed file claiming the
    # wrong order parses fine and fails certification
    text = format_certificate(Certificate.from_design(_d97()))
    text = text.replace("design shrikhande 97", "design shrikhande 193", 1)
    report = certify(parse_certificate(text))
    assert not report.passed
    assert report.count_expected == 386 and report.count_actual == 97


def test_blocks_line_mismatch_is_a_parse_error():
    text = format_certificate(Certificate.from_design(_d97()))
    with pytest.raises(CertificateParseError):
        parse_certificate(text.replace("blocks 97", "blocks 96", 1))
    with pytest.raises(CertificateParseError):
        parse_certificate(text.replace("blocks 97", "blocks 98", 1))


def test_soundness_random_single_label_mutations_all_fail():
    rng = random.Random(424242)
    design = _d97()
    cert = Certificate.from_design(design)
    for _ in range(60):
        blocks = list(cert.blocks)
        i = rng.randrange(len(blocks))
        b = list(blocks[i])
        pos = rng.randrange(16)
        b[pos] = (b[pos] + rng.randrange(1, 97)) % 97
        blocks[i] = tuple(b)
        report = certify(Certificate(cert.target, cert.order, cert.mode, tuple(blocks)))
        assert not report.passed


def test_certificate_blocks_are_a_read_only_int32_array_from_any_rows():
    design = _d97()
    rows = tuple(map(tuple, design.blocks.tolist()))
    cert = Certificate(design.target, design.order, CertMode.COMPLETE, rows)
    assert cert.blocks.shape == (97, 16) and cert.blocks.dtype == np.int32
    with pytest.raises(ValueError):
        cert.blocks[0, 0] = 1
    assert cert == Certificate.from_design(design)
    assert certify(cert).passed
    parsed = parse_certificate(format_certificate(cert))
    assert parsed.blocks.dtype == np.int32 and not parsed.blocks.flags.writeable
    with pytest.raises(ValueError):
        Certificate(design.target, design.order, CertMode.COMPLETE, (tuple(range(15)),))


def test_label_errors_are_listed_by_block_index():
    design = _d97()
    blocks = design.blocks.copy()
    blocks[7, 0] = 97  # out of range and, after the next line, repeated too
    blocks[7, 1] = 97
    blocks[2, 3] = blocks[2, 4]
    blocks[5, 9] = -1
    report = certify(Certificate(design.target, 97, CertMode.COMPLETE, blocks))
    assert report.label_errors == [
        "block 2: repeated label",
        "block 5: label out of range 0..96",
        "block 7: label out of range 0..96",
    ]
    assert not report.passed


def test_label_too_large_for_int32_is_a_parse_error_on_its_line():
    text = format_certificate(Certificate.from_design(_d97()))
    lines = text.splitlines()
    lines.insert(1, "# a comment")
    lines[6] = str(2**31) + lines[6][lines[6].index(" "):]
    with pytest.raises(CertificateParseError) as err:
        parse_certificate("\n".join(lines) + "\n")
    assert err.value.line == 7
    assert "32 bits" in str(err.value)
