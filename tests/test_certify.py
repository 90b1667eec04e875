from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from design_forge.blocks import develop, k4444_decomposition, paper_base_blocks
from design_forge.certify import (
    Certificate,
    CertificateParseError,
    CertMode,
    PairCounter,
    certify,
    certify_raw_edges,
    format_certificate,
    parse_certificate,
    read_certificate,
    write_certificate,
)
from design_forge.gdd import mols_for_order, td_from_mols, verify_gdd
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


# --- the pair counter against the parent's pair counting -------------------
#
# _pair_from_index, _count_pair_coverage, the pair part of certify and the
# counting loop of certify_raw_edges as they were before PairCounter, kept
# verbatim as references.


def _pair_from_index(i: int) -> tuple[int, int]:
    v = int((1 + (1 + 8 * i) ** 0.5) // 2)
    while v * (v - 1) // 2 > i:
        v -= 1
    while (v + 1) * v // 2 <= i:
        v += 1
    return (i - v * (v - 1) // 2, v)


def _count_pair_coverage(n, blocks, edges):
    """Exact coverage counter over all n(n-1)/2 pairs, one cell per pair."""
    iu, iv = (np.array(ends) - 1 for ends in zip(*edges))
    a, b = blocks[:, iu], blocks[:, iv]
    hi = np.maximum(a, b).astype(np.int64)
    return np.bincount((hi * (hi - 1) // 2 + np.minimum(a, b)).ravel(), minlength=n * (n - 1) // 2)


def _reference_certify_pair_errors(cert):
    n, mode, blocks = cert.order, cert.mode, cert.blocks
    out_of_range = ((blocks < 0) | (blocks >= n)).any(axis=1)
    ordered = np.sort(blocks, axis=1)
    bad = out_of_range | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    counts = _count_pair_coverage(n, blocks[~bad], target_graph(cert.target).edges)
    if mode is CertMode.FOUR_PARTITE:
        want = np.array(
            [1 if u % 4 != v % 4 else 0 for v in range(n) for u in range(v)],
            dtype=np.int64,
        )
    else:
        want = 1
    pair_errors = []
    for i in np.flatnonzero(counts != want).tolist():
        pair_errors.append((_pair_from_index(i), int(counts[i])))
    return pair_errors


def _reference_raw_pair_errors(n, edge_partition):
    counts = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    for part in edge_partition:
        edges = []
        for u, v in part:
            if u == v or not (0 <= u < n and 0 <= v < n):
                continue
            edges.append((u, v) if u < v else (v, u))
        for u, v in edges:
            counts[v * (v - 1) // 2 + u] += 1  # pair {u, v} with u < v
    pair_errors = []
    for i in np.nonzero(counts != 1)[0]:
        pair_errors.append((_pair_from_index(int(i)), int(counts[i])))
    return pair_errors


def _corrupt(blocks, n, rng):
    """A few seeded edits: labels moved (out of range too) or repeated
    inside their block, which repeats raw edges, and blocks repeated,
    dropped or swapped for another's."""
    rows = blocks.tolist()
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(5)
        if kind == 0:
            rows[rng.randrange(len(rows))][rng.randrange(16)] = rng.randrange(-1, n + 1)
        elif kind == 4:
            row = rows[rng.randrange(len(rows))]
            row[rng.randrange(16)] = row[rng.randrange(16)]
        elif kind == 1:
            rows.extend([list(rng.choice(rows))] * rng.choice((1, 2, 200)))
        elif kind == 2 and len(rows) > 1:
            rows.pop(rng.randrange(len(rows)))
        else:
            rows[rng.randrange(len(rows))] = list(rng.choice(rows))
    return rows


def _capped(pair_errors):
    """The one intended difference: reports cap counts at 255."""
    return [(pair, min(count, 255)) for pair, count in pair_errors]


@pytest.mark.parametrize("seed", range(8))
def test_pair_errors_match_the_parent_counting(seed):
    rng = random.Random(seed)
    n = (97, 193)[seed % 2]
    target = (TargetId.SHRIKHANDE, TargetId.LINE_K44)[seed // 2 % 2]
    rows = _corrupt(develop(paper_base_blocks(target, n)).blocks, n, rng)
    cert = Certificate(target, n, CertMode.COMPLETE, rows)
    assert certify(cert).pair_errors == _capped(_reference_certify_pair_errors(cert))
    edges = target_graph(target).edges
    parts = [[(row[u - 1], row[v - 1]) for u, v in edges] for row in rows]
    report = certify_raw_edges(n, parts, target)
    assert report.pair_errors == _capped(_reference_raw_pair_errors(n, parts))

    pieces = np.array(k4444_decomposition(target))
    four = Certificate(target, 16, CertMode.FOUR_PARTITE, _corrupt(pieces, 16, rng))
    assert certify(four).pair_errors == _capped(_reference_certify_pair_errors(four))


def test_a_pair_covered_300_times_reads_255_in_every_report():
    design = _d97()
    report = certify(Certificate(design.target, 97, CertMode.COMPLETE,
                                 np.vstack([design.blocks] + [design.blocks[:1]] * 299)))
    pair = tuple(sorted(design.blocks[0, :2].tolist()))  # canonical vertices 1 and 2 are adjacent
    assert (pair, 255) in report.pair_errors
    assert max(count for _, count in report.pair_errors) == 255

    parts = _d97_parts() + [[pair]] * 299
    report = certify_raw_edges(97, parts, TargetId.SHRIKHANDE)
    assert report.pair_errors == [(pair, 255)]

    td = td_from_mols(4, 3, mols_for_order(3))
    report = verify_gdd(replace(td, blocks=np.vstack([td.blocks] + [td.blocks[:1]] * 299)))
    assert ((0, 3), 255) in report.pair_errors
    assert max(count for _, count in report.pair_errors) == 255


def test_order_two_without_blocks_fails_on_its_uncovered_pair():
    # 2 * 1 / 96 rounds to 0 blocks, so the count matches and the pair counts
    report = certify(Certificate(TargetId.SHRIKHANDE, 2, CertMode.COMPLETE, ()))
    assert (report.count_expected, report.count_actual) == (0, 0)
    assert report.pair_errors == [((0, 1), 0)]
    assert certify_raw_edges(2, [], TargetId.SHRIKHANDE).pair_errors == [((0, 1), 0)]


def test_a_header_the_blocks_cannot_bear_out_fails_on_the_count_alone():
    n = 1_000_000_001
    for report in (certify(Certificate(TargetId.SHRIKHANDE, n, CertMode.COMPLETE, ())),
                   certify_raw_edges(n, [], TargetId.SHRIKHANDE)):
        assert not report.passed
        assert (report.count_expected, report.count_actual) == (n * (n - 1) // 96, 0)
        assert (report.label_errors, report.pair_errors, report.part_errors) == ([], [], [])


def _loop_pair_errors(n, pairs, groups):
    group_of = {p: i for i, group in enumerate(groups) for p in group}
    counts = {}
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        counts[key] = counts.get(key, 0) + 1
    errors = []
    for v in range(n):
        for u in range(v):
            count = counts.get((u, v), 0)
            across = not groups or group_of[u] != group_of[v]
            if count != (1 if across else 0):
                errors.append(((u, v), min(count, 255)))
    return errors


@st.composite
def _counter_inputs(draw):
    n = draw(st.integers(1, 30))
    points = st.integers(-2, n + 1)
    rows = draw(st.lists(st.lists(points, min_size=2, max_size=5), max_size=12))
    copies = draw(st.lists(st.sampled_from((1, 2, 256, 300)), min_size=len(rows),
                           max_size=len(rows)))
    rows = [row for row, c in zip(rows, copies) for _ in range(c)]
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n)))
    groups = [order[a:b] for a, b in zip([0] + cuts, cuts + [n]) if a < b]
    return n, rows, draw(st.sampled_from(((), groups)))


@settings(max_examples=150, deadline=None, database=None)
@given(_counter_inputs())
def test_pair_counter_matches_a_python_loop(data):
    n, rows, groups = data
    # like certify, count only rows of distinct points in range
    kept = [row for row in rows if len(set(row)) == len(row) and all(0 <= p < n for p in row)]
    pairs = [(row[i], row[j]) for row in kept for i in range(len(row)) for j in range(i)]
    counter = PairCounter(n)
    counter.add(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)
    assert counter.errors(groups) == _loop_pair_errors(n, pairs, groups)
