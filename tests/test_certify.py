from __future__ import annotations

import functools
import gc
import random
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import design_forge.targets as targets_module
from design_forge.assemble import construct_design
from design_forge.blocks import develop, k4444_decomposition, paper_base_blocks
from design_forge.certify import (
    Certificate,
    CertificateParseError,
    CertMode,
    PairCounter,
    _parse_bulk,
    _parse_lines,
    certify,
    certify_raw_edges,
    format_certificate,
    parse_certificate,
    read_certificate,
    write_certificate,
)
from design_forge import cli
from design_forge.cli import main
from design_forge.gdd import mols_for_order, td_from_mols, verify_gdd
from design_forge.targets import SmallGraph, TargetGraph, TargetId, target_graph


def _d97(target=TargetId.SHRIKHANDE):
    return develop(paper_base_blocks(target, 97))


def test_empty_design_of_order_one_passes():
    report = certify(Certificate(TargetId.SHRIKHANDE, 1, CertMode.COMPLETE, ()))
    assert report.passed
    assert report.count_expected == 0


def test_complete_mode_pass_and_counts():
    report = certify(_d97())
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
    for target in TargetId:
        cert = _d97(target)
        report = certify_raw_edges(cert)
        assert report.passed
        assert report == certify(cert)


def test_certify_raw_edges_empty_partition_of_order_one_passes():
    report = certify_raw_edges(Certificate(TargetId.SHRIKHANDE, 1, CertMode.COMPLETE, ()))
    assert report.passed
    assert report.count_expected == 0


@pytest.fixture
def d97_file(tmp_path):
    """A valid shrikhande certificate of order 97, written before any table is altered."""
    path = tmp_path / "d97.cert"
    write_certificate(_d97(), path)
    return path


@pytest.fixture(params=["swapped", "moved"])
def wrong_shrikhande_table(request, monkeypatch, d97_file):
    """The package's shrikhande edge table made wrong for one test: the two
    targets' tables swapped, or one edge {1, 2} moved to the non-edge {1, 3}."""
    tables = targets_module._TARGETS
    sh, lk = tables[TargetId.SHRIKHANDE], tables[TargetId.LINE_K44]
    if request.param == "swapped":
        monkeypatch.setitem(tables, TargetId.SHRIKHANDE, lk)
        monkeypatch.setitem(tables, TargetId.LINE_K44, sh)
    else:
        moved = [e for e in sh.edges if e != (1, 2)] + [(1, 3)]
        # the moved table is not srg(16, 6, 2, 2), which TargetGraph refuses
        monkeypatch.setattr(TargetGraph, "__post_init__", lambda self: None)
        monkeypatch.setitem(tables, TargetId.SHRIKHANDE,
                            TargetGraph(TargetId.SHRIKHANDE, SmallGraph(16, moved)))
    return d97_file


def test_certify_raw_edges_flags_a_wrong_edge_table(wrong_shrikhande_table):
    cert = read_certificate(wrong_shrikhande_table)
    report = certify_raw_edges(cert)
    assert report.part_errors == ["edge table is not the shrikhande graph"]
    assert replace(report, part_errors=[]) == certify(cert)


def test_verify_raw_of_a_valid_file_under_a_wrong_edge_table_exits_1(
        wrong_shrikhande_table, capsys):
    assert main(["verify", "--raw", str(wrong_shrikhande_table)]) == 1
    assert "  part: edge table is not the shrikhande graph\n" in capsys.readouterr().out


def test_swapped_tables_fool_pair_counting_but_not_raw(monkeypatch):
    # lk44's design, claimed as shrikhande: under swapped tables every pair is
    # covered once, and only the definitional check sees the wrong graph
    cert = replace(_d97(TargetId.LINE_K44), target=TargetId.SHRIKHANDE)
    tables = targets_module._TARGETS
    monkeypatch.setitem(tables, TargetId.SHRIKHANDE, tables[TargetId.LINE_K44])
    assert certify(cert).passed
    report = certify_raw_edges(cert)
    assert report.part_errors == ["edge table is not the shrikhande graph"]
    assert replace(report, part_errors=[]) == certify(cert)


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(list(TargetId)),
       st.lists(st.integers(0, 2**31 - 1), min_size=16, max_size=16, unique=True))
def test_a_row_of_distinct_labels_reads_as_a_copy_of_its_table(target, row):
    """Why certify_raw_edges searches no block.  For any row of 16 distinct
    labels and either edge table, v -> row[v-1] is itself an isomorphism from
    the table onto the row's edge set {row[u-1], row[v-1]}, (u, v) over the
    table's edges.  An isomorphism search on that edge set could only
    succeed, so what is left to check is the table against its definition."""
    table = target_graph(target).graph
    read = {frozenset((row[u - 1], row[v - 1])) for u, v in table.edges}
    assert len(read) == len(table.edges)
    for u in range(1, 17):
        for v in range(u + 1, 17):
            assert table.has_edge(u, v) == (frozenset((row[u - 1], row[v - 1])) in read)


def test_verify_raw_of_289_runs_one_isomorphism_search(tmp_path, monkeypatch, capsys):
    path = tmp_path / "d289.cert"
    assert main(["construct", "--graph", "lk44", "--order", "289", "--out", str(path)]) == 0
    calls = []
    search = targets_module.is_isomorphic

    def counted(g, h):
        calls.append((g, h))
        return search(g, h)

    for module in (targets_module, cli):
        monkeypatch.setattr(module, "is_isomorphic", counted)
    assert main(["verify", "--raw", str(path)]) == 0
    assert len(calls) == 1
    assert "PASS (867 blocks" in capsys.readouterr().out


def test_certificate_round_trip(tmp_path):
    cert = _d97(TargetId.LINE_K44)
    path = tmp_path / "d97.cert"
    write_certificate(cert, path)
    again = read_certificate(path)
    assert again == cert


def test_format_starts_with_design_header():
    cert = _d97()
    text = format_certificate(cert)
    assert text.startswith("design shrikhande 97 complete\nblocks 97\n")


def test_parse_skips_comments_and_blank_lines():
    cert = _d97()
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
    text = format_certificate(_d97())
    text = text.replace("design shrikhande 97", "design shrikhande 193", 1)
    report = certify(parse_certificate(text))
    assert not report.passed
    assert report.count_expected == 386 and report.count_actual == 97


def test_blocks_line_mismatch_is_a_parse_error():
    text = format_certificate(_d97())
    with pytest.raises(CertificateParseError):
        parse_certificate(text.replace("blocks 97", "blocks 96", 1))
    with pytest.raises(CertificateParseError):
        parse_certificate(text.replace("blocks 97", "blocks 98", 1))


@pytest.mark.parametrize(
    ("lines", "line", "message"),
    [([], 1, "file ends before the design header"),
     (["# only a comment", ""], 1, "file ends before the design header"),
     (["design shrikhande 97 complete", "", "blocks 2", "# b0", "0 " * 15 + "0",
       "# cut here", "", "# more"], 5, "file ends before block 1"),
     (["design shrikhande 97 complete", "blocks 1", "0 " * 15 + "0", "# after",
       "1 " * 15 + "1", "# end"], 5, "trailing content after last block")],
    ids=["empty", "comments only", "cut after block 0", "extra label line"],
)
def test_a_short_or_long_file_errs_at_its_pinned_line(lines, line, message):
    with pytest.raises(CertificateParseError) as err:
        parse_certificate("\n".join(lines) + "\n")
    assert err.value.line == line
    assert message in str(err.value)


def test_soundness_random_single_label_mutations_all_fail():
    rng = random.Random(424242)
    cert = _d97()
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
    assert cert == design
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
    text = format_certificate(_d97())
    lines = text.splitlines()
    lines.insert(1, "# a comment")
    lines[6] = str(2**31) + lines[6][lines[6].index(" "):]
    with pytest.raises(CertificateParseError) as err:
        parse_certificate("\n".join(lines) + "\n")
    assert err.value.line == 7
    assert "32 bits" in str(err.value)


@pytest.mark.parametrize(
    ("old", "new", "line"),
    [("shrikhande 97", "shrikhande 9_7", 1), ("blocks 97", "blocks \u0669\u0667", 2),
     ("\n0 ", "\n+0 ", 3), ("\n0 ", "\n\u0660 ", 3)],
    ids=["order with an underscore", "arabic-indic block count", "label with a plus sign",
         "arabic-indic label"],
)
def test_integers_other_than_ascii_decimal_are_parse_errors_on_their_line(old, new, line):
    text = format_certificate(_d97())
    assert old in text
    with pytest.raises(CertificateParseError) as err:
        parse_certificate(text.replace(old, new, 1))
    assert err.value.line == line


def test_labels_parse_alike_beside_a_comment_with_other_characters():
    # '+', '_' or non-ASCII text anywhere sends every label line through
    # the per-line check
    cert = _d97()
    lines = format_certificate(cert).splitlines()
    lines.insert(2, "# n = 96t + 1, built_by design-forge \u2014 ok")
    assert parse_certificate("\n".join(lines) + "\n") == cert
    lines[5] = "+" + lines[5]
    with pytest.raises(CertificateParseError) as err:
        parse_certificate("\n".join(lines) + "\n")
    assert err.value.line == 6


# --- the bulk reader against the line parser --------------------------------
#
# parse_certificate reads a well-formed body in one np.loadtxt pass
# (_parse_bulk) and sends every other file to the line parser
# (_parse_lines); either way the outcome must be the line parser's.


@functools.cache
def _d97_lines(target: TargetId) -> tuple[str, ...]:
    return tuple(format_certificate(_d97(target)).split("\n"))


def _outcome(parse, text):
    try:
        return parse(text)
    except CertificateParseError as err:
        return err.line, str(err)


def test_a_formatted_certificate_takes_the_bulk_reader():
    d289 = develop(paper_base_blocks(TargetId.LINE_K44, 289))
    for cert in (_d97(), _d97(TargetId.LINE_K44), d289):
        text = format_certificate(cert)
        assert _parse_bulk(text) == cert == _parse_lines(text)
        bulk = parse_certificate(text).blocks
        assert bulk.dtype == np.int32 and not bulk.flags.writeable


# characters that str.splitlines breaks a line at and "\n".split does not
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_TOKENS = ("+1", "1_0", "1.0", "\u0661\u0660", "-1", str(2**31 - 1), str(2**31), str(2**63),
           "007", "96", "97")


@st.composite
def _mutated_d97_text(draw):
    """A formatted order-97 certificate with up to four line edits: comments,
    blank lines, CRLF, tabs, doubled, leading or trailing spaces, odd
    integer spellings, dropped, extra or cut lines, 15 or 17 labels, and
    every other line break str.splitlines knows."""
    lines = list(_d97_lines(draw(st.sampled_from(list(TargetId)))))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        kind = draw(st.sampled_from((
            "comment", "blank", "crlf", "tab", "double", "lead", "trail", "token", "drop",
            "extra", "cut", "15", "17", "break")))
        if kind == "comment":
            lines.insert(i, "# a comment 1 2 3")
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(("", " ", "  "))))
        elif kind == "crlf":
            lines[i] = line + "\r"
        elif kind in ("tab", "double"):
            lines[i] = line.replace(" ", "\t" if kind == "tab" else "  ", 1)
        elif kind == "lead":
            lines[i] = " " + line
        elif kind == "trail":
            lines[i] = line + " "
        elif kind == "token":
            tokens = line.split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(tokens)
        elif kind == "drop":
            del lines[i]
        elif kind == "extra":
            lines.insert(i, line)
        elif kind == "cut":
            lines[i] = line[:at]
        elif kind == "15":
            lines[i] = line.rsplit(" ", 1)[0]
        elif kind == "17":
            lines[i] = line + " 5"
        else:
            lines[i] = line[:at] + draw(st.sampled_from(_OTHER_BREAKS)) + line[at:]
    return "\n".join(lines)


@settings(max_examples=400, deadline=None, database=None)
@given(_mutated_d97_text())
def test_parse_certificate_reads_what_the_line_parser_reads(text):
    assert _outcome(parse_certificate, text) == _outcome(_parse_lines, text)


@pytest.mark.parametrize("token", _TOKENS)
def test_each_label_spelling_reads_as_the_line_parser_reads_it(token):
    lines = list(_d97_lines(TargetId.SHRIKHANDE))
    for i in (2, 50, len(lines) - 2):
        edited = lines[:i] + [token + lines[i][lines[i].index(" "):]] + lines[i + 1:]
        text = "\n".join(edited)
        assert _outcome(parse_certificate, text) == _outcome(_parse_lines, text)


def _loadtxt_via_float(real):
    # numpy's loadtxt as older releases have it: a field that is no int32
    # is read as a float, with a DeprecationWarning, and cast
    def loadtxt(fname, dtype, **kwargs):
        wide = real(fname, dtype=np.float64, **kwargs)
        if (np.abs(wide) > np.iinfo(dtype).max).any():
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        return wide.astype(dtype)
    return loadtxt


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("numpy_reads", ["installed", "via_float"])
def test_a_label_beyond_int32_errs_at_its_line_whatever_the_warning_filter(numpy_reads, monkeypatch):
    if numpy_reads == "via_float":
        monkeypatch.setattr(np, "loadtxt", _loadtxt_via_float(np.loadtxt))
    lines = list(_d97_lines(TargetId.SHRIKHANDE))
    lines[50] = str(2**31) + lines[50][lines[50].index(" "):]
    assert _outcome(parse_certificate, "\n".join(lines)) == (51, "line 51: label does not fit in 32 bits")


@pytest.mark.parametrize("brk", _OTHER_BREAKS, ids=[f"U+{ord(c):04X}" for c in _OTHER_BREAKS])
def test_a_header_split_by_another_line_break_reads_as_the_line_parser_reads_it(brk):
    # one line of the file by LF, two by str.splitlines: the blocks line
    # claims 96, and the 96 label lines after the first bear it out
    design, _, *labels = _d97_lines(TargetId.SHRIKHANDE)
    text = "\n".join([design + brk + "blocks 96", *labels])
    assert _outcome(parse_certificate, text) == _outcome(_parse_lines, text)
    assert _outcome(parse_certificate, text) == (99, "line 99: trailing content after last block")


def test_a_hostile_block_count_errs_at_its_line_in_little_memory():
    text = "design shrikhande 97 complete\nblocks 99999999999\n" + " ".join(map(str, range(16)))
    tracemalloc.start()
    try:
        with pytest.raises(CertificateParseError) as err:
            parse_certificate(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.line, str(err.value)) == (3, "line 3: file ends before block 1")
    assert peak < 2**20


def test_a_huge_order_and_label_format_in_little_memory():
    row = [2**31 - 1] + list(range(15))
    cert = Certificate(TargetId.LINE_K44, 10**9, CertMode.COMPLETE, [row])
    tracemalloc.start()
    try:
        text = format_certificate(cert)
        again = parse_certificate(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == f"design lk44 1000000000 complete\nblocks 1\n{' '.join(map(str, row))}\n"
    assert again == cert
    assert peak < 2**20


# --- the pair counter against the parent's pair counting -------------------
#
# _pair_from_index, _count_pair_coverage and the pair part of certify as
# they were before PairCounter, kept verbatim as references.


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
    assert certify_raw_edges(cert).pair_errors == certify(cert).pair_errors

    pieces = np.array(k4444_decomposition(target))
    four = Certificate(target, 16, CertMode.FOUR_PARTITE, _corrupt(pieces, 16, rng))
    assert certify(four).pair_errors == _capped(_reference_certify_pair_errors(four))


def test_a_pair_covered_300_times_reads_255_in_every_report():
    design = _d97()
    cert = Certificate(design.target, 97, CertMode.COMPLETE,
                       np.vstack([design.blocks] + [design.blocks[:1]] * 299))
    pair = tuple(sorted(design.blocks[0, :2].tolist()))  # canonical vertices 1 and 2 are adjacent
    for report in (certify(cert), certify_raw_edges(cert)):
        assert (pair, 255) in report.pair_errors
        assert max(count for _, count in report.pair_errors) == 255

    td = td_from_mols(4, 3, mols_for_order(3))
    report = verify_gdd(replace(td, blocks=np.vstack([td.blocks] + [td.blocks[:1]] * 299)))
    assert ((0, 3), 255) in report.pair_errors
    assert max(count for _, count in report.pair_errors) == 255


def test_order_two_without_blocks_fails_on_its_uncovered_pair():
    # 2 * 1 / 96 rounds to 0 blocks, so the count matches and the pair counts
    report = certify(Certificate(TargetId.SHRIKHANDE, 2, CertMode.COMPLETE, ()))
    assert (report.count_expected, report.count_actual) == (0, 0)
    assert report.pair_errors == [((0, 1), 0)]
    assert certify_raw_edges(
        Certificate(TargetId.SHRIKHANDE, 2, CertMode.COMPLETE, ())
    ).pair_errors == [((0, 1), 0)]


def test_a_header_the_blocks_cannot_bear_out_fails_on_the_count_alone():
    n = 1_000_000_001
    cert = Certificate(TargetId.SHRIKHANDE, n, CertMode.COMPLETE, ())
    for report in (certify(cert), certify_raw_edges(cert)):
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
    counter = PairCounter(n, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                          np.ones(len(pairs), dtype=bool), ([0], [1]))
    assert counter.errors(groups) == _loop_pair_errors(n, pairs, groups)


# --- the counter's dtype boundaries and memory -------------------------------
#
# A counted row covers a pair at most once, so PairCounter keeps its counts
# in the narrowest unsigned dtype that holds the number of rows counted.
# Rows of one repeated block drive one pair's count to exactly that number.


def _counter_of(cert):
    ends = np.array(target_graph(cert.target).edges).T - 1
    return PairCounter(cert.order, cert.blocks, np.ones(len(cert.blocks), dtype=bool), ends)


@pytest.mark.parametrize(("rows", "dtype"), [(254, np.uint8), (255, np.uint8), (256, np.uint16)])
def test_counts_across_the_uint8_boundary_match_the_reference(rows, dtype):
    design = _d97()
    edges = target_graph(design.target).edges
    for blocks in (np.vstack([design.blocks] + [design.blocks[:1]] * (rows - 97)),
                   np.repeat(design.blocks[:1], rows, axis=0)):
        cert = Certificate(design.target, 97, CertMode.COMPLETE, blocks)
        counts = _counter_of(cert).counts
        assert counts.dtype == dtype
        assert np.array_equal(counts, _count_pair_coverage(97, cert.blocks, edges))
        assert certify(cert).pair_errors == _capped(_reference_certify_pair_errors(cert))


@pytest.mark.parametrize(("rows", "dtype"), [(65_535, np.uint16), (65_536, np.uint32)])
def test_counts_across_the_uint16_boundary_match_the_reference(rows, dtype):
    # the first K_{4,4,4,4} piece, repeated: each of its pairs is covered rows times
    piece = np.array(k4444_decomposition(TargetId.LINE_K44))[:1]
    cert = Certificate(TargetId.LINE_K44, 16, CertMode.FOUR_PARTITE, np.repeat(piece, rows, axis=0))
    counts = _counter_of(cert).counts
    assert counts.dtype == dtype
    assert counts.max() == rows
    assert np.array_equal(counts, _count_pair_coverage(16, cert.blocks, target_graph(cert.target).edges))
    assert certify(cert).pair_errors == _capped(_reference_certify_pair_errors(cert))


def test_certify_of_481_peaks_under_one_mib():
    # 115,440 uint16 counts and one chunk of rows; int64 counts over all
    # 2405 blocks at once peaked at 3.66 MiB
    design = construct_design(TargetId.LINE_K44, 481)
    gc.collect()
    tracemalloc.start()
    try:
        report = certify(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2**20


@st.composite
def _corrupted_d97(draw):
    """A certificate of order 97 with labels moved (in or out of range) or
    repeated inside their block, and blocks dropped or duplicated."""
    target = draw(st.sampled_from(list(TargetId)))
    rows = _d97(target).blocks.tolist()
    position = st.integers(0, 15)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(("move", "repeat", "drop", "duplicate")))
        if kind == "move":
            rows[i][draw(position)] = draw(st.integers(-2, 98))
        elif kind == "repeat":
            rows[i][draw(position)] = rows[i][draw(position)]
        elif kind == "drop" and len(rows) > 1:
            rows.pop(i)
        else:
            rows.insert(i, list(rows[i]))
    return Certificate(target, 97, CertMode.COMPLETE, rows)


@settings(max_examples=80, deadline=None, database=None)
@given(_corrupted_d97())
def test_raw_reports_what_certify_reports_on_a_corrupted_certificate(cert):
    raw, plain = certify_raw_edges(cert), certify(cert)
    assert (raw.count_expected, raw.count_actual) == (plain.count_expected, plain.count_actual)
    assert raw.label_errors == plain.label_errors
    assert raw.pair_errors == plain.pair_errors
    assert raw.part_errors == []
