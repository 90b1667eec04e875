from __future__ import annotations

import functools
import gc
import io
import os
import random
import sys
import threading
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import design_forge.cli as cli_module
import design_forge.targets as targets_module
from design_forge.assemble import construct_design
from design_forge.blocks import develop, k4444_decomposition, paper_base_blocks
from design_forge.certify import (
    Certificate,
    CertificateParseError,
    CertMode,
    CertReport,
    PairCounter,
    _CHUNK_ROWS,
    _LISTED_PAIRS,
    _PIECE_BYTES,
    _SCAN_PAIRS,
    _SLICE_ROWS,
    _SORT_ROWS,
    _body_rows,
    _counted_rows,
    _file_header,
    _header_outruns_blocks,
    _pair_index,
    _parse_lines,
    certify,
    certify_file,
    certify_raw_edges,
    certify_slices,
    format_certificate,
    parse_certificate,
    read_certificate,
    write_certificate,
)
from design_forge.cli import main
from design_forge.gdd import mols_for_order, td_from_mols, verify_gdd
from design_forge.targets import SmallGraph, TargetGraph, TargetId, as_block_array, target_graph


def _d97(target=TargetId.SHRIKHANDE):
    return develop(paper_base_blocks(target, 97))


def test_empty_design_of_order_one_passes():
    report = certify(Certificate(TargetId.SHRIKHANDE, 1, CertMode.COMPLETE, ()))
    assert report.passed
    assert report.count_expected == 0


def test_a_certificate_equals_no_other_type():
    cert = _d97()
    assert cert.__eq__((cert.target, cert.order, cert.mode)) is NotImplemented
    assert cert != (cert.target, cert.order, cert.mode)


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


def test_verify_raw_checks_the_definition_once_whatever_the_block_count(
        tmp_path, monkeypatch, capsys):
    calls = []
    check = targets_module.matches_definition

    def counted(target):
        calls.append(target)
        return check(target)

    monkeypatch.setattr(sys.modules["design_forge.certify"], "matches_definition", counted)
    for n, blocks in ((97, 97), (289, 867)):
        path = tmp_path / f"d{n}.cert"
        assert main(["construct", "--graph", "lk44", "--order", str(n), "--out", str(path)]) == 0
        calls.clear()
        assert main(["verify", "--raw", str(path)]) == 0
        assert calls == [TargetId.LINE_K44]
        assert f"PASS ({blocks} blocks" in capsys.readouterr().out


def test_certificate_round_trip(tmp_path):
    cert = _d97(TargetId.LINE_K44)
    path = tmp_path / "d97.cert"
    write_certificate(cert, path)
    again = read_certificate(path)
    assert again == cert


@pytest.mark.parametrize("count", [0, 1, _SLICE_ROWS - 1, _SLICE_ROWS, _SLICE_ROWS + 1])
def test_written_bytes_are_the_formatted_text_at_chunk_boundaries(tmp_path, count):
    # early chunks hold only labels 0..9, the last row holds 2^31 - 1, so
    # chunks take their digits at different widths
    blocks = np.tile(np.arange(16) % 10, (count, 1))
    blocks[-1:, 0] = 2**31 - 1
    cert = Certificate(TargetId.SHRIKHANDE, 97, CertMode.COMPLETE, blocks)
    path = tmp_path / "c.cert"
    write_certificate(cert, path)
    lines = "".join(" ".join(map(str, row)) + "\n" for row in blocks.tolist())
    assert format_certificate(cert) == f"design shrikhande 97 complete\nblocks {count}\n{lines}"
    assert path.read_bytes() == format_certificate(cert).encode("ascii")


@pytest.mark.parametrize(("rows", "top", "passes"), [
    (9000, 8999, 1),  # below the row count
    (600, 16 * _SLICE_ROWS - 1, 1),  # below one chunk's labels
    (600, 16 * _SLICE_ROWS, 2),  # neither: one digit pass per chunk
])
def test_labels_of_a_design_take_their_digits_once(monkeypatch, rows, top, passes):
    module = sys.modules["design_forge.certify"]  # the package's `certify` is the function
    real, calls = module._cells, []
    monkeypatch.setattr(module, "_cells",
                        lambda labels, *width: calls.append(labels.shape) or real(labels, *width))
    blocks = np.arange(rows * 16, dtype=np.int32).reshape(rows, 16) % (top + 1)
    blocks[-1, -1] = top
    cert = Certificate(TargetId.LINE_K44, 97, CertMode.COMPLETE, blocks)
    lines = "".join(" ".join(map(str, row)) + "\n" for row in blocks.tolist())
    assert format_certificate(cert) == f"design lk44 97 complete\nblocks {rows}\n{lines}"
    assert len(calls) == passes


_EDGE_LABELS = (0, 9, 10, 99, 100, 2**31 - 1)


@st.composite
def _label_arrays(draw):
    """(R, 16) nonnegative int32 labels, R crossing chunk boundaries.  Each
    chunk of _SLICE_ROWS rows draws its own widest digit count, its cells
    a digit count up to it, and some edge labels that fit it."""
    full = draw(st.integers(0, 2))  # whole chunks before the rest: 1..2100 rows
    rest = draw(st.integers(0 if full else 1, min(_SLICE_ROWS, 2100 - full * _SLICE_ROWS)))
    rows = full * _SLICE_ROWS + rest
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chunks = []
    for start in range(0, rows, _SLICE_ROWS):
        widest = draw(st.integers(1, 10))
        digits = rng.integers(1, widest + 1, (min(_SLICE_ROWS, rows - start), 16))
        low = np.where(digits == 1, 0, 10 ** (digits - 1))
        chunk = rng.integers(low, np.minimum(10**digits, 2**31))
        fits = [label for label in _EDGE_LABELS if len(str(label)) <= widest]
        for label in draw(st.lists(st.sampled_from(fits), max_size=6)):
            chunk.flat[draw(st.integers(0, chunk.size - 1))] = label
        chunks.append(chunk)
    return np.vstack(chunks)


@settings(max_examples=80, deadline=None, database=None)
@given(_label_arrays())
def test_format_matches_str_join_whatever_the_label_widths(blocks):
    cert = Certificate(TargetId.LINE_K44, 97, CertMode.COMPLETE, blocks)
    lines = "".join(" ".join(map(str, row)) + "\n" for row in blocks.tolist())
    assert format_certificate(cert) == f"design lk44 97 complete\nblocks {len(blocks)}\n{lines}"


def test_a_negative_label_is_rejected_before_the_file_is_touched(tmp_path):
    path = tmp_path / "keep.cert"
    path.write_bytes(b"keep me\n")
    cert = Certificate(TargetId.SHRIKHANDE, 97, CertMode.COMPLETE, [[-1] + list(range(15))])
    with pytest.raises(ValueError, match="nonnegative"):
        write_certificate(cert, path)
    with pytest.raises(ValueError, match="nonnegative"):
        format_certificate(cert)
    assert path.read_bytes() == b"keep me\n"


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


def test_label_errors_on_both_sides_of_a_sorted_slice_edge_keep_their_block_index():
    # the first one and a half slices of the 481 design: certify sorts them in two
    design = construct_design(TargetId.LINE_K44, 481)
    blocks = design.blocks[: 3 * _SORT_ROWS // 2].copy()
    assert _SORT_ROWS < len(blocks) < 2 * _SORT_ROWS
    blocks[_SORT_ROWS - 1, 0] = 481
    blocks[_SORT_ROWS, 1] = blocks[_SORT_ROWS, 0]
    cert = Certificate(design.target, 481, CertMode.COMPLETE, blocks)
    report = certify(cert)
    assert report.label_errors == [
        f"block {_SORT_ROWS - 1}: label out of range 0..480",
        f"block {_SORT_ROWS}: repeated label",
    ]
    assert _pairs_of(report) == _capped(_reference_certify_pair_errors(cert))


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


# --- the piece reader against the line parser -------------------------------
#
# parse_certificate reads a body a piece at a time, each piece's whole rows
# in one np.loadtxt pass (_body_rows); at a piece it does not take, or where
# the pieces fall short of the header's count or of the file's end, the
# line parser's row reader (_line_rows) resumes after them, and every other
# file goes to _parse_lines whole.  Either way the outcome must be the line
# parser's.


@functools.cache
def _d97_lines(target: TargetId) -> tuple[str, ...]:
    return tuple(format_certificate(_d97(target)).split("\n"))


def _outcome(parse, text):
    try:
        return parse(text)
    except CertificateParseError as err:
        return err.line, str(err)


def _spied(monkeypatch, name: str) -> list[tuple]:
    """The arguments of each call of certify's function name from here on;
    those of _line_rows end with done, the rows read before it, 0 where
    _parse_lines reads a file whole."""
    module = sys.modules["design_forge.certify"]  # the package's `certify` is the function
    real, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_formatted_certificate_never_reaches_the_line_parser(monkeypatch):
    d289 = develop(paper_base_blocks(TargetId.LINE_K44, 289))
    certs = (_d97(), _d97(TargetId.LINE_K44), d289)
    texts = [format_certificate(cert) for cert in certs]
    assert all(_parse_lines(text) == cert for text, cert in zip(texts, certs))
    calls = _spied(monkeypatch, "_line_rows")
    for text, cert in zip(texts, certs):
        for data in (text, text.encode("ascii"), text.replace("\n", "\r\n").encode("ascii")):
            parsed = parse_certificate(data)
            assert parsed == cert
            assert parsed.blocks.dtype == np.int32 and not parsed.blocks.flags.writeable
    assert calls == []


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
    design, blocks, *labels = _d97_lines(TargetId.SHRIKHANDE)
    text = "\n".join([design + brk + "blocks 96", *labels])
    assert _outcome(parse_certificate, text) == _outcome(_parse_lines, text)
    assert _outcome(parse_certificate, text) == (99, "line 99: trailing content after last block")
    # the design line ended at brk and again at its LF (but for CRLF) puts
    # the body at line 4, so a file cut inside row 58 errs at line 62
    cut = "\n".join([design + brk, blocks, *labels[:58]]) + "\n" + labels[58][:9]
    for data in (cut, cut.encode()):
        assert _outcome(parse_certificate, data) == _outcome(_parse_lines, cut)
    assert brk == "\r" or _outcome(_parse_lines, cut) == (62, "line 62: 3 labels, want 16")


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(list(TargetId)), st.data())
def test_a_certificate_cut_at_any_byte_reads_as_the_line_parser_reads_it(target, data):
    text = "\n".join(_d97_lines(target))
    text = text[: data.draw(st.integers(0, len(text)))] + data.draw(st.sampled_from(("", "\n")))
    assert _outcome(parse_certificate, text) == _outcome(_parse_lines, text)


# what follows the rows of a cut file, given the next row of the certificate
_TAILS = {
    "nothing": lambda row: "",
    "the row": lambda row: row,
    "15 labels": lambda row: row.rsplit(" ", 1)[0],
    "17 labels": lambda row: row + " 5",
    "a label 2^31": lambda row: str(2**31) + row[row.index(" "):],
}


@pytest.mark.parametrize("numpy_reads", ["installed", "via_float"])
@pytest.mark.parametrize(
    ("rows", "tail", "outcome"),
    [(50, "nothing", (52, "line 52: file ends before block 50")),
     (96, "the row", None),
     (58, "the row", (61, "line 61: file ends before block 59")),
     (58, "15 labels", (61, "line 61: 15 labels, want 16")),
     (58, "17 labels", (61, "line 61: 17 labels, want 16")),
     (96, "a label 2^31", (99, "line 99: label does not fit in 32 bits"))],
    ids=["fewer rows than the count", "no final LF", "cut after a whole row", "15 labels last",
         "17 labels last", "a label 2^31 last"],
)
def test_a_file_cut_after_whole_rows_resumes_the_line_parser(rows, tail, outcome, numpy_reads,
                                                             monkeypatch):
    # the header and `rows` LF-terminated rows, then the tail with no LF
    if numpy_reads == "via_float":
        monkeypatch.setattr(np, "loadtxt", _loadtxt_via_float(np.loadtxt))
    lines = _d97_lines(TargetId.SHRIKHANDE)
    text = "\n".join(lines[: rows + 2]) + "\n" + _TAILS[tail](lines[rows + 2])
    expected = _d97() if outcome is None else outcome
    calls = _spied(monkeypatch, "_line_rows")
    assert _outcome(parse_certificate, text) == expected
    assert [args[-1] for args in calls] == [rows]  # resumed after the rows, not whole
    assert expected == _outcome(_parse_lines, text)


def test_a_blank_line_among_the_rows_of_a_cut_file_counts_in_its_line_numbers():
    # np.loadtxt skips the blank line, so its rows are no longer the lines
    lines = _d97_lines(TargetId.SHRIKHANDE)
    rows = "\n".join(lines[:30] + ("",) + lines[30:60]) + "\n"
    for text, line in ((rows, 61), (rows + lines[60][:9], 62)):
        outcome = _outcome(parse_certificate, text)
        assert outcome[0] == line and outcome == _outcome(_parse_lines, text)


def test_a_481_certificate_cut_mid_block_line_parses_only_its_header_and_tail(monkeypatch):
    lines = format_certificate(construct_design(TargetId.LINE_K44, 481)).split("\n")
    middle = lines[1204]  # block 1202 of 2405, as the benchmark cuts it
    text = "\n".join(lines[:1204]) + "\n" + middle[: len(middle) // 2]
    module = sys.modules["design_forge.certify"]  # the package's `certify` is the function
    real, yielded = module._content_lines, []

    def counted(*args):
        for lineno, tokens in real(*args):
            yielded.append(lineno)
            yield lineno, tokens

    monkeypatch.setattr(module, "_content_lines", counted)
    err = _outcome(parse_certificate, text)
    assert err[0] == 1205 and err[1].endswith("labels, want 16")
    assert set(yielded) == {1, 2, 1205} and len(yielded) <= 6


# --- certificate files, read as bytes, against Path.read_text ---------------
#
# read_certificate reads a file a piece at a time; what it gives or raises
# must be what parse_certificate makes of the file's text as
# Path.read_text(encoding="utf-8") decodes it, universal newlines and all.


def _read_as_text(path):
    return parse_certificate(path.read_text(encoding="utf-8"))


def _file_outcome(read, path):
    try:
        return read(path)
    except CertificateParseError as err:
        return err.line, str(err)
    except UnicodeDecodeError as err:
        return str(err)


# bytes put in at an offset: a NUL, a byte no UTF-8 text holds, the first
# two bytes of the three of U+2014, and the Arabic-Indic digits of 10
_INSERTS = {"nul": b"\0", "0xff": b"\xff", "cut utf-8": "\u2014".encode()[:2],
            "arabic-indic": "\u0661\u0660".encode()}


@st.composite
def _mutated_d97_bytes(draw):
    """The bytes of a formatted order-97 certificate with one to three edits:
    CRLF or a lone CR for one LF or for every LF, a UTF-8 BOM, one of
    _INSERTS at any offset, or the bytes cut at any offset."""
    data = "\n".join(_d97_lines(draw(st.sampled_from(list(TargetId))))).encode("ascii")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("crlf", "cr", "every crlf", "every cr", "bom", "cut",
                                     *_INSERTS)))
        if kind in ("crlf", "cr") and b"\n" in data[at:]:
            lf = data.index(b"\n", at)
            data = data[:lf] + (b"\r\n" if kind == "crlf" else b"\r") + data[lf + 1 :]
        elif kind.startswith("every"):
            data = data.replace(b"\n", b"\r\n" if kind == "every crlf" else b"\r")
        elif kind == "bom":
            data = b"\xef\xbb\xbf" + data
        elif kind == "cut":
            data = data[:at]
        elif kind in _INSERTS:  # a "crlf" or "cr" past the last LF edits nothing
            data = data[:at] + _INSERTS[kind] + data[at:]
    return data


@settings(max_examples=400, deadline=None, database=None)
@given(data=_mutated_d97_bytes())
def test_a_certificate_file_reads_as_its_utf8_text_reads(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated-d97.cert"
    path.write_bytes(data)
    assert _file_outcome(read_certificate, path) == _file_outcome(_read_as_text, path)


@pytest.mark.parametrize(("edit", "outcome"), [
    (lambda d: d.replace(b"\n", b"\r\n"), None),
    (lambda d: d.replace(b"\n", b"\r"), None),
    (lambda d: d[:-200] + b"\r" + d[-200:], (95, "line 95: 10 labels, want 16")),
    (lambda d: b"\xef\xbb\xbf" + d, (1, "line 1: unsupported format: expected 'design', got "
                                      "'\\ufeffdesign'")),
    (lambda d: d[:10] + b"\xff" + d[10:], "'utf-8' codec can't decode byte 0xff in position 10: "
                                          "invalid start byte"),
    (lambda d: d + "\u2014".encode()[:2], "'utf-8' codec can't decode bytes in position 4536-4537: "
                                          "unexpected end of data"),
], ids=["CRLF", "CR", "one lone CR", "BOM", "0xff", "a cut UTF-8 sequence last"])
def test_each_byte_edit_reads_as_read_text_reads_it(tmp_path, edit, outcome):
    path = tmp_path / "edited.cert"
    path.write_bytes(edit(format_certificate(_d97()).encode("ascii")))
    expected = _d97() if outcome is None else outcome
    assert _file_outcome(read_certificate, path) == expected == _file_outcome(_read_as_text, path)


def test_a_file_that_is_not_utf8_fails_holding_little_beside_the_file(tmp_path):
    # the 481 certificate with 0xff at byte 10: bytes.decode of the whole
    # file held about three times it before it raised
    data = format_certificate(construct_design(TargetId.LINE_K44, 481)).encode("ascii")
    path = tmp_path / "d481-ff.cert"
    path.write_bytes(data[:10] + b"\xff" + data[11:])
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(UnicodeDecodeError) as err:
            read_certificate(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
    assert peak < 1.5 * len(data)


@pytest.mark.parametrize("bad", [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98",
                                 b"\xe2\x28\xa1", b"\xed\xa0\x80"])
@pytest.mark.parametrize("cut", [False, True], ids=["inside", "last"])
def test_utf8_is_checked_slice_by_slice_as_bytes_decode_checks_it(bad, cut):
    # bad bytes at and around each slice edge, in text whose characters take
    # one to four bytes and so cross the edges too; the error, its positions
    # and the text must be bytes.decode's
    module = sys.modules["design_forge.certify"]
    edge = module._UTF8_BYTES
    text = ("a\u00e9\u20ac\U0001f600" * (3 * edge // 10)).encode()
    for at in (0, 10, edge - 3, edge - 2, edge - 1, edge, edge + 1, 2 * edge - 1, len(text)):
        data = text[:at] + bad + (b"" if cut else text[at:])
        for sample in (data, data[: at + 1]):
            try:
                want = sample.decode()
            except UnicodeDecodeError as exc:
                want = str(exc)
            try:
                got = module._decoded(sample)
            except UnicodeDecodeError as exc:
                got = str(exc)
            assert got == want, (at, sample[max(0, at - 4) : at + 4])


def test_each_read_of_a_file_enters_the_reader_once(tmp_path, monkeypatch):
    # read_certificate, parse_certificate of the bytes and certify_file each
    # read a file once: its body through _body_rows, or the file whole
    # through _parse_lines where its header is not the two plain lines
    pieces, wholes = _spied(monkeypatch, "_body_rows"), _spied(monkeypatch, "_parse_lines")
    data = format_certificate(_d97()).encode("ascii")
    path = tmp_path / "edited.cert"
    for edited in (data, data.replace(b"\n", b"\r\n"), data[:-20], b"# \xe2\x80\x94\n" + data):
        path.write_bytes(edited)
        for read in (read_certificate, lambda path: parse_certificate(path.read_bytes()),
                     certify_file):
            pieces.clear()
            wholes.clear()
            _file_outcome(read, path)
            assert len(pieces) + len(wholes) == 1
            assert len(wholes) == edited.startswith(b"#")


def test_crlf_is_read_in_pieces_and_a_lone_cr_resumes_the_line_parser(monkeypatch):
    # a CR before LF ends a row for np.loadtxt; any other CR is a line break
    # that LF counts miss, so the line parser reads from the piece that holds it
    monkeypatch.setattr(sys.modules["design_forge.certify"], "_PIECE_BYTES", 1024)
    data = format_certificate(_d97()).encode("ascii")
    calls = _spied(monkeypatch, "_line_rows")
    assert parse_certificate(data.replace(b"\n", b"\r\n")) == _d97() and calls == []
    at = data.index(b"\n", len(data) // 2) + 1  # the start of a row past the first piece
    for lone in (data[:at] + b"\r" + data[at:], data + b"\r"):  # each a blank line more
        calls.clear()
        assert parse_certificate(lone) == _d97()
        assert len(calls) == 1 and calls[0][-1] > 0


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
def test_reading_the_481_certificate_peaks_below_its_blocks_plus_128_kib(tmp_path, monkeypatch,
                                                                         line_end):
    # the int32 blocks (153,920 bytes), then one piece and its rows, never
    # the file's bytes (0.14 MiB) or a decoded str; a CRLF file is read in
    # pieces as well, by np.loadtxt, never by the line parser
    design = construct_design(TargetId.LINE_K44, 481)
    path = tmp_path / "d481.cert"
    path.write_bytes(format_certificate(design).encode("ascii").replace(b"\n", line_end))
    calls = _spied(monkeypatch, "_line_rows")
    gc.collect()
    tracemalloc.start()
    try:
        cert = read_certificate(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert == design and calls == []
    assert peak < design.blocks.nbytes + 128 * 2**10


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


def test_writing_a_large_certificate_takes_one_chunk_of_memory(tmp_path):
    design = construct_design(TargetId.LINE_K44, 481)
    cert = Certificate(design.target, design.order, design.mode, np.tile(design.blocks, (16, 1)))
    path = tmp_path / "tiled.cert"
    tracemalloc.start()
    try:
        write_certificate(cert, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.blocks) == 38480
    assert path.read_bytes() == format_certificate(cert).encode("ascii")
    assert peak < 2**20


def test_writing_the_widest_labels_takes_one_chunk_of_memory(tmp_path):
    cert = Certificate(TargetId.LINE_K44, 481, CertMode.COMPLETE,
                       np.full((38480, 16), 2**31 - 1, dtype=np.int32))
    path = tmp_path / "widest.cert"
    gc.collect()
    tracemalloc.start()
    try:
        write_certificate(cert, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    line = " ".join(["2147483647"] * 16) + "\n"
    assert path.read_text() == "design lk44 481 complete\nblocks 38480\n" + line * 38480
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
    """The intended differences: reports cap counts at 255 and list only
    the first _LISTED_PAIRS pairs, beside the count of them all."""
    return [(pair, min(count, 255)) for pair, count in pair_errors[:_LISTED_PAIRS]], len(pair_errors)


def _pairs_of(report):
    return report.pair_errors, report.pair_error_count


@pytest.mark.parametrize("seed", range(8))
def test_pair_errors_match_the_parent_counting(seed):
    rng = random.Random(seed)
    n = (97, 193)[seed % 2]
    target = (TargetId.SHRIKHANDE, TargetId.LINE_K44)[seed // 2 % 2]
    rows = _corrupt(develop(paper_base_blocks(target, n)).blocks, n, rng)
    cert = Certificate(target, n, CertMode.COMPLETE, rows)
    assert _pairs_of(certify(cert)) == _capped(_reference_certify_pair_errors(cert))
    assert _pairs_of(certify_raw_edges(cert)) == _pairs_of(certify(cert))

    pieces = np.array(k4444_decomposition(target))
    four = Certificate(target, 16, CertMode.FOUR_PARTITE, _corrupt(pieces, 16, rng))
    assert _pairs_of(certify(four)) == _capped(_reference_certify_pair_errors(four))


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
    counter = PairCounter.of(n, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                          np.ones(len(pairs), dtype=bool), ([0], [1]))
    errors = _loop_pair_errors(n, pairs, groups)
    assert counter.errors(groups) == (errors, len(errors))


@st.composite
def _masked_counter_inputs(draw):
    """Rows over more than one chunk, unfiltered: clean rows of distinct
    points in range, and dirty ones (a label repeated or out of range)
    where each chunk's kind puts them: none, all, the chunk's first or last
    row (the edges between chunks), or any.  Every kind occurs in each draw."""
    width = draw(st.integers(2, 5))
    n = draw(st.integers(width, 30))
    kinds = draw(st.permutations(["all", "none", "first", "last", "any"]))
    tail = draw(st.integers(1, _CHUNK_ROWS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = _CHUNK_ROWS * (len(kinds) - 1) + tail
    dirty = np.zeros(size, dtype=bool)
    for start, kind in zip(range(0, size, _CHUNK_ROWS), kinds):
        chunk = dirty[start : start + _CHUNK_ROWS]
        if kind == "all":
            chunk[:] = True
        elif kind in ("first", "last"):
            chunk[0 if kind == "first" else -1] = True
        elif kind == "any":
            chunk[:] = rng.random(len(chunk)) < 0.5
    rows = np.array([rng.permutation(n)[:width] for _ in range(size)], dtype=np.int32)
    for i in np.flatnonzero(dirty):
        row = rows[i]  # a view: the edits below land in rows
        if rng.random() < 0.5:
            row[rng.integers(width)] = rng.choice([-2, -1, n, n + 1])
        else:
            row[1:] = row[: width - 1]
            row[0] = row[1]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n)))
    groups = [range(a, b) for a, b in zip([0] + cuts, cuts + [n])]
    return n, rows, ~dirty, draw(st.sampled_from(((), groups)))


@settings(max_examples=60, deadline=None, database=None)
@given(_masked_counter_inputs())
def test_pair_counter_counts_only_the_counted_rows_of_each_chunk(data):
    n, rows, counted, groups = data
    clean = [len(set(row)) == len(row) and all(0 <= p < n for p in row) for row in rows.tolist()]
    assert counted.tolist() == clean
    ends = np.triu_indices(rows.shape[1], 1)
    counter = PairCounter.of(n, rows, counted, ends)
    edges = list(zip(*(e + 1 for e in ends)))
    assert np.array_equal(counter.counts, _count_pair_coverage(n, rows[counted], edges))
    kept = rows[counted]
    pairs = list(zip(kept[:, ends[0]].ravel().tolist(), kept[:, ends[1]].ravel().tolist()))
    errors = _loop_pair_errors(n, pairs, groups)
    assert counter.errors(groups) == (errors, len(errors))


@pytest.mark.parametrize("n", [97, 481])
def test_a_label_at_both_ends_of_an_edge_hits_pair_0_and_one_past_it(n):
    # l(l+1)/2 is the pair {0, l+1}, and for l = n - 1 the spare count
    labels = np.arange(n - 1)
    assert np.array_equal(_pair_index(labels.copy(), labels.copy(), n),
                          _pair_index(np.zeros_like(labels), labels + 1, n))
    assert _pair_index(np.array([n - 1]), np.array([n - 1]), n).tolist() == [n * (n - 1) // 2]


@pytest.mark.parametrize(("n", "dtype"), [(46_341, np.int32), (46_342, np.int64), (46_343, np.int64)])
def test_pair_index_is_exact_across_the_int32_boundary(n, dtype):
    # int32 holds n(n-1) up to n = 46341; at 46343 (n-1)(n-2) itself overflows it
    labels = (0, n - 2, n - 1)
    pairs = [(a, b) for a in labels for b in labels if a != b]
    # certificate rows, narrow or int32, and errors()' points
    for labels_dtype in (np.uint16, np.int32, np.int64):
        u, v = (np.array(side, dtype=labels_dtype) for side in zip(*pairs))
        index = _pair_index(u, v, n)
        assert index.dtype == dtype
        assert index.tolist() == [max(a, b) * (max(a, b) - 1) // 2 + min(a, b) for a, b in pairs]


@pytest.mark.parametrize("wrong", [np.s_[:], np.s_[::97], np.s_[::70_001], np.s_[-3:]],
                         ids=["all", "every 97th", "every 70001st", "the last three"])
def test_the_listed_pairs_are_the_first_wrong_ones_whatever_slice_they_lie_in(wrong):
    # K_1153 has 664,128 pairs, more than ten slices of the search for listed pairs
    counter = PairCounter(1153, ([0], [1]))
    counter.counts[:] = 1
    counter.counts[wrong] = 2
    index = np.flatnonzero(counter.counts != 1)
    listed = [(_pair_from_index(i), 2) for i in index[:_LISTED_PAIRS].tolist()]
    assert counter.errors() == (listed, len(index))


def _whole_mask_errors(counts, groups):
    """PairCounter.errors as it was: one mask over every pair, with the
    pairs inside each group patched in."""
    wrong = counts != 1
    for group in groups:
        for u in group:
            for v in group:
                if u < v:
                    wrong[v * (v - 1) // 2 + u] = counts[v * (v - 1) // 2 + u] != 0
    index = np.flatnonzero(wrong)
    listed = [(_pair_from_index(i), min(int(counts[i]), 255)) for i in index[:_LISTED_PAIRS].tolist()]
    return listed, len(index)


@pytest.mark.parametrize("seed", range(3))
def test_pairs_inside_groups_are_judged_on_both_sides_of_a_slice_edge(seed):
    # K_400 has 79,800 pairs, so errors() scans two slices; the second
    # starts at pair (195, 362), and (194, 362) ends the first
    n = 400
    last, first = (_pair_index(np.array([u]), np.array([362]), n)[0] for u in (194, 195))
    assert (last, first) == (_SCAN_PAIRS - 1, _SCAN_PAIRS)
    rng = np.random.default_rng(seed)
    group_of = rng.integers(0, 10, n)
    group_of[[194, 195]] = group_of[362]
    groups = [np.flatnonzero(group_of == g).tolist() for g in range(10)]
    counter = PairCounter(n, ([0], [1]))
    counter.counts[:] = 1
    for group in groups:
        for u in group:
            for v in group:
                if u < v:
                    counter.counts[v * (v - 1) // 2 + u] = 0
    # a few hundred wrong pairs in both slices, inside groups and across
    # them, and the two pairs at the edge covered once: wrong only inside
    wrong = rng.choice(len(counter.counts), 600, replace=False)
    counter.counts[wrong] = rng.choice([0, 1, 2, 255], len(wrong))
    counter.counts[[last, first]] = 1
    want = _whole_mask_errors(counter.counts, groups)
    assert ((194, 362), 1) in want[0] and ((195, 362), 1) in want[0]
    assert want[1] < _LISTED_PAIRS
    assert counter.errors(groups) == want


# --- the counter's dtype boundaries and memory -------------------------------
#
# A counted row covers a pair at most once, so PairCounter's uint8 counts are
# exact where at most 255 rows count or where they sum to the hits made; it
# counts again in the narrowest unsigned dtype that holds the number of rows
# counted only where neither holds.  Rows of one repeated block drive one
# pair's count to exactly that number.


def _counter_of(cert):
    ends = np.array(target_graph(cert.target).edges).T - 1
    return PairCounter.of(cert.order, cert.blocks, np.ones(len(cert.blocks), dtype=bool), ends)


@pytest.mark.parametrize(("rows", "dtype"), [(254, np.uint8), (255, np.uint8), (256, np.uint16)])
def test_counts_across_the_uint8_boundary_match_the_reference(rows, dtype):
    # dtype is that of rows copies of one block; the design with copies of
    # its first block added covers a pair at most rows - 96 <= 160 times,
    # which uint8 counts exactly however many rows there are
    design = _d97()
    edges = target_graph(design.target).edges
    for blocks, want in ((np.vstack([design.blocks] + [design.blocks[:1]] * (rows - 97)), np.uint8),
                         (np.repeat(design.blocks[:1], rows, axis=0), dtype)):
        cert = Certificate(design.target, 97, CertMode.COMPLETE, blocks)
        counts = _counter_of(cert).counts
        assert counts.dtype == want
        assert np.array_equal(counts, _count_pair_coverage(97, cert.blocks, edges))
        assert _pairs_of(certify(cert)) == _capped(_reference_certify_pair_errors(cert))


@pytest.mark.parametrize("hits", [255, 256, 257, 511, 512])
def test_a_pair_hit_around_a_uint8_wrap_keeps_its_exact_count(hits):
    # the 97 design and hits - 1 more copies of its first block: the pairs
    # of that block are hit hits times, which uint8 reads as hits mod 256
    # (257 reads 1, the one wrap a report would read as right)
    design = _d97()
    edges = target_graph(design.target).edges
    cert = Certificate(design.target, 97, CertMode.COMPLETE,
                       np.vstack([design.blocks] + [design.blocks[:1]] * (hits - 1)))
    counts = _counter_of(cert).counts
    assert counts.dtype == (np.uint8 if hits == 255 else np.uint16)
    assert np.array_equal(counts, _count_pair_coverage(97, cert.blocks, edges))
    assert counts.max() == hits
    pair = tuple(sorted(design.blocks[0, :2].tolist()))  # canonical vertices 1 and 2 are adjacent
    for report in (certify(cert), certify_raw_edges(cert)):
        assert _pairs_of(report) == _capped(_reference_certify_pair_errors(cert))
        assert (pair, 255) in report.pair_errors


def test_a_wrap_among_as_many_hits_as_pairs_is_counted_again():
    # 386 rows of the 193 design make 386 * 48 hits, one per pair, as the
    # design does; 257 copies of block 0 among them read 1 in uint8, and
    # only the pairs that no row covers show that the counts are not all 1
    design = develop(paper_base_blocks(TargetId.SHRIKHANDE, 193))
    blocks = np.vstack([np.repeat(design.blocks[:1], 257, axis=0), design.blocks[1:130]])
    assert len(blocks) * 48 == 193 * 192 // 2
    cert = Certificate(design.target, 193, CertMode.COMPLETE, blocks)
    counts = _counter_of(cert).counts
    assert counts.dtype == np.uint16
    assert np.array_equal(counts, _count_pair_coverage(193, blocks, target_graph(cert.target).edges))
    report = certify(cert)
    assert _pairs_of(report) == _capped(_reference_certify_pair_errors(cert))
    pair = tuple(sorted(design.blocks[0, :2].tolist()))
    assert (pair, 255) in report.pair_errors


def test_as_many_hits_as_pairs_with_a_pair_missed_and_a_pair_doubled_list_both():
    # K_3 hit three times, {0, 1} twice and {0, 2} never: the hits alone
    # match a design's, so only the zero test keeps the counts from passing
    rows = np.array([[0, 1], [1, 0], [1, 2]], dtype=np.int32)
    counter = PairCounter.of(3, rows, np.ones(3, dtype=bool), ([0], [1]))
    assert counter.counts.tolist() == [2, 0, 1]
    assert counter.errors() == ([((0, 1), 2), ((0, 2), 0)], 2)


def test_a_changed_label_in_a_full_design_is_listed_though_the_hits_match():
    # one label moved within range: every row still counts, 2405 * 48 hits
    # as many as the pairs, and the pairs it moved are read as 0 and 2
    design = construct_design(TargetId.LINE_K44, 481)
    blocks = design.blocks.copy()
    blocks[1000, 0] = next(x for x in range(481) if x not in blocks[1000])
    cert = Certificate(design.target, 481, CertMode.COMPLETE, blocks)
    report = certify(cert)
    assert report.pair_error_count > 0
    assert {count for _, count in report.pair_errors} == {0, 2}
    assert _pairs_of(report) == _capped(_reference_certify_pair_errors(cert))


def test_counts_all_one_still_fail_inside_groups():
    # every pair of 0..3 covered once: with groups {0, 1} and {2, 3}, as
    # 4partite mode's residue classes or a GDD's groups, the pairs inside
    # them are wrong, so errors() scans though no count is off
    rows = np.array([[u, v] for v in range(4) for u in range(v)], dtype=np.int32)
    counter = PairCounter.of(4, rows, np.ones(6, dtype=bool), ([0], [1]))
    assert counter.counts.tolist() == [1] * 6
    assert counter.errors() == ([], 0)
    assert counter.errors([range(0, 2), range(2, 4)]) == ([((0, 1), 1), ((2, 3), 1)], 2)


@pytest.mark.parametrize(("rows", "dtype"), [(65_535, np.uint16), (65_536, np.uint32)])
def test_counts_across_the_uint16_boundary_match_the_reference(rows, dtype):
    # the first K_{4,4,4,4} piece, repeated: each of its pairs is covered rows times
    piece = np.array(k4444_decomposition(TargetId.LINE_K44))[:1]
    cert = Certificate(TargetId.LINE_K44, 16, CertMode.FOUR_PARTITE, np.repeat(piece, rows, axis=0))
    counts = _counter_of(cert).counts
    assert counts.dtype == dtype
    assert counts.max() == rows
    assert np.array_equal(counts, _count_pair_coverage(16, cert.blocks, target_graph(cert.target).edges))
    assert _pairs_of(certify(cert)) == _capped(_reference_certify_pair_errors(cert))


def test_certify_of_481_peaks_under_0_23_mib():
    # 115,440 uint8 counts and one chunk's int32 ends and pair indices, as
    # the blocks are int32 (0.184 MiB measured); int64 counts over all
    # blocks at once peaked at 3.66 MiB, int64 indices over gathered chunks
    # at 0.49 MiB, uint16 counts at 0.34 MiB, and one sorted copy of all
    # 2405 rows at 0.25 MiB
    design = construct_design(TargetId.LINE_K44, 481)
    gc.collect()
    tracemalloc.start()
    try:
        report = certify(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 0.23 * 2**20


def test_the_481_design_in_uint16_is_counted_below_its_counts_plus_68_kb():
    # one chunk's ends compared in uint16 with only the larger one widened,
    # and its int32 pair indices cast to intp half a chunk at a time:
    # 63,432 bytes above the counts (numpy 2.4), where widening both ends
    # and casting the whole chunk took 75,496
    design = construct_design(TargetId.LINE_K44, 481)
    rows = design.blocks.astype(np.uint16)
    gc.collect()
    tracemalloc.start()
    try:
        counter = PairCounter(481, target_graph(design.target).edge_ends)
        counter.add(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counter.once
    assert peak < counter._all.nbytes + 68_000


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
def test_the_counts_of_rows_of_any_label_dtype_are_the_reference_counts(dtype):
    # 301 random rows of distinct labels over 0..249: two whole chunks and
    # a last of 45 rows, added whole, and then with every third row left out
    n, graph = 250, target_graph(TargetId.SHRIKHANDE)
    rows = np.argsort(np.random.default_rng(7).random((301, n)))[:, :16].astype(dtype)
    keep = np.arange(len(rows)) % 3 != 0
    for counted, kept in ((None, rows), (keep, rows[keep])):
        counter = PairCounter(n, graph.edge_ends)
        counter.add(rows, counted)
        assert np.array_equal(counter.counts, _count_pair_coverage(n, kept, graph.edges))


@pytest.mark.parametrize("dtype", [np.uint16, np.int32])
def test_rows_of_high_labels_past_n_46341_hit_the_pairs_of_their_int64_indices(dtype):
    # n(n-1) outgrows int32 above n = 46341: every hit of a few rows of the
    # top 32 labels lands on the pair the reference names.  Only those
    # counts are read; the rest of the 1.08e9 zero counts are never touched
    n, ends = 46_400, target_graph(TargetId.LINE_K44).edge_ends
    rng = np.random.default_rng(11)
    rows = np.array([rng.permutation(np.arange(n - 32, n))[:16] for _ in range(5)])
    a, b = (rows[:, e].astype(np.int64) for e in ends)
    hit, times = np.unique(np.maximum(a, b) * (np.maximum(a, b) - 1) // 2 + np.minimum(a, b),
                           return_counts=True)
    counter = PairCounter(n, ends)
    counter.add(rows.astype(dtype))
    # times sums to all 240 hits made, so no hit landed elsewhere
    assert counter._all[hit].tolist() == times.tolist()


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


# --- the pass path: a design proved by its counts alone --------------------
#
# certify counts every certificate with every label in range before any
# label check, and passes it if every count is 1.  _certify_sorting_every_row
# is certify as it was before that, every row sorted for a repeated label
# first, kept as the oracle.


def _certify_sorting_every_row(cert):
    """certify as it was: every row sorted, its labels checked, and only the
    good rows counted."""
    n = cert.order
    mode = cert.mode
    blocks = cert.blocks
    expected = 2 if mode is CertMode.FOUR_PARTITE else n * (n - 1) // 96
    report = CertReport(count_expected=expected, count_actual=len(blocks))
    if n < 1:
        report.label_errors.append(f"order {n} is not positive")
        return report
    if mode is CertMode.FOUR_PARTITE and n != 16:
        report.label_errors.append(f"4partite mode requires order 16, got {n}")
        return report

    if mode is CertMode.COMPLETE and _header_outruns_blocks(report, n):
        return report

    ordered = np.sort(blocks, axis=1)
    out_of_range = (ordered[:, 0] < 0) | (ordered[:, -1] >= n)
    bad = out_of_range | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    for idx in np.flatnonzero(bad).tolist():
        problem = f"label out of range 0..{n - 1}" if out_of_range[idx] else "repeated label"
        report.label_errors.append(f"block {idx}: {problem}")
    counter = PairCounter.of(n, blocks, ~bad, np.array(target_graph(cert.target).edges).T - 1)
    residues = [range(r, n, 4) for r in range(4)] if mode is CertMode.FOUR_PARTITE else ()
    report.pair_errors, report.pair_error_count = counter.errors(residues)
    return report


def _edited_rows(blocks, n, table, kind, rng):
    """One row of blocks edited, keeping the block count and the label range:
    a label copied to a position adjacent or not adjacent to its own in the
    table, n - 1 written at both ends of edge (1, 2), or a label moved to
    another value in 0..n-1."""
    rows = blocks.copy()
    row = rows[rng.randrange(len(rows))]
    if kind == "edge (1, 2) ends n - 1":
        row[0] = row[1] = n - 1
        return rows
    if kind == "moved":
        p = rng.randrange(16)
        row[p] = rng.choice([x for x in range(n) if x != row[p]])
        return rows
    adjacent = kind == "copied to an adjacent position"
    u, v = rng.choice([(u, v) for u in range(1, 17) for v in range(1, 17)
                       if u != v and table.has_edge(u, v) == adjacent])
    row[v - 1] = row[u - 1]
    return rows


@pytest.mark.parametrize("target", list(TargetId))
@pytest.mark.parametrize("n", [97, 481])
def test_certify_reports_what_sorting_every_row_reported(target, n):
    design = construct_design(target, n)
    passed = CertReport(count_expected=len(design.blocks), count_actual=len(design.blocks))
    assert certify(design) == certify_raw_edges(design) == _certify_sorting_every_row(design) == passed
    pieces = Certificate(target, 16, CertMode.FOUR_PARTITE, k4444_decomposition(target))
    assert certify(pieces) == _certify_sorting_every_row(pieces) == CertReport(2, 2)
    table = target_graph(target).graph
    rng = random.Random(n)
    failing = []
    for kind in ("copied to an adjacent position", "copied to a non-adjacent position",
                 "edge (1, 2) ends n - 1", "moved"):
        for _ in range(5):
            rows = _edited_rows(design.blocks, n, table, kind, rng)
            failing.append((kind, replace(design, blocks=rows)))
    # block counts other than n(n-1)/96, all counted before any label check
    extra = design.blocks[:1].copy()
    extra[0, 1] = extra[0, 0]
    for kind, rows in (("a row dropped", design.blocks[1:]),
                       ("a row doubled", np.vstack([design.blocks, design.blocks[:1]])),
                       ("a row added that repeats a label", np.vstack([design.blocks, extra]))):
        failing.append((kind, replace(design, blocks=rows)))
    # 4partite files, counted too, though 48 hits a row never make 120 pairs
    for i in range(2):
        rows = pieces.blocks.copy()
        position = rng.randrange(16)
        rows[i, position] = (rows[i, position] + 1) % 16
        failing.append((f"piece {i} with a label edited", replace(pieces, blocks=rows)))
    for kind, cert in failing:
        want = _certify_sorting_every_row(cert)
        assert not want.passed
        assert certify(cert) == want, kind
        assert certify_raw_edges(cert) == want, kind


def test_shipped_designs_pass_with_no_label_check(monkeypatch):
    def no_label_check(*args):
        raise AssertionError("_counted_rows ran on a passing design")

    # the package's certify function hides its module as an attribute
    monkeypatch.setattr(sys.modules[certify.__module__], "_counted_rows", no_label_check)
    for target in TargetId:
        for n in (97, 193, 289, 385, 481):
            design = construct_design(target, n)  # which certifies it too
            assert certify(design).passed
            assert certify_raw_edges(design).passed


@pytest.mark.parametrize("target", list(TargetId))
def test_every_two_positions_of_a_table_share_a_neighbour(target):
    """What the pass path rests on: positions i, j with a common neighbour k
    read one pair through edges ik and jk in a row with row[i] = row[j]."""
    adjacency = target_graph(target).graph.adjacency
    for u in range(1, 17):
        for v in range(u + 1, 17):
            assert adjacency[u] & adjacency[v], (u, v)


def test_a_design_is_counted_whole_once_and_a_bad_row_taken_back_out(monkeypatch):
    added = []  # the net rows of each add: a row taken back out is -1

    class Counting(PairCounter):
        def add(self, rows, counted=None, sign=1):
            before = self.rows
            super().add(rows, counted, sign)
            added.append(self.rows - before)

    monkeypatch.setattr(sys.modules[certify.__module__], "PairCounter", Counting)
    design = _d97(TargetId.LINE_K44)
    moved, repeated, outside = (design.blocks.copy() for _ in range(3))
    moved[3, 0] = next(x for x in range(97) if x not in moved[3])
    repeated[3, 0] = repeated[3, 5]
    outside[3, 0] = 97
    for rows, want in ((design.blocks, [97]), (moved, [97]),
                       (repeated, [97, -1]), (outside, [96])):
        added.clear()
        cert = replace(design, blocks=rows)
        assert certify(cert) == _certify_sorting_every_row(cert)
        assert added == want


def test_a_failing_481_design_is_counted_once_with_its_bad_rows_taken_back_out(monkeypatch):
    # 2405 rows counted whole, then the one repeated-label row's 48 hits taken
    # back out through the same pair indices: about 2406 rows of indices, not
    # the 4809 of counting the good rows again
    design = construct_design(TargetId.LINE_K44, 481)
    rows = design.blocks.copy()
    rows[1500, 3] = rows[1500, 9]
    cert = replace(design, blocks=rows)
    module = sys.modules[certify.__module__]
    real, indexed = module._pair_index, []
    monkeypatch.setattr(module, "_pair_index",
                        lambda u, v, n: indexed.append(u.size) or real(u, v, n))
    report = certify(cert)
    monkeypatch.undo()
    assert report.label_errors == ["block 1500: repeated label"]
    assert sum(indexed) < 1.1 * 2405 * 48
    assert report == _certify_sorting_every_row(cert)


@pytest.mark.parametrize(("out_of_range", "label_errors", "rows_indexed"), [
    (False, [], 2 * 2705),
    (True, ["block 1000: label out of range 0..480"], 2 * 2704),
], ids=["in range", "a label out of range"])
def test_a_481_design_whose_counts_wrap_is_counted_once_in_uint8_and_once_wide(
        monkeypatch, out_of_range, label_errors, rows_indexed):
    # block 0 repeated 300 more times covers its pairs 301 times, which wrap
    # in uint8: the counts of the rows in range are proved short of their
    # hits and counted again wide, never a second time in uint8.  A label
    # out of range stops the count pass before any row is added.
    design = construct_design(TargetId.LINE_K44, 481)
    rows = np.vstack([np.repeat(design.blocks[:1], 301, axis=0), design.blocks[1:]])
    if out_of_range:
        rows[1000, 3] = 481
    cert = replace(design, blocks=rows)
    module = sys.modules[certify.__module__]
    real, indexed = module._pair_index, []

    def spy(u, v, n):
        if u.ndim == 2:  # a chunk's gather; errors() indexes its listed pairs in 1-D
            indexed.append(u.size)
        return real(u, v, n)

    monkeypatch.setattr(module, "_pair_index", spy)
    report = certify(cert)
    monkeypatch.undo()
    assert sum(indexed) == rows_indexed * 48
    assert report.label_errors == label_errors
    assert report == _certify_sorting_every_row(cert)
    pair = tuple(sorted(design.blocks[0, :2].tolist()))
    assert (pair, 255) in report.pair_errors


def test_prove_frees_the_uint8_counts_before_the_wide_ones_exist():
    # the same 2705 rows: any moment holding both counts would hold both
    # their bytes, which no end-to-end peak shows, as errors() and reading
    # the file peak higher
    design = construct_design(TargetId.LINE_K44, 481)
    rows = np.vstack([np.repeat(design.blocks[:1], 301, axis=0), design.blocks[1:]])
    graph = target_graph(design.target)
    gc.collect()
    tracemalloc.start()
    try:
        counter = PairCounter(481, graph.edge_ends)
        counter.add(rows)
        narrow = counter.counts.nbytes
        tracemalloc.reset_peak()
        counter.prove(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counter.counts.dtype == np.uint16
    assert np.array_equal(counter.counts, _count_pair_coverage(481, rows, graph.edges))
    assert peak < narrow + counter.counts.nbytes


def test_good_rows_whose_counts_wrap_are_counted_again_wide_after_a_bad_row_is_taken_out():
    # as test_a_wrap_among_as_many_hits_as_pairs_is_counted_again, with one
    # row repeating a label: 385 good rows, 257 of them block 0, whose uint8
    # counts left by the take-back sum short of their hits
    design = develop(paper_base_blocks(TargetId.SHRIKHANDE, 193))
    blocks = np.vstack([np.repeat(design.blocks[:1], 257, axis=0), design.blocks[1:130]])
    blocks[300, 1] = blocks[300, 0]
    cert = Certificate(design.target, 193, CertMode.COMPLETE, blocks)
    report = certify(cert)
    assert report.label_errors == ["block 300: repeated label"]
    assert report == _certify_sorting_every_row(cert)
    pair = tuple(sorted(design.blocks[0, :2].tolist()))
    assert (pair, 255) in report.pair_errors


@pytest.mark.parametrize("target", list(TargetId))
def test_certify_slices_passes_exactly_what_certify_passes(target):
    # the 97 design in slices of any size passes; every edit that keeps a
    # row of 16 labels fails there as in certify, labels out of range on
    # either side and a row dropped or doubled included
    design = _d97(target)
    rng = random.Random(97)

    def sliced(rows):
        cuts = sorted(rng.sample(range(1, len(rows)), 5)) if len(rows) > 6 else []
        return np.split(rows, cuts)

    assert certify_slices(target, 97, sliced(design.blocks))
    assert certify_slices(target, 97, [design.blocks])
    table = target_graph(target).graph
    edits = [design.blocks[1:], np.vstack([design.blocks, design.blocks[:1]])]
    for label in (-1, 97, 2**31 - 1):
        rows = design.blocks.copy()
        rows[40, 7] = label
        edits.append(rows)
    for kind in ("copied to an adjacent position", "copied to a non-adjacent position",
                 "edge (1, 2) ends n - 1", "moved"):
        edits.append(_edited_rows(design.blocks, 97, table, kind, rng))
    for rows in edits:
        assert not certify(replace(design, blocks=rows)).passed
        assert not certify_slices(target, 97, sliced(rows))


def test_a_failing_481_design_holds_one_count_array_at_a_time():
    # the whole count, 115,440 uint8 counts, is freed before the good rows
    # are counted again: both at once would peak near 0.30 MiB
    design = construct_design(TargetId.LINE_K44, 481)
    rows = design.blocks.copy()
    rows[1500, 3] = rows[1500, 9]
    cert = replace(design, blocks=rows)
    gc.collect()
    tracemalloc.start()
    try:
        report = certify(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.label_errors == ["block 1500: repeated label"]
    assert peak < 0.26 * 2**20


def test_a_row_ending_on_the_next_rows_first_label_repeats_nothing():
    # the label check compares each label with the next over the flat sorted
    # rows; a row's last label against the next row's first is no repeat
    errors = []
    rows = as_block_array([list(range(16)), list(range(15, 31)), [30] + list(range(31, 46))])
    assert _counted_rows(rows, 46, errors).all()
    assert errors == []


# --- verify, streamed, against the whole path --------------------------------
#
# certify_file counts the rows of a complete-mode file with the right block
# count as the reader yields them, a piece of its body at a time, and reads
# any other file into one block array, as read_certificate does.  verify
# and verify --raw must print what they printed, and exit as they exited,
# when every file was read into its block array and certified whole
# (_verify_whole).


def _verify_whole(path, raw):
    """verify as it ran when it read every file into its block array:
    read_certificate, then certify or certify_raw_edges, under main's error
    handling."""
    try:
        cert = read_certificate(path)
    except CertificateParseError as exc:
        print(f"{path}: parse error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"{path}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if raw and cert.mode is not CertMode.COMPLETE:
        print("error: --raw applies to complete-mode certificates only", file=sys.stderr)
        return 2
    report = certify_raw_edges(cert) if raw else certify(cert)
    cli_module._print_report(report)
    return 0 if report.passed else 1


def _captured(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fn(*args)
    return code, out.getvalue(), err.getvalue()


def _assert_verify_reads_as_whole(path):
    for raw in (False, True):
        argv = ["verify", "--raw", str(path)] if raw else ["verify", str(path)]
        assert _captured(main, argv) == _captured(_verify_whole, path, raw), raw
    try:  # and, where the file parses, certify as it was, which shares no count code
        cert = read_certificate(path)
    except (CertificateParseError, UnicodeDecodeError):
        return
    assert certify_file(path) == (cert.target, cert.mode, _certify_sorting_every_row(cert))


@settings(max_examples=150, deadline=None, database=None)
@given(text=_mutated_d97_text())
def test_verify_of_an_edited_text_prints_what_the_whole_path_prints(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "edited-d97.cert"
    path.write_bytes(text.encode("utf-8"))
    _assert_verify_reads_as_whole(path)


@settings(max_examples=150, deadline=None, database=None)
@given(data=_mutated_d97_bytes())
def test_verify_of_edited_bytes_prints_what_the_whole_path_prints(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "edited-d97.cert"
    path.write_bytes(data)
    _assert_verify_reads_as_whole(path)


@functools.cache
def _d193_bytes() -> bytes:
    return format_certificate(develop(paper_base_blocks(TargetId.SHRIKHANDE, 193))).encode("ascii")


def _edited_193(kind: str, row: int) -> bytes:
    data = _d193_bytes()
    at = data.index(b"\n", data.index(b"\n") + 1) + 1  # where row 0 starts
    for _ in range(row):
        at = data.index(b"\n", at) + 1
    end = data.index(b"\n", at)  # the row's LF
    if kind == "crlf":
        return data[:end] + b"\r" + data[end:]
    if kind == "lone cr":
        return data[:at] + b"\r" + data[at:]
    if kind == "cut":
        return data[: (at + end) // 2]
    if kind == "comment":
        return data[:at] + b"# a comment 1 2 3\n" + data[at:]
    assert kind == "tab"
    return data[:at] + data[at:end].replace(b" ", b"\t", 1) + data[end:]


@pytest.mark.parametrize("piece_bytes", [33, 64, 100, 257, 1000, 4099])
def test_every_piece_size_reads_as_the_line_parser_and_verifies_as_the_whole_path(
        tmp_path, monkeypatch, piece_bytes):
    # pieces shorter than a row (33), of one row (64) and of a few; the
    # header alone does not fit in 33 bytes, so that file is read whole
    monkeypatch.setattr(sys.modules["design_forge.certify"], "_PIECE_BYTES", piece_bytes)
    path = tmp_path / "edited-d193.cert"
    edits = [_d193_bytes(), _d193_bytes().replace(b"\n", b"\r\n")] + [
        _edited_193(kind, row) for kind in ("crlf", "lone cr", "cut", "comment", "tab")
        for row in (0, 1, 100, 200, 385)]
    for data in edits:
        text = data.decode("ascii")
        expected = _outcome(_parse_lines, text)
        assert _outcome(parse_certificate, text) == expected == _outcome(parse_certificate, data)
        path.write_bytes(data)
        assert _file_outcome(read_certificate, path) == expected
        _assert_verify_reads_as_whole(path)


@functools.cache
def _d481_bytes() -> bytes:
    return format_certificate(construct_design(TargetId.LINE_K44, 481)).encode("ascii")


def _piece_edges(data: bytes) -> list[int]:
    """The first row of every piece but the first that certify_file cuts
    data's body into: whole chunks of rows, but for the last piece."""
    pos = data.index(b"\n", data.index(b"\n") + 1) + 1
    edges, row = [], 0
    while pos < len(data):
        lines = data[pos : pos + _PIECE_BYTES].splitlines(keepends=True)
        if pos + _PIECE_BYTES < len(data):
            lines = lines if lines[-1].endswith(b"\n") else lines[:-1]  # the whole lines
            lines = lines[: len(lines) - len(lines) % _CHUNK_ROWS]
        row += len(lines)
        pos += sum(map(len, lines))
        edges.append(row)
    return edges[:-1]


def _edited_481(kind: str, row: int) -> bytes:
    lines = _d481_bytes().split(b"\n")
    i = row + 2  # after the header
    labels = lines[i].split(b" ")
    if kind == "label changed":
        labels[0] = str((int(labels[0]) + 1) % 481).encode()
    elif kind == "label repeated":
        labels[1] = labels[0]
    elif kind == "label out of range":
        labels[0] = b"481"
    elif kind == "block dropped":
        del lines[i]
        lines[1] = b"blocks 2404"
        return b"\n".join(lines)
    elif kind == "cut inside the row":
        return b"\n".join(lines[:i] + [lines[i][: len(lines[i]) // 2]])
    elif kind == "cut after the row":
        return b"\n".join(lines[: i + 1]) + b"\n"
    lines[i] = b" ".join(labels)
    return b"\n".join(lines)


_EDITS_481 = ("label changed", "label repeated", "label out of range", "block dropped",
              "cut inside the row", "cut after the row")


def test_the_481_certificate_is_streamed_in_pieces_of_whole_chunks_of_rows(tmp_path,
                                                                           monkeypatch):
    # every slice but the last ends at a chunk edge of PairCounter.add, and
    # _piece_edges, which the tests below edit rows around, finds them all
    tally, slices = sys.modules["design_forge.certify"]._Tally, []
    real = tally.add
    monkeypatch.setattr(tally, "add", lambda self, rows: slices.append(len(rows))
                        or real(self, rows))
    path = tmp_path / "d481.cert"
    path.write_bytes(_d481_bytes())
    assert certify_file(path)[2].passed
    edges = _piece_edges(_d481_bytes())
    assert np.cumsum(slices)[:-1].tolist() == edges and sum(slices) == 2405
    assert len(edges) >= 3 and all(edge % _CHUNK_ROWS == 0 for edge in edges)


def _with_label(data: bytes, row: int, label: int) -> bytes:
    """A certificate's bytes with the first label of block row set to label."""
    lines = data.split(b"\n")
    labels = lines[row + 2].split(b" ")
    labels[0] = str(label).encode()
    lines[row + 2] = b" ".join(labels)
    return b"\n".join(lines)


def test_each_piece_of_rows_comes_in_the_narrowest_dtype_that_holds_its_labels(tmp_path):
    # uint8 below 256, uint16 below 65,536, else int32 as np.loadtxt reads
    # them; a sign sends the rest of the file to the line parser, whose rows
    # are int32; the rows are the labels the line parser reads all the same
    path = tmp_path / "d.cert"
    for data, dtypes in [
            (_d193_bytes(), [np.uint8]),
            (_d481_bytes(), [np.uint16] * 5),
            (_with_label(_d481_bytes(), 600, 65535), [np.uint16] * 5),
            (_with_label(_d481_bytes(), 0, 65536), [np.int32] + [np.uint16] * 4),
            (_with_label(_d481_bytes(), 600, -1), [np.uint16, np.int32])]:
        path.write_bytes(data)
        with open(path, "rb") as file:
            start, *_, count = _file_header(file)
            pieces = list(_body_rows(file, start, count))
        assert [rows.dtype for rows in pieces] == list(map(np.dtype, dtypes))
        assert np.array_equal(np.concatenate(pieces), _parse_lines(data.decode()).blocks)


@pytest.mark.parametrize("label", [255, 256, 65535, 65536, 70000])
@pytest.mark.parametrize("data", [_d193_bytes, _d481_bytes], ids=["193", "481"])
def test_verify_of_a_label_at_a_dtype_edge_prints_what_the_whole_path_prints(tmp_path, data,
                                                                           label):
    # a label out of range that its piece's narrow rows hold (255 in uint8,
    # 65535 in uint16), or that widens them (256, 65536), at the first,
    # middle and last rows and on both sides of every piece edge; the whole
    # path reads the file through the same reader, so that reads as the line
    # parser does
    path = tmp_path / "edited.cert"
    count = len(data().split(b"\n")) - 3  # the header lines, and "" after the last LF
    rows = {0, count // 2, count - 1}
    for edge in _piece_edges(data()):
        rows |= {edge - 1, edge}
    for row in sorted(rows):
        path.write_bytes(edited := _with_label(data(), row, label))
        assert read_certificate(path) == _parse_lines(edited.decode())
        _assert_verify_reads_as_whole(path)


@pytest.mark.parametrize("watched", [True, False], ids=["watched", "unwatched"])
@pytest.mark.parametrize("kind", _EDITS_481)
def test_verify_of_an_edited_481_prints_what_the_whole_path_prints_at_every_piece_edge(
        tmp_path, monkeypatch, kind, watched):
    # unwatched, as counts of more than 2^18 pairs are, a failing file goes whole
    if not watched:
        monkeypatch.setattr(sys.modules["design_forge.certify"], "_WATCHED_PAIRS", 0)
    path = tmp_path / "edited-d481.cert"
    rows = {0, 2404}
    for edge in _piece_edges(_d481_bytes()):
        rows |= {edge - 1, edge}
    for row in sorted(rows):
        path.write_bytes(_edited_481(kind, row))
        _assert_verify_reads_as_whole(path)


@pytest.mark.parametrize("kind", ["label changed", "label out of range", "block dropped",
                                  "cut inside the row", "cut after the row"])
def test_a_failing_481_file_is_read_once(tmp_path, monkeypatch, capsys, kind):
    # the stream reports a label changed or out of range, and a block count
    # short of n(n-1)/96, from its own counts, and a cut file's parse error
    # as it meets it: none goes to the whole path
    path = tmp_path / "edited-d481.cert"
    path.write_bytes(_edited_481(kind, 1500))
    pieces, calls = _spied(monkeypatch, "_body_rows"), _spied(monkeypatch, "_read")
    assert main(["verify", str(path)]) in (1, 2)
    capsys.readouterr()
    assert len(pieces) == 1 and calls == []


def test_a_row_of_label_480_whose_hits_all_land_on_the_spare_count_is_reported(tmp_path,
                                                                               monkeypatch):
    # any two positions of the row share a neighbour, itself 480, so every
    # hit it makes lands on the spare count past the pairs: the max over the
    # counts that starts the label checks must read the spare count too
    lines = _d481_bytes().split(b"\n")
    lines[2] = b" ".join([b"480"] * 16)
    path = tmp_path / "spare-d481.cert"
    path.write_bytes(b"\n".join(lines))
    calls = _spied(monkeypatch, "_read")
    code, out, err = _captured(main, ["verify", str(path)])
    assert calls == [] and code == 1 and err == ""
    assert "  label: block 0: repeated label\n" in out
    _assert_verify_reads_as_whole(path)


def _wrapped_d97_rows(target: TargetId, hits: int) -> np.ndarray:
    """97 rows of order 97 whose repeated labels push the count of the pair
    {0, 41}, which label 40 at both ends of an edge also hits, to hits (256
    or 257), with every other pair count at most 1: five rows of 40 (240
    hits), four rows with 0 on two positions and 41 on their two common
    neighbours (4 hits each) and, for 257, one row of distinct labels with
    0 next to 41.  97 rows make as many hits as there are pairs, so 80 rows
    of 96 put the other repeated hits on the spare count, 3840 of them,
    which wraps to 0; the rest are rows of distinct labels."""
    table = target_graph(target).graph

    def common(u, v):  # their common neighbours, read off their adjacency masks
        both = table.adjacency[u] & table.adjacency[v]
        return [w for w in range(1, 17) if both >> w & 1]

    a, b = next((u, v) for u in range(1, 17) for v in range(u + 1, 17)
                if not table.has_edge(u, v) and not table.has_edge(*common(u, v)))
    c, d = common(a, b)
    fresh = iter(x for x in range(1, 96) if x not in (40, 41))
    rows = [[40] * 16] * 5 + [[96] * 16] * 80
    used = set()
    for _ in range(4):
        row = [0 if p in (a, b) else 41 if p in (c, d) else next(fresh) for p in range(1, 17)]
        used |= {frozenset((row[u - 1], row[v - 1])) for u, v in table.edges}
        rows.append(row)
    rng = random.Random(hits)
    while len(rows) < 97:
        row = rng.sample([x for x in range(97) if x not in (0, 41)], 16)
        if hits == 257 and len(rows) == 89:  # one row of 0 next to 41
            (u, v), *_ = table.edges
            row[u - 1], row[v - 1] = 0, 41
        pairs = {frozenset((row[u - 1], row[v - 1])) for u, v in table.edges}
        if not pairs & used - {frozenset((0, 41))}:
            used |= pairs
            rows.append(row)
    return as_block_array(rows)


@pytest.mark.parametrize("target", list(TargetId))
@pytest.mark.parametrize("hits", [256, 257])
def test_a_count_that_wraps_to_0_or_1_inside_one_slice_sends_the_file_whole(
        tmp_path, monkeypatch, target, hits):
    # no stored count exceeds 1, so no label check starts, yet 89 rows
    # repeat a label: the counts sum short of the hits, and only the whole
    # path, which checks every row, can say which
    rows = _wrapped_d97_rows(target, hits)
    counter = PairCounter(97, target_graph(target).edge_ends)
    counter.add(rows)
    assert counter.counts[_pair_index(np.array([0]), np.array([41]), 97)[0]] == hits - 256
    assert counter._all.max() <= 1 and not counter.exact
    path = tmp_path / "wrapped-d97.cert"
    write_certificate(Certificate(target, 97, CertMode.COMPLETE, rows), path)
    assert len(_piece_edges(path.read_bytes())) == 0  # one piece, one slice
    calls = _spied(monkeypatch, "_read")
    code, out, _ = _captured(main, ["verify", str(path)])
    assert len(calls) == 1 and code == 1
    assert "89 label errors" in out
    _assert_verify_reads_as_whole(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_verify_of_a_fifo_prints_what_it_prints_of_the_file(tmp_path):
    # a pipe cannot be read twice, so certify_file copies it into a
    # temporary file, a piece at a time, and reads that as it reads a file
    fifo, path = tmp_path / "d481.fifo", tmp_path / "d481.cert"
    os.mkfifo(fifo)
    for data in (_d481_bytes(), _edited_481("label changed", 1500)):
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        streamed = _captured(main, ["verify", str(fifo)])
        writer.join(timeout=30)
        assert not writer.is_alive()
        path.write_bytes(data)
        assert streamed == _captured(_verify_whole, path, False) == _captured(
            main, ["verify", str(path)])


def _peak(argv) -> tuple[int, int]:
    """main(argv)'s exit code and tracemalloc peak."""
    gc.collect()
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_verify_of_481_peaks_below_its_counts_plus_128_kib(tmp_path, capsys):
    # the uint8 counts (115,441 bytes, the spare included), then one piece's
    # rows, narrowed to uint16, and one chunk's pair indices, in int32 and
    # half of them in intp, never the file's bytes, its block array
    # (0.33 MiB) or a read buffer
    path = tmp_path / "d481.cert"
    path.write_bytes(_d481_bytes())
    assert main(["verify", str(path)]) == 0  # the parser and target tables, built once
    code, peak = _peak(["verify", str(path)])
    capsys.readouterr()
    assert code == 0
    assert peak < 216_000  # about 7% above its 201,939 bytes (numpy 2.4)


def test_streamed_verify_raw_of_289_peaks_below_153_kb(tmp_path, capsys):
    # the uint8 counts (41,617 bytes, the spare included), one piece's rows
    # in uint16 and one chunk's pair indices, in int32 and half of them in
    # intp
    path = tmp_path / "d289.cert"
    write_certificate(construct_design(TargetId.LINE_K44, 289), path)
    assert main(["verify", "--raw", str(path)]) == 0
    code, peak = _peak(["verify", "--raw", str(path)])
    capsys.readouterr()
    assert code == 0
    assert peak < 153_000  # about 19% above its 128,091 bytes (numpy 2.4)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_verify_of_a_fifo_peaks_below_its_counts_plus_128_kib(tmp_path, capsys):
    # copied into a temporary file a piece at a time, a FIFO is streamed as
    # the file is, and peaks near it: never its bytes or its block array
    fifo, path = tmp_path / "d481.fifo", tmp_path / "d481.cert"
    os.mkfifo(fifo)
    path.write_bytes(_d481_bytes())
    whole = _captured(main, ["verify", str(path)])  # and the tables, built once
    writer = threading.Thread(target=fifo.write_bytes, args=(_d481_bytes(),), daemon=True)
    writer.start()
    code, peak = _peak(["verify", str(fifo)])
    writer.join(timeout=30)
    assert not writer.is_alive()
    out, err = capsys.readouterr()
    assert (code, out, err) == whole and code == 0
    assert peak < 481 * 480 // 2 + 1 + 128 * 2**10
