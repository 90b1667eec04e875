"""Independent verification of claimed designs, and certificate file I/O.

A certificate holds its blocks as rows of 16 labels over the point set,
each read as a labelled copy of the target graph (position i is the point
at canonical vertex i+1).  Certification counts, exactly and
exhaustively, how often every point pair is covered by the induced edge
sets:

* complete mode: every pair over 0..n-1 must be covered exactly once and
  the block count must equal n(n-1)/96;
* 4partite mode (n = 16, 2 blocks): the coverage target is the 96 pairs
  of points in distinct residue classes modulo 4, and pairs inside one
  class must never be covered.

Nothing is sampled and nothing is trusted: a malformed certificate yields
a failing report, not an exception.  A complete-mode header whose block
count is wrong and whose blocks cannot cover half its pairs fails on the
count alone, with no pair counting, so memory follows the file.

certify_raw_edges adds one check: the target's edge table must match its
definition.  Blocks need no search, as a row of 16 distinct labels reads
through the table as a copy of it, v -> row[v-1] being the isomorphism.

PairCounter is the package's one pair counter: certify and
gdd.verify_gdd each choose which blocks count and pass their groups, and
every report caps its pair counts at 255.  Its memory follows the
n(n-1)/2 pairs: one count per pair in the narrowest unsigned dtype that
holds the number of blocks counted (uint16 for every shipped order), plus
the pair hits of one chunk of blocks at a time.
"""

from __future__ import annotations

import enum
import io
import warnings
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .targets import TargetId, as_block_array, matches_definition, target_graph


class CertMode(str, enum.Enum):
    COMPLETE = "complete"
    FOUR_PARTITE = "4partite"


class CertificateParseError(ValueError):
    """A certificate file violates the grammar; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class Certificate:
    """A decomposition claim, not yet verified: the package's one design
    type, whether parsed from a file or built by blocks.develop or
    assemble.construct_design.

    ``blocks`` is a read-only (B, 16) int32 array (see
    targets.as_block_array); any sequence of 16-label rows is accepted.
    """

    target: TargetId
    order: int
    mode: CertMode
    blocks: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", as_block_array(self.blocks))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return (self.target, self.order, self.mode) == (
            other.target, other.order, other.mode
        ) and bool(np.array_equal(self.blocks, other.blocks))


@dataclass
class CertReport:
    """Outcome of certify, certify_raw_edges or gdd.verify_gdd; passed iff
    every error list is empty and the block counts match.  A GDD type with
    no whole number of blocks expects None."""

    count_expected: int | None
    count_actual: int
    label_errors: list[str] = field(default_factory=list)
    pair_errors: list[tuple[tuple[int, int], int]] = field(default_factory=list)
    part_errors: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.count_expected == self.count_actual
            and not self.label_errors
            and not self.pair_errors
            and not self.part_errors
        )

    def summary(self) -> str:
        if self.passed:
            return f"PASS ({self.count_actual} blocks, all pairs covered exactly once)"
        parts = [f"FAIL ({self.count_actual} blocks, expected {self.count_expected})"]
        if self.label_errors:
            parts.append(f"{len(self.label_errors)} label errors")
        if self.pair_errors:
            parts.append(f"{len(self.pair_errors)} pairs covered != once")
        if self.part_errors:
            parts.append(f"{len(self.part_errors)} bad parts")
        return ", ".join(parts)


def _pair_index(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pair {u < v}, given in either order, has index v(v-1)/2 + u."""
    hi = np.maximum(u, v)
    return np.multiply(hi, hi - 1, dtype=np.int64) // 2 + np.minimum(u, v)


# Rows per np.add.at: 128 certificate rows are 6144 pair hits, about
# 0.2 MiB of index temporaries; 256 rows took twice that and ran no faster.
_CHUNK_ROWS = 128


class PairCounter:
    """Exact coverage counts of the pairs of 0..n-1 under the rows each
    caller counts: one narrow count per pair, and one chunk of rows at a time."""

    def __init__(self, n: int, rows: np.ndarray, counted: np.ndarray, ends: Sequence[np.ndarray]):
        """Count the pair {row[ends[0][j]], row[ends[1][j]]} for every j and
        every row i with counted[i].  Counted rows hold distinct points and
        ends distinct position pairs, so a row covers a pair at most once:
        no count exceeds the number of rows counted, and the counts take the
        narrowest unsigned dtype that holds it."""
        kept = np.flatnonzero(counted)
        self.counts = np.zeros(n * (n - 1) // 2, np.min_scalar_type(len(kept)))
        one = self.counts.dtype.type(1)  # a plain 1 sends np.add.at down a slow path
        for start in range(0, len(kept), _CHUNK_ROWS):
            chunk = rows[kept[start : start + _CHUNK_ROWS]]
            np.add.at(self.counts, _pair_index(chunk[:, ends[0]], chunk[:, ends[1]]), one)

    def errors(self, groups: Iterable[Iterable[int]] = ()) -> list[tuple[tuple[int, int], int]]:
        """((u, v), count capped at 255) of each pair covered other than once
        across groups, or at all inside one group, in index order."""
        wrong = self.counts != 1
        for group in groups:
            points = np.fromiter(group, dtype=np.int64)
            inside = _pair_index(points[:, None], points)[points[:, None] < points]
            wrong[inside] = self.counts[inside] != 0
        index = np.flatnonzero(wrong)
        v = np.array([(1 + isqrt(8 * i + 1)) // 2 for i in index.tolist()], dtype=np.int64)
        pairs = zip((index - _pair_index(0, v)).tolist(), v.tolist())
        return list(zip(pairs, np.minimum(self.counts[index], 255).tolist()))


def _header_outruns_blocks(report: CertReport, n: int) -> bool:
    """A complete-mode header whose block count is wrong and whose blocks
    cannot cover half its n(n-1)/2 pairs: the report fails on the block
    count alone, before anything sized by n is built."""
    return report.count_actual != report.count_expected and n * (n - 1) > 192 * report.count_actual


def _bad_rows(blocks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row: whether a label lies outside 0..n-1, and whether one does or
    two are equal (a label error).  Its sorted copy dies before the pair counts."""
    out_of_range = ((blocks < 0) | (blocks >= n)).any(axis=1)
    ordered = np.sort(blocks, axis=1)
    return out_of_range, out_of_range | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)


def certify(cert: Certificate) -> CertReport:
    """Check a certificate by exact pair counting; all findings go in the report."""
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

    out_of_range, bad = _bad_rows(blocks, n)
    for idx in np.flatnonzero(bad).tolist():
        problem = f"label out of range 0..{n - 1}" if out_of_range[idx] else "repeated label"
        report.label_errors.append(f"block {idx}: {problem}")

    counter = PairCounter(n, blocks, ~bad, np.array(target_graph(cert.target).edges).T - 1)
    residues = [range(r, n, 4) for r in range(4)] if mode is CertMode.FOUR_PARTITE else ()
    report.pair_errors = counter.errors(residues)
    return report


def certify_raw_edges(cert: Certificate) -> CertReport:
    """certify(cert)'s report, plus the check that the target's edge table is
    the graph of its definition (targets.matches_definition); if it is not,
    the report gains ``edge table is not the {target} graph``."""
    report = certify(cert)
    if not matches_definition(cert.target):
        report.part_errors.append(f"edge table is not the {cert.target.value} graph")
    return report


# --- certificate files ----------------------------------------------------
#
# Text, UTF-8, LF.  Line 1: `design <shrikhande|lk44> <n> <complete|4partite>`;
# line 2: `blocks <count>`; then one line of 16 decimal labels per block.
# Every integer is ASCII decimal (_ascii_ints).  Certificate, ingredient and
# base-block files share that rule and read their lines through
# _content_lines, a generator that holds one line's tokens at a time.
# Lines starting with `#` are comments.  The `design` keyword is the format
# version marker: any other keyword is rejected as a format mismatch.
#
# Two readers, and the input picks one.  _parse_bulk takes an ASCII file
# whose header is lines 1 and 2 and whose body starts with a digit and holds
# only digits, spaces and LFs: one np.loadtxt pass reads the body, kept only
# if it is exactly (count, 16) rows that fit in int32, and then it is what
# the line parser would read.  Every other file (a comment, a leading blank
# line, another line break, a doubled space, a sign, a wrong count or width,
# an overflow) goes to _parse_lines, the one source of every parse message
# and line number.


def _beyond_ascii_decimal(text: str) -> bool:
    """Whether text holds a character that int() takes and -?[0-9]+ does
    not: '+', '_' or any non-ASCII character (digits of other scripts)."""
    return not text.isascii() or "+" in text or "_" in text


def _ascii_ints(tokens: Sequence[str]) -> list[int]:
    """The integers of tokens spelled -?[0-9]+ in ASCII, the one integer
    syntax of certificate, ingredient and base-block files; ValueError for
    any other token."""
    if _beyond_ascii_decimal("".join(tokens)):
        raise ValueError(f"not ASCII decimal integers: {' '.join(tokens)!r}")
    return list(map(int, tokens))


def _content_lines(text: str):
    """(line number, tokens) of each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


def format_certificate(cert: Certificate) -> str:
    """The certificate's text, its labels gathered from one byte table of
    the names of the labels it uses."""
    blocks = cert.blocks
    if (blocks < 0).any():
        raise ValueError("certificate labels must be nonnegative")
    header = f"design {cert.target.value} {cert.order} {cert.mode.value}\nblocks {len(blocks)}\n"
    if not blocks.size:
        return header
    labels, index = np.unique(blocks, return_inverse=True)
    width = len(str(labels[-1]))
    # row i: the name of labels[i], NUL-padded to width, then a space
    table = np.full((len(labels), width + 1), ord(" "), dtype=np.uint8)
    table[:, :width] = labels.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    cells = table[index.reshape(blocks.shape)]
    cells[:, -1, -1] = ord("\n")
    return header + cells[cells != 0].tobytes().decode("ascii")


def _read_header(lines) -> tuple[int, TargetId, int, CertMode, int]:
    """Consume the design and blocks lines from _content_lines;
    (blocks line number, target, order, mode, block count)."""
    lineno, tokens = next(lines, (1, None))
    if tokens is None:
        raise CertificateParseError(lineno, "file ends before the design header")
    if tokens[0] != "design":
        raise CertificateParseError(
            lineno, f"unsupported format: expected 'design', got {tokens[0]!r}"
        )
    if len(tokens) != 4:
        raise CertificateParseError(lineno, "header needs: design <target> <n> <mode>")
    try:
        target = TargetId(tokens[1])
    except ValueError:
        raise CertificateParseError(lineno, f"unknown target {tokens[1]!r}") from None
    try:
        (order,) = _ascii_ints(tokens[2:3])
    except ValueError:
        raise CertificateParseError(lineno, f"bad order {tokens[2]!r}") from None
    try:
        mode = CertMode(tokens[3])
    except ValueError:
        raise CertificateParseError(lineno, f"unknown mode {tokens[3]!r}") from None

    lineno, tokens = next(lines, (lineno, None))
    if tokens is None:
        raise CertificateParseError(lineno, "file ends before the blocks line")
    if len(tokens) != 2 or tokens[0] != "blocks":
        raise CertificateParseError(lineno, "expected 'blocks <count>'")
    try:
        (count,) = _ascii_ints(tokens[1:])
    except ValueError:
        raise CertificateParseError(lineno, f"bad block count {tokens[1]!r}") from None
    if count < 0:
        raise CertificateParseError(lineno, "block count must be nonnegative")
    return lineno, target, order, mode, count


def _parse_lines(text: str) -> Certificate:
    """The line parser: every file, one content line at a time."""
    lines = _content_lines(text)
    lineno, target, order, mode, count = _read_header(lines)

    # where the whole text passes, int() alone keeps to _ascii_ints' rule,
    # so label lines, the bulk of the file, skip the check per line
    ints = _ascii_ints if _beyond_ascii_decimal(text) else lambda t: list(map(int, t))
    blocks, linenos = [], []
    for _ in range(count):
        try:
            lineno, tokens = next(lines)
        except StopIteration:
            raise CertificateParseError(lineno, f"file ends before block {len(blocks)}") from None
        if len(tokens) != 16:
            raise CertificateParseError(lineno, f"{len(tokens)} labels, want 16")
        try:
            blocks.append(ints(tokens))
        except ValueError:
            raise CertificateParseError(lineno, "labels must be decimal integers") from None
        linenos.append(lineno)
    extra = next(lines, None)
    if extra is not None:
        raise CertificateParseError(extra[0], "trailing content after last block")
    try:
        return Certificate(target=target, order=order, mode=mode, blocks=blocks)
    except ValueError:
        # every row is 16 integers, so some label does not fit in int32
        top = np.iinfo(np.int32)
        i = next(i for i, row in enumerate(blocks) if min(row) < top.min or max(row) > top.max)
        raise CertificateParseError(linenos[i], "label does not fit in 32 bits") from None


def _parse_bulk(text: str) -> Certificate | None:
    """What _parse_lines reads from text, in one numpy pass over the body,
    for the files described above; None for every other file."""
    parts = text.encode("ascii").split(b"\n", 2) if text.isascii() else []
    if len(parts) < 3 or not parts[2][:1].isdigit() or parts[2].translate(None, b"0123456789 \n"):
        return None
    lines = _content_lines(text[: len(parts[0]) + 1 + len(parts[1])])
    try:
        _, target, order, mode, count = _read_header(lines)
    except CertificateParseError:
        return None
    if next(lines, None) is not None:  # a line break other than LF in the header
        return None
    try:  # older numpy casts a label beyond int32 via a float, with only a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            blocks = np.loadtxt(io.BytesIO(parts[2]), dtype=np.int32, delimiter=" ",
                                comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):  # ragged rows, an empty field, a label beyond int32
        return None
    if blocks.shape != (count, 16):
        return None
    return Certificate(target, order, mode, blocks)


def parse_certificate(text: str) -> Certificate:
    """Parse a certificate; CertificateParseError names the line at fault."""
    cert = _parse_bulk(text)
    return cert if cert is not None else _parse_lines(text)


def write_certificate(cert: Certificate, path: str | Path) -> None:
    Path(path).write_text(format_certificate(cert), encoding="utf-8", newline="\n")


def read_certificate(path: str | Path) -> Certificate:
    return parse_certificate(Path(path).read_text(encoding="utf-8"))
