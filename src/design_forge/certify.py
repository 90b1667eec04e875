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

Every other certificate with every label in 0..n-1 is first counted
with no label check: if every pair is covered exactly once, it passes on
its counts alone (certify says why that is sound).  Only where a count
exceeds 1, or the counts fail, are the rows sorted for a repeated label.

certify_raw_edges adds one check, edge_table_errors: the target's edge
table must match its definition.  Blocks need no search, as a row of 16
distinct labels reads through the table as a copy of it, v -> row[v-1]
being the isomorphism.

PairCounter is the package's one pair counter, to which rows are added a
slice at a time.  _Tally is the one count-and-check routine of certify,
over a certificate's blocks as one slice, and of certify_file, over a
file's pieces; certify_slices counts a design never held whole
(assemble.construct_design) with the same range check (_added), and
PairCounter.prove makes exact the counts of a failing certificate and
gdd.verify_gdd's.  Every report caps its pair counts at 255 and lists the
first 1000 wrong pairs beside the exact number of them.  Its memory is
one uint8 count per pair (freed before wider ones exist where a count
passes 255) and one slice of rows or pairs at a time, never a whole-pair
mask or a sorted copy of every block.

Every certificate is read by one reader, _body_rows, a piece of its body
at a time, each piece's rows in the narrowest dtype that holds its labels:
uint8 below 256, uint16 below 65,536, else int32.  read_certificate and
parse_certificate fill one int32 block array from it; certify_file,
verify's reader, counts a complete-mode file's pieces in a _Tally, so it
holds the counts, one piece's narrow rows and one chunk's pair indices
(in int32, and half of them in intp), never the file's bytes, its block
array or a read buffer.  A file whose tally does not settle is read as
read_certificate reads it and checked by certify.  A pipe is first copied into an unnamed temporary file, a piece
at a time (_opened), so every input is read alike.

write_certificate formats and writes 512 rows at a time, and write_slices
a design's slices one at a time, so their memory follows one slice, not
the file; format_certificate joins write_certificate's chunks.
"""

from __future__ import annotations

import codecs
import enum
import io
import shutil
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

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
    no whole number of blocks expects None.  pair_error_count is the exact
    number of wrong pairs, of which pair_errors lists the first (see
    PairCounter.errors)."""

    count_expected: int | None
    count_actual: int
    label_errors: list[str] = field(default_factory=list)
    pair_errors: list[tuple[tuple[int, int], int]] = field(default_factory=list)
    part_errors: list[str] = field(default_factory=list)
    pair_error_count: int = 0

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
            parts.append(f"{self.pair_error_count} pairs covered != once")
        if self.part_errors:
            parts.append(f"{len(self.part_errors)} bad parts")
        return ", ".join(parts)


def _pair_index(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Pair {u < v} of 0..n-1, given in either order, has index v(v-1)/2 + u,
    in int32 where n(n-1) fits (n <= 46341), else int64.  The ends are
    compared in their own dtype, over v, which every caller passes fresh,
    and u is let go; only the larger end is widened, so the uint16 ends of
    a chunk peak at the low end, the wide end and the index (61 KB), where
    widening both ends held them wide beside the low one (74 KB).  Ends
    already wide peak at three arrays the size of u."""
    wide = np.int32 if n * (n - 1) < 2**31 else np.int64
    lo = np.minimum(u, v)
    hi = np.maximum(u, v, out=v)
    u = v = None
    hi = hi.astype(wide, copy=False)
    index = hi - 1
    index *= hi
    hi = None
    index >>= 1
    index += lo
    return index


# Rows per chunk of PairCounter.add, 6144 pair hits.  Their indices are built
# in int32, which peaks lower than intp, and cast to intp half a chunk at a
# time, one np.add.at each, as it copies any other index to intp beside it:
# the int32 indices and half their intp copy, 49 KB, where the whole copy
# took 74 KB.  256 rows raised the peak of certify of 289 from 0.11 to 0.18 MiB.
_CHUNK_ROWS = 128

# Rows per sorted copy in _counted_rows, which runs beside the counts where
# they do not prove the design (see _Tally): a copy and its compare, 80 bytes
# a row, must leave a failing certify's peak in PairCounter.errors.
_SORT_ROWS = 1024

# Wrong pairs listed per report, far above the few dozen a corrupted block
# makes: one block repeated to fill K_1153 makes 664,128, whose tuples
# would take 136 MiB.  The count of wrong pairs stays exact.
_LISTED_PAIRS = 1000

# Pairs per slice of PairCounter.errors: the slice's wrong mask takes
# 64 KiB and the int64 indices of its wrong pairs at most 0.5 MiB, however
# many pairs there are and however many are wrong.
_SCAN_PAIRS = 1 << 16


class PairCounter:
    """Coverage counts of the pairs of 0..n-1, one per pair, to which rows
    are added a slice at a time, _CHUNK_ROWS rows at a time: the counts,
    and one chunk's pair indices, are all it holds."""

    def __init__(self, n: int, ends: Sequence[np.ndarray]):
        """Empty uint8 counts.  Each row added hits the pair {row[ends[0][j]],
        row[ends[1][j]]} for every j.  A label l at both ends of an edge hits
        index l(l+1)/2, the pair {0, l+1}, or for l = n-1 a spare count past
        the pairs, so every hit of a row with labels in 0..n-1 lands in a
        count and once still means every count is 1 (see certify); the other
        counts are exact only for rows of distinct labels (see prove)."""
        self.n = n
        self.ends = ends
        self.rows = 0
        self._all = np.zeros(n * (n - 1) // 2 + 1, np.uint8)  # the pairs, then the spare count
        self.counts = self._all[:-1]

    @classmethod
    def of(cls, n: int, rows: np.ndarray, counted: np.ndarray | None,
           ends: Sequence[np.ndarray]) -> "PairCounter":
        """The rows with counted[i] (all where counted is None), added and proved."""
        counter = cls(n, ends)
        counter.add(rows, counted)
        counter.prove(rows, counted)
        return counter

    @property
    def hits(self) -> int:
        return self.rows * len(self.ends[0])

    @property
    def once(self) -> bool:
        """Every count is 1: hits as many as the pairs, and no count 0 (a
        wrapped count that reads above 0 stands for more hits than that).
        The one pass test of certify, certify_slices and certify_file (see
        certify)."""
        return self.hits == len(self.counts) and self.counts.min(initial=1) > 0

    @property
    def exact(self) -> bool:
        """The counts, spare included, sum to the hits made: no count has
        wrapped, as a wrap loses a multiple of the dtype's range."""
        return self._all.sum(dtype=np.min_scalar_type(self.hits)) == self.hits

    def prove(self, rows: np.ndarray, counted: np.ndarray | None = None) -> None:
        """Make exact the counts of the rows with counted[i], added and not
        taken back, each of distinct labels and so covering a pair at most
        once.  The counts stay where no more rows count than their dtype
        holds, or where they are exact; else they are freed and the same
        rows counted once more, in the narrowest dtype that holds their
        number."""
        if self.rows > np.iinfo(self._all.dtype).max and not self.exact:
            dtype, size = np.min_scalar_type(self.rows), len(self._all)
            self._all = self.counts = None  # free the uint8 counts before the wide ones exist
            self._all = np.zeros(size, dtype)
            self.counts, self.rows = self._all[:-1], 0
            self.add(rows, counted)

    def add(self, rows: np.ndarray, counted: np.ndarray | None = None, sign: int = 1) -> None:
        """Add the hits of the rows with counted[i] (every row where counted
        is None), labels in 0..n-1; sign -1 takes hits added before back out
        of the counts, through the same pair indices."""
        at = np.add.at if sign > 0 else np.subtract.at
        one = self._all.dtype.type(1)  # a plain 1 sends ufunc.at down a slow path
        u, v = self.ends
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start : start + _CHUNK_ROWS]
            if counted is not None and not (keep := counted[start : start + _CHUNK_ROWS]).all():
                chunk = chunk[keep]
            # one axis of indices takes ufunc.at's faster path; a gather along
            # axis 1 is laid out column by column, which ravel("K") keeps uncopied
            index = _pair_index(chunk[:, u], chunk[:, v], self.n).ravel("K")
            half = len(index) // 2
            at(self._all, index[:half].astype(np.intp, copy=False), one)
            at(self._all, index[half:].astype(np.intp, copy=False), one)
            del index  # before the next chunk's ends exist
            self.rows += sign * len(chunk)

    def errors(
        self, groups: Iterable[Iterable[int]] = ()
    ) -> tuple[list[tuple[tuple[int, int], int]], int]:
        """The wrong pairs: those covered other than once across groups, or
        at all inside one group.  ((u, v), count capped at 255) of the first
        _LISTED_PAIRS in index order, and how many there are; each slice of
        pairs has the pairs inside groups that fall in it patched in."""
        inside = []
        for group in groups:
            points = np.fromiter(group, dtype=np.int32)
            tri = _pair_index(np.zeros_like(points), points, self.n)  # of the pairs (0, p)
            inside.append((tri + points[:, None])[points[:, None] < points])
        inside = np.sort(np.concatenate(inside)) if inside else np.zeros(0, np.int32)
        listed, total = [], 0
        for start in range(0, len(self.counts), _SCAN_PAIRS):
            counts = self.counts[start : start + _SCAN_PAIRS]
            wrong = counts != 1
            if len(inside):
                lo, hi = inside.searchsorted(np.array((start, start + _SCAN_PAIRS), inside.dtype))
                patch = inside[lo:hi] - start
                wrong[patch] = counts[patch] != 0
            found = int(np.count_nonzero(wrong))
            if found and total < _LISTED_PAIRS:
                listed.append(np.flatnonzero(wrong)[: _LISTED_PAIRS - total] + start)
            total += found
        if not total:  # most reports pass: spare them the decoding
            return [], 0
        listed = np.concatenate(listed)
        # v = (1 + isqrt(8i + 1)) // 2: a float root is exact below n = 2^25,
        # where the counts alone would take 2^49 bytes
        v = ((1 + np.sqrt(8 * listed + 1)) // 2).astype(np.int64)
        # max(0, v) = v, so _pair_index leaves v as it is
        pairs = zip((listed - _pair_index(np.zeros_like(v), v, self.n)).tolist(), v.tolist())
        return list(zip(pairs, np.minimum(self.counts[listed], 255).tolist())), total


def _header_outruns_blocks(report: CertReport, n: int) -> bool:
    """A complete-mode header whose block count is wrong and whose blocks
    cannot cover half its n(n-1)/2 pairs: the report fails on the block
    count alone, before anything sized by n is built."""
    return report.count_actual != report.count_expected and n * (n - 1) > 192 * report.count_actual


def _counted_rows(blocks: np.ndarray, n: int, label_errors: list[str],
                  first: int = 0) -> np.ndarray:
    """Per row: whether its labels are distinct and lie in 0..n-1, read off
    sorted copies of _SORT_ROWS rows at a time; every other row's label
    error joins label_errors, blocks[0] being block first."""
    counted = np.empty(len(blocks), dtype=bool)
    for start in range(0, len(blocks), _SORT_ROWS):
        ordered = np.sort(blocks[start : start + _SORT_ROWS], axis=1)
        out_of_range = (ordered[:, 0] < 0) | (ordered[:, -1] >= n)
        # each label against the next over the flat rows, where comparing two
        # column slices buffered 64 KiB; a row's last compare, against the
        # next row, is cleared
        repeats = np.empty(ordered.shape, dtype=bool)
        np.equal(ordered.ravel()[1:], ordered.ravel()[:-1], out=repeats.ravel()[:-1])
        repeats[:, -1] = False
        bad = out_of_range | repeats.any(axis=1)
        for idx in np.flatnonzero(bad).tolist():
            problem = f"label out of range 0..{n - 1}" if out_of_range[idx] else "repeated label"
            label_errors.append(f"block {first + start + idx}: {problem}")
        np.logical_not(bad, out=counted[start : start + _SORT_ROWS])
        del ordered, repeats  # before the next slice's copies exist
    return counted


def _added(counter: PairCounter, rows: np.ndarray) -> bool:
    """Whether every label of the rows, unsigned or int32, lies in 0..n-1,
    where they are then added to counter: one max bounds both ends, over
    int32 rows viewed as uint32, where a negative label reads 2^31 or more."""
    labels = rows if rows.dtype.kind == "u" else rows.view(np.uint32)
    if labels.max(initial=0) >= counter.n:
        return False
    counter.add(rows)
    return True


# Pairs up to which _Tally watches its counts for one above 1 after every
# slice: the max reads every pair, and must cost a small part of counting
# the slice.
_WATCHED_PAIRS = 1 << 18


class _Tally:
    """certify's and certify_file's one count-and-check routine: a
    certificate's rows, fed a slice at a time into one PairCounter, with the
    label errors of the rows it has label-checked.

    While no count exceeds 1, the spare count included, no counted row
    repeats a label, as in certify, so no label check is made.  The first
    slice that holds a label outside 0..n-1, or after which a count exceeds
    1, is label-checked (_counted_rows), its bad rows' hits taken back or
    only its good rows counted, and so is every later slice.  That max reads
    every pair, so counts of more than _WATCHED_PAIRS pairs are not watched:
    only a slice with a label out of range starts the checks."""

    def __init__(self, target: TargetId, n: int, label_errors: list[str]):
        self.counter = PairCounter(n, target_graph(target).edge_ends)
        self.watched = len(self.counter._all) <= _WATCHED_PAIRS
        self.label_errors = label_errors
        self.blocks = 0  # rows fed in
        self.checked_from: int | None = None  # the first label-checked block

    def add(self, rows: np.ndarray) -> np.ndarray | None:
        """Count the next slice of rows; its counted mask where it was
        label-checked (see _counted_rows), else None."""
        first, self.blocks = self.blocks, self.blocks + len(rows)
        if self.checked_from is None and _added(self.counter, rows):
            if not self.watched or self.counter._all.max() <= 1:
                return None
            return self.check(rows, first, added=True)
        return self.check(rows, first, added=False)

    def check(self, rows: np.ndarray, first: int, added: bool) -> np.ndarray:
        """Label-check rows, blocks first on, then take their bad rows' hits
        back where they were added, else add their good rows; their counted
        mask."""
        if self.checked_from is None:
            self.checked_from = first
        counted = _counted_rows(rows, self.counter.n, self.label_errors, first)
        if not added:
            self.counter.add(rows, counted)
        elif not counted.all():
            self.counter.add(rows, ~counted, sign=-1)
        return counted

    @property
    def settled(self) -> bool:
        """The counts are exact and the label errors all there are.  A slice
        counted unchecked under watch left no count above 1, so a row of it
        that repeats a label left a count that wrapped, at least 256 hits
        that no later take-back removes, and the counts would not be exact;
        unwatched, every slice must have been checked."""
        return (self.watched or self.checked_from == 0) and self.counter.exact


def certify(cert: Certificate) -> CertReport:
    """Check a certificate by exact pair counting; all findings go in the report.

    The blocks are counted as one slice by _Tally, and pass if every pair
    is covered once.  That needs rows * 48 hits, as many as the pairs: in
    complete mode exactly the n(n-1)/96 rows expected, in 4partite mode
    (120 pairs) never.  And no row that repeats a label can leave every
    count 1: each target is srg(16, 6, 2, 2), so with lambda = mu = 2 any
    two positions i, j have a common neighbour k, and row[i] = row[j]
    makes edges ik and jk hit one pair index, which a uint8 count shows
    unless it wraps.  Where the tally is not settled, its slice is
    label-checked if it was not, and PairCounter.prove counts the good rows
    again, wider, only if it must."""
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

    tally = _Tally(cert.target, n, report.label_errors)
    counted = tally.add(blocks)
    counter = tally.counter
    if counter.once:
        return report
    if counted is None and not tally.settled:
        counted = tally.check(blocks, 0, added=True)
    counter.prove(blocks, counted)
    residues = [range(r, n, 4) for r in range(4)] if mode is CertMode.FOUR_PARTITE else ()
    report.pair_errors, report.pair_error_count = counter.errors(residues)
    return report


def certify_slices(target: TargetId, n: int, slices: Iterable[np.ndarray]) -> bool:
    """Whether the complete-mode design of order n whose rows come as slices
    passes certify on its counts alone: every slice's labels in 0..n-1,
    n(n-1)/96 rows in all (their hits as many as the pairs) and every pair
    covered once.  Holds the uint8 counts and one slice, never the design;
    where it is False, certify of the design says why."""
    counter = PairCounter(n, target_graph(target).edge_ends)
    return all(_added(counter, rows) for rows in slices) and counter.once


def edge_table_errors(target: TargetId) -> list[str]:
    """The one check of certify_raw_edges and `verify --raw` beyond certify:
    ``edge table is not the {target} graph`` where the target's edge table
    is not the graph of its definition (targets.matches_definition)."""
    return [] if matches_definition(target) else [f"edge table is not the {target.value} graph"]


def certify_raw_edges(cert: Certificate) -> CertReport:
    """certify(cert)'s report, its part errors joined by
    edge_table_errors(cert.target)."""
    report = certify(cert)
    report.part_errors += edge_table_errors(cert.target)
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
# One reader.  A file whose first two lines are the design and blocks
# lines, ASCII and broken by LF or CRLF alone (_file_header), has its body
# read by _body_rows a piece at a time: each piece that holds only digits,
# single spaces and LF or CRLF line ends, in rows of 16 labels that fit in
# int32, is one np.loadtxt pass, its rows then narrowed.  At the first piece it does not take (a
# comment, a blank line, another line break, a doubled space, a sign, a
# ragged line, an overflow, more rows than the count), or where the pieces
# end short of the count or of the file, the line parser's row reader,
# _line_rows, reads the rest, so the line parser is the one source of every
# parse message and line number.  Every other file, and a str that is not
# ASCII, goes to _parse_lines whole.


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


def _content_lines(text: str, start: int = 1):
    """(line number, tokens) of each line that is neither blank nor a comment,
    text's first line being line start."""
    for lineno, raw in enumerate(text.splitlines(), start=start):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


# Rows per slice of a design: write_certificate cuts a Certificate's rows
# into slices of this many, and construct makes its design this many rows
# at a time, so the writer holds one such slice's cells and text at a time
# whichever of them feeds it.
_SLICE_ROWS = 512


def _cells(labels: np.ndarray) -> np.ndarray:
    """(..., width + 1) uint8 cells of nonnegative labels: each label's
    digits NUL-padded to the width of the largest, then a space."""
    width = len(str(labels.max()))
    cells = np.full(labels.shape + (width + 1,), ord(" "), dtype=np.uint8)
    for j in range(width - 1, -1, -1):  # numpy divides by a scalar far faster than by powers
        quot = labels // 10
        cells[..., j] = (labels - quot * 10 + ord("0")) * (labels > 0)
        labels = quot
    cells[..., width - 1] |= ord("0")  # the one digit of a label 0
    return cells


def _text_chunks(header: str, slices: Iterable[np.ndarray], top: int,
                 count: int) -> Iterator[bytes]:
    """A certificate's text as ASCII bytes: its header, then the label lines
    of each slice of its rows, the NULs of their cells dropped.  Where the
    largest label, top, is below 16 * _SLICE_ROWS or below count, the row
    count, as every label of a design is, each label's cell is gathered from
    a table of the cells of 0..top: no larger than one chunk's cells or a
    fifth of the blocks.  Larger labels take their digits slice by slice."""
    table = None
    if top < max(16 * _SLICE_ROWS, count):
        table = _cells(np.arange(top + 1, dtype=np.int32))

    def label_lines(rows: np.ndarray) -> bytes:
        cells = _cells(rows) if table is None else np.take(table, rows, axis=0)
        cells[:, -1, -1] = ord("\n")  # the space of each row's last cell
        return cells.tobytes().translate(None, b"\0")  # twice as fast as replace

    return chain([header.encode("ascii")], map(label_lines, slices))


def _header(target: TargetId, order: int, mode: CertMode, count: int) -> str:
    return f"design {target.value} {order} {mode.value}\nblocks {count}\n"


def _certificate_chunks(cert: Certificate) -> Iterator[bytes]:
    """_text_chunks of cert, _SLICE_ROWS rows at a time; a negative label
    raises ValueError here, before any chunk is taken."""
    blocks = cert.blocks
    if blocks.min(initial=0) < 0:
        raise ValueError("certificate labels must be nonnegative")
    slices = (blocks[i : i + _SLICE_ROWS] for i in range(0, len(blocks), _SLICE_ROWS))
    header = _header(cert.target, cert.order, cert.mode, len(blocks))
    return _text_chunks(header, slices, int(blocks.max(initial=0)), len(blocks))


def format_certificate(cert: Certificate) -> str:
    """The certificate's text, whole: the chunks write_certificate writes, joined."""
    return b"".join(_certificate_chunks(cert)).decode("ascii")


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
    """The line parser: a whole file, one content line at a time."""
    lines = _content_lines(text)
    lineno, target, order, mode, count = _read_header(lines)
    return Certificate(target, order, mode, _line_rows(text, lines, lineno, count, 0))


def _line_rows(text: str, lines, lineno: int, count: int, done: int) -> np.ndarray:
    """The line parser's rows: blocks done to count - 1 from lines, text's
    content lines, the last line read before them being lineno, and then
    no more content.  _parse_lines reads a file's rows through it, and
    _body_rows the rest of a file that its pieces do not take."""
    # where text passes, int() alone keeps to _ascii_ints' rule,
    # so label lines, the bulk of the file, skip the check per line
    ints = _ascii_ints if _beyond_ascii_decimal(text) else lambda t: list(map(int, t))
    blocks, linenos = [], []
    for _ in range(count - done):
        try:
            lineno, tokens = next(lines)
        except StopIteration:
            raise CertificateParseError(
                lineno, f"file ends before block {done + len(blocks)}"
            ) from None
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
        return as_block_array(blocks)
    except ValueError:
        # every row is 16 integers, so some label does not fit in int32
        top = np.iinfo(np.int32)
        i = next(i for i, row in enumerate(blocks) if min(row) < top.min or max(row) > top.max)
        raise CertificateParseError(linenos[i], "label does not fit in 32 bits") from None


# Bytes per piece of _body_rows: a reader holds one piece, then its int32 rows
# and their narrow copy, then that copy alone, beside the pair counts or the
# block array it fills, and pays one np.loadtxt call, and in a streamed
# verify one max over the counts, per piece.  Every read takes a whole piece
# or the rest of the file, so files are read with no buffer (_opened).
_PIECE_BYTES = 1 << 15


def _file_header(file) -> tuple[int, TargetId, int, CertMode, int] | None:
    """(where the body starts, target, order, mode, block count) of a
    seekable binary file whose first two lines, within its first piece,
    are ASCII and are the design and blocks lines, with no line break but
    LF or CRLF, so that its body starts at line 3; None for any other."""
    file.seek(0)
    head = file.read(_PIECE_BYTES)
    start = head.find(b"\n", head.find(b"\n") + 1) + 1  # the body starts after the second LF
    if not start or not head[:start].isascii():
        return None
    text = head[:start].decode("ascii")
    if len(text.splitlines()) != 2:  # another line break, or a blank line
        return None
    try:
        _, target, order, mode, count = _read_header(_content_lines(text))
    except CertificateParseError:
        return None
    return start, target, order, mode, count


def _label_rows(body: io.BytesIO, lines: int) -> np.ndarray | None:
    """The next lines of body as rows of int32 labels split at single
    spaces, one np.loadtxt pass; None for ragged rows, an empty field or a
    label beyond int32."""
    try:  # older numpy casts a label beyond int32 via a float, with only a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(islice(body, lines), dtype=np.int32, delimiter=" ",
                              comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None


# Bytes per slice of _decoded's check: a slice that fails costs about three
# times its size, in the decoder's output and the error's copy of its input
_UTF8_BYTES = 1 << 12


def _decoded(data: bytes) -> str:
    """data decoded whole as UTF-8 once it is known to decode, checked
    _UTF8_BYTES at a time first: a file that is not UTF-8 raises what
    bytes.decode raises, positions and all, without the three times its
    size that bytes.decode holds first, however early the bad byte."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    view = memoryview(data)
    for start in range(0, len(data), _UTF8_BYTES):
        held = len(decoder.getstate()[0])  # bytes of a character cut by the last slice
        try:
            decoder.decode(view[start : start + _UTF8_BYTES], start + _UTF8_BYTES >= len(data))
        except UnicodeDecodeError as exc:
            at = start - held
            raise UnicodeDecodeError(exc.encoding, data, at + exc.start, at + exc.end,
                                     exc.reason) from None
    return data.decode()


def _body_rows(file, start: int, count: int) -> Iterator[np.ndarray]:
    """The count rows of a seekable binary file's body, from byte start on,
    as _parse_lines reads them from its UTF-8 text, or its error, an array
    at a time (see above), a piece's in the narrowest unsigned dtype that
    holds its labels where that is narrower than int32.  Each piece is cut
    after its last whole _CHUNK_ROWS rows (its last LF, in the last piece),
    so its rows take as many np.add.at calls as the file whole."""
    size = file.seek(0, io.SEEK_END)
    pos, done = start, 0
    while pos < size:
        file.seek(pos)
        piece = file.read(_PIECE_BYTES)
        ends = piece.translate(None, b"0123456789 ")  # the line ends, and any other byte
        ends = ends[: ends.rfind(b"\n") + 1]  # those of the piece's whole lines
        lines = ends.count(b"\n")
        # a first row that is not blank also spares np.loadtxt its empty-input
        # warning; a CR other than CRLF's, a line break that LF counts miss,
        # np.loadtxt refuses as an embedded newline
        if not lines or ends.translate(None, b"\r\n") or not piece[:1].isdigit():
            break
        if pos + len(piece) < size and lines > _CHUNK_ROWS:
            lines -= lines % _CHUNK_ROWS  # the lines left are read again
        body = io.BytesIO(piece)
        rows = _label_rows(body, lines)
        if rows is None or rows.shape != (lines, 16) or done + lines > count:
            break
        pos += body.tell()
        done += lines
        del piece, ends, body  # before the rows are used
        top = rows.max(initial=0)  # labels of digits alone are nonnegative
        if top < 1 << 16:  # the int32 rows are freed as their narrow copy takes their name
            rows = rows.astype(np.min_scalar_type(top))
        yield rows
        del rows  # before the next piece's rows exist
    if done == count and pos == size:
        return
    file.seek(pos)
    try:
        text = _decoded(file.read())
    except UnicodeDecodeError:
        file.seek(0)
        _decoded(file.read())  # raises it again, at the file's own positions
        raise
    yield _line_rows(text, _content_lines(text, 3 + done), 2 + done, count, done)


def _room(file, start: int) -> int:
    """The most rows a body from byte start to the end of file can hold: a
    row takes 16 labels, 15 spaces and a line break, but for a last row."""
    return (file.seek(0, io.SEEK_END) - start + 1) // 32


def _read(file) -> Certificate:
    """The certificate in a seekable binary file, as _parse_lines reads its
    UTF-8 text: through _body_rows into one int32 array where _file_header
    takes the file, else decoded whole."""
    header = _file_header(file)
    if header is None:
        file.seek(0)
        return _parse_lines(_decoded(file.read()))
    start, target, order, mode, count = header
    blocks = np.empty((min(count, _room(file, start)), 16), np.int32)  # not the header's alone
    done = 0
    for rows in _body_rows(file, start, count):
        blocks[done : done + len(rows)] = rows
        done += len(rows)
        del rows  # before the next piece's rows exist
    return Certificate(target, order, mode, blocks)


def parse_certificate(text: str | bytes) -> Certificate:
    """Parse a certificate; CertificateParseError names the line at fault.
    Bytes, and a str of ASCII, are read as read_certificate reads a file
    of them; any other str goes to the line parser whole."""
    if isinstance(text, str):
        if not text.isascii():
            return _parse_lines(text)
        text = text.encode("ascii")
    return _read(io.BytesIO(text))


def write_certificate(cert: Certificate, path: str | Path) -> None:
    """Write format_certificate(cert) to path (a pipe will do) one chunk at a
    time; a negative label raises ValueError before path is opened."""
    chunks = _certificate_chunks(cert)
    with open(path, "wb") as out:
        out.writelines(chunks)


def write_slices(target: TargetId, n: int, slices: Iterable[np.ndarray],
                 path: str | Path) -> None:
    """Write the complete-mode certificate of order n whose n(n-1)/96 rows,
    labels in 0..n-1, come as slices, as write_certificate writes it, one
    slice at a time: the rows are taken as certify_slices passed them."""
    count = n * (n - 1) // 96
    with open(path, "wb") as out:
        out.writelines(_text_chunks(_header(target, n, CertMode.COMPLETE, count), slices,
                                    n - 1, count))


@contextmanager
def _opened(path: str | Path) -> Iterator[BinaryIO]:
    """The file at path, open to read bytes with no read buffer, as every
    read takes a whole piece or the rest of the file; where it cannot seek
    (a pipe, whose bytes can be read only once), an unnamed temporary file
    its bytes are copied into a piece at a time, so every reader seeks."""
    with open(path, "rb", buffering=0) as file:
        if file.seekable():
            yield file
            return
        with tempfile.TemporaryFile() as spool:
            shutil.copyfileobj(file, spool, _PIECE_BYTES)
            yield spool


def read_certificate(path: str | Path) -> Certificate:
    """The certificate in the file at path, read as bytes as Path.read_text
    (encoding="utf-8") reads it, with universal newlines, which need no
    translation: np.loadtxt ends a row at CRLF, str.splitlines a line at CR.
    It holds the block array and one piece of the file (see _body_rows)."""
    with _opened(path) as file:
        return _read(file)


def _streamed(file) -> tuple[TargetId, CertMode, CertReport] | None:
    """certify_file's result for the files it streams, None for any other
    or where the tally does not settle.  A block count other than n(n-1)/96
    is counted too, unless the header outruns its blocks, where certify
    counts nothing."""
    header = _file_header(file)
    if header is None:
        return None
    start, target, n, mode, count = header
    # a body too short for its rows fails to parse, before counts sized by
    # the header exist
    if mode is not CertMode.COMPLETE or n < 1 or _room(file, start) < count:
        return None
    report = CertReport(count_expected=n * (n - 1) // 96, count_actual=count)
    if _header_outruns_blocks(report, n):
        return None
    tally = _Tally(target, n, report.label_errors)
    for rows in _body_rows(file, start, count):
        tally.add(rows)
        del rows  # before the next piece's rows exist
        if not tally.watched and tally.checked_from is not None:
            return None  # a label out of range, unwatched: the tally cannot settle
    if not tally.counter.once:
        if not tally.settled:
            return None
        report.pair_errors, report.pair_error_count = tally.counter.errors()
    return target, mode, report


def certify_file(path: str | Path) -> tuple[TargetId, CertMode, CertReport]:
    """(target, mode, certify's report) of the certificate in the file at
    path, as read_certificate and certify give them, and raising what
    read_certificate raises.

    A complete-mode file whose two header lines _file_header takes, whose
    body has room for its block count and whose header does not outrun its
    blocks (_header_outruns_blocks) is streamed, whatever that count, a
    pipe from its spooled copy (see _opened): the rows that _body_rows reads, a piece at a time, are
    counted by a _Tally, so neither the file's bytes nor its block array is
    held whole, and a parse error is raised where the reader meets it.  It
    passes where every pair is covered once, and fails where the tally is
    settled.  Any other file, or outcome (a count that wrapped, a label out
    of range unwatched), is read as read_certificate reads it and checked
    by certify."""
    with _opened(path) as file:
        if (streamed := _streamed(file)) is not None:
            return streamed
        cert = _read(file)
    return cert.target, cert.mode, certify(cert)
