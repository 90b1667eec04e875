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
a failing report, not an exception.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TYPE_CHECKING

import numpy as np

from .targets import TargetId, as_block_array, graph_from_edges, is_isomorphic, target_graph

if TYPE_CHECKING:
    from .blocks import Design


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
    """A syntactically well-formed decomposition claim, not yet verified.

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

    @staticmethod
    def from_design(design: "Design") -> "Certificate":
        return Certificate(design.target, design.order, CertMode.COMPLETE, design.blocks)


@dataclass
class CertReport:
    """Outcome of a certification run; passed iff every error list is empty
    and the block counts match."""

    count_expected: int
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


def _pair_from_index(i: int) -> tuple[int, int]:
    v = int((1 + (1 + 8 * i) ** 0.5) // 2)
    while v * (v - 1) // 2 > i:
        v -= 1
    while (v + 1) * v // 2 <= i:
        v += 1
    return (i - v * (v - 1) // 2, v)


def _count_pair_coverage(
    n: int, blocks: np.ndarray, edges: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Exact coverage counter over all n(n-1)/2 pairs, one cell per pair."""
    iu, iv = (np.array(ends) - 1 for ends in zip(*edges))
    a, b = blocks[:, iu], blocks[:, iv]
    hi = np.maximum(a, b).astype(np.int64)
    return np.bincount((hi * (hi - 1) // 2 + np.minimum(a, b)).ravel(), minlength=n * (n - 1) // 2)


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

    out_of_range = ((blocks < 0) | (blocks >= n)).any(axis=1)
    ordered = np.sort(blocks, axis=1)
    bad = out_of_range | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    for idx in np.flatnonzero(bad).tolist():
        problem = f"label out of range 0..{n - 1}" if out_of_range[idx] else "repeated label"
        report.label_errors.append(f"block {idx}: {problem}")

    counts = _count_pair_coverage(n, blocks[~bad], target_graph(cert.target).edges)
    if mode is CertMode.FOUR_PARTITE:
        want = np.array(
            [1 if u % 4 != v % 4 else 0 for v in range(n) for u in range(v)],
            dtype=np.int64,
        )
    else:
        want = 1
    for i in np.flatnonzero(counts != want).tolist():
        report.pair_errors.append((_pair_from_index(i), int(counts[i])))
    return report


def certify_raw_edges(
    order: int,
    edge_partition: Sequence[Iterable[tuple[int, int]]],
    target: TargetId,
) -> CertReport:
    """Definitional certification for raw-edge certificates.

    Each part must be the edge set of a graph isomorphic to the target
    (checked by explicit isomorphism search, not by trusting any tuple),
    and together the parts must cover every pair of 0..order-1 exactly
    once.
    """
    n = order
    expected = n * (n - 1) // 96
    report = CertReport(count_expected=expected, count_actual=len(edge_partition))
    if n < 1:
        report.label_errors.append(f"order {n} is not positive")
        return report
    goal = target_graph(target)
    counts = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    for idx, part in enumerate(edge_partition):
        edges = []
        ok = True
        for u, v in part:
            if u == v or not (0 <= u < n and 0 <= v < n):
                report.label_errors.append(f"part {idx}: bad edge ({u},{v})")
                ok = False
                continue
            edges.append((u, v) if u < v else (v, u))
        if len(set(edges)) != len(edges):
            report.label_errors.append(f"part {idx}: repeated edge")
            ok = False
        for u, v in edges:
            counts[v * (v - 1) // 2 + u] += 1  # pair {u, v} with u < v
        if not ok:
            continue
        if len(edges) != 48:
            report.part_errors.append(f"part {idx}: {len(edges)} edges, want 48")
            continue
        support = {p for e in edges for p in e}
        if len(support) != 16:
            report.part_errors.append(f"part {idx}: {len(support)} vertices, want 16")
            continue
        if is_isomorphic(graph_from_edges(edges), goal.graph) is None:
            report.part_errors.append(f"part {idx}: not isomorphic to {target.value}")
    for i in np.nonzero(counts != 1)[0]:
        report.pair_errors.append((_pair_from_index(int(i)), int(counts[i])))
    return report


# --- certificate files ----------------------------------------------------
#
# Text, UTF-8, LF.  Line 1: `design <shrikhande|lk44> <n> <complete|4partite>`;
# line 2: `blocks <count>`; then one line of 16 decimal labels per block.
# Lines starting with `#` are comments.  The `design` keyword is the format
# version marker: any other keyword is rejected as a format mismatch.


def format_certificate(cert: Certificate) -> str:
    if (cert.blocks < 0).any():
        raise ValueError("certificate labels must be nonnegative")
    lines = [
        f"design {cert.target.value} {cert.order} {cert.mode.value}",
        f"blocks {len(cert.blocks)}",
    ]
    lines.extend(" ".join(map(str, block)) for block in cert.blocks.tolist())
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    stripped = ((i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1))
    numbered = [(i, ln) for i, ln in stripped if ln and not ln.startswith("#")]
    pos = 0

    def next_line(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(numbered):
            last = numbered[-1][0] if numbered else 1
            raise CertificateParseError(last, f"file ends before {what}")
        entry = numbered[pos]
        pos += 1
        return entry

    lineno, header = next_line("the design header")
    tokens = header.split()
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
        order = int(tokens[2])
    except ValueError:
        raise CertificateParseError(lineno, f"bad order {tokens[2]!r}") from None
    try:
        mode = CertMode(tokens[3])
    except ValueError:
        raise CertificateParseError(lineno, f"unknown mode {tokens[3]!r}") from None

    lineno, counts = next_line("the blocks line")
    tokens = counts.split()
    if len(tokens) != 2 or tokens[0] != "blocks":
        raise CertificateParseError(lineno, "expected 'blocks <count>'")
    try:
        count = int(tokens[1])
    except ValueError:
        raise CertificateParseError(lineno, f"bad block count {tokens[1]!r}") from None
    if count < 0:
        raise CertificateParseError(lineno, "block count must be nonnegative")

    first = pos
    blocks = []
    for _ in range(count):
        lineno, line = next_line(f"block {len(blocks)}")
        tokens = line.split()
        if len(tokens) != 16:
            raise CertificateParseError(lineno, f"{len(tokens)} labels, want 16")
        try:
            blocks.append(list(map(int, tokens)))
        except ValueError:
            raise CertificateParseError(lineno, "labels must be decimal integers") from None
    if pos < len(numbered):
        raise CertificateParseError(numbered[pos][0], "trailing content after last block")
    try:
        return Certificate(target=target, order=order, mode=mode, blocks=blocks)
    except ValueError:
        # every row is 16 integers, so some label does not fit in int32
        top = np.iinfo(np.int32)
        i = next(i for i, row in enumerate(blocks) if min(row) < top.min or max(row) > top.max)
        lineno = numbered[first + i][0]
        raise CertificateParseError(lineno, "label does not fit in 32 bits") from None


def write_certificate(cert: Certificate, path: str | Path) -> None:
    Path(path).write_text(format_certificate(cert), encoding="utf-8", newline="\n")


def read_certificate(path: str | Path) -> Certificate:
    return parse_certificate(Path(path).read_text(encoding="utf-8"))
