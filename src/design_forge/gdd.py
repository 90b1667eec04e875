"""Group divisible designs: verification, constructions, and the ingredient store.

A k-GDD of type g^u has gu points split into u groups of size g; its
blocks are k-subsets meeting every group at most once, such that each
pair of points from distinct groups lies in exactly one block and no
same-group pair lies in any block.  A Gdd is its type and its blocks, a
read-only (B, k) int32 array as for certify.Certificate: group i is the
i-th consecutive range of points in GddType.group_sizes() order.

verify_gdd checks the blocks by exhaustive pair counting, through
certify.PairCounter, the package's one pair counter, into the
certify.CertReport that every check of the package returns.  It runs at
the trust boundaries only: on every ingredient file loaded (where
parse_gdd_file checks first that group line i is range i and that the
block lines number GddType.block_count), on the design the gdd command
hands out, and in selftest.  Everything built here (MOLS, TD, inflation,
exact-cover search, gdd_24_t) returns an unverified claim; a defect in
any of those steps fails the check at the boundary it reaches, or
construct_design's certify of the design assembled from it.

MOLS are one read-only (s, m, m) int32 array.  mols_for_order computes
field MOLS L_a(x, y) = a*x + y elementwise over the (a, x, y) grid in
algebra.Ring.field(m), the package's one home of field arithmetic, and
forms MOLS(24) as their Kronecker (MacNeish) product.

Routes to the 4-GDDs of type 24^t consumed by the top-level assembly:

* t = 4: a transversal design TD(4,24), built from two MOLS of order 24
  obtained as the Kronecker (MacNeish) product of MOLS(8) and MOLS(3);
* t >= 5: Wilson inflation of a small ingredient GDD, type 6^t by weight
  4 or type 3^t by weight 8, loaded from the ingredient store (data files
  verified on load) or regenerated by the exact-cover search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources
from itertools import combinations, product
from pathlib import Path
from typing import Iterator

import numpy as np

from .algebra import Ring, RingError
from .certify import CertReport, PairCounter, _ascii_ints, _content_lines
from .targets import as_block_array


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class GddError(ValueError):
    pass


class UnsupportedOrderError(GddError):
    """No construction for MOLS of this order is available here."""


class IngredientUnavailableError(GddError):
    """A required small design is neither constructible nor in the store."""


class BudgetExhaustedError(GddError):
    """The exact-cover search ran out of nodes before deciding existence."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


class IngredientFileError(GddError):
    """An ingredient file is malformed or fails verification."""


@dataclass(frozen=True)
class GddType:
    """A multiset of group sizes, written g^u (e.g. '24^4' or '3^5 6^1')."""

    parts: tuple[tuple[int, int], ...]  # (group size, multiplicity) pairs

    def __post_init__(self) -> None:
        if not self.parts or any(g < 1 or u < 1 for g, u in self.parts):
            raise GddError("group sizes and multiplicities must be positive")

    @staticmethod
    def of(size: int, count: int) -> "GddType":
        return GddType(((size, count),))

    @staticmethod
    def parse(text: str) -> "GddType":
        parts = []
        for token in text.split():
            try:
                g, u = _ascii_ints(token.split("^"))
            except ValueError:
                g = u = -1
            if g < 0 or u < 0:
                raise GddError(f"bad type token {token!r}, want g^u")
            parts.append((g, u))
        return GddType(tuple(parts))

    def group_sizes(self) -> list[int]:
        return [g for g, u in self.parts for _ in range(u)]

    def group_count(self) -> int:
        return sum(u for _, u in self.parts)

    def group_ranges(self) -> Iterator[range]:
        """Group i is the i-th consecutive range of points; yielded lazily."""
        start = 0
        for g, u in self.parts:
            for _ in range(u):
                yield range(start, start + g)
                start += g

    def group_of(self) -> np.ndarray:
        """The group index of each point."""
        sizes = self.group_sizes()
        return np.repeat(np.arange(len(sizes)), sizes)

    def point_count(self) -> int:
        return sum(g * u for g, u in self.parts)

    def block_count(self, k: int) -> int | None:
        """The block count of a k-GDD of this type: its cross pairs over
        C(k, 2), or None when that does not divide."""
        n = self.point_count()
        cross_pairs = (n * (n - 1) - sum(g * (g - 1) * u for g, u in self.parts)) // 2
        per_block = k * (k - 1) // 2
        return cross_pairs // per_block if cross_pairs % per_block == 0 else None

    def __str__(self) -> str:
        return " ".join(f"{g}^{u}" for g, u in self.parts)


@dataclass(frozen=True, eq=False)
class Gdd:
    """A group divisible design with block size k, its groups given by
    gdd_type; see verify_gdd.  Any sequence of k-point rows is accepted as
    blocks and converted once."""

    gdd_type: GddType
    k: int
    blocks: np.ndarray
    provenance: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", as_block_array(self.blocks, self.k))

    def point_count(self) -> int:
        return self.gdd_type.point_count()


def verify_gdd(design: Gdd) -> CertReport:
    """Check the block clauses of the GDD definition by exhaustive pair
    counting, with the groups read off the type, into a certify.CertReport.

    Violations are report content, never exceptions: each bad block is a
    label error, and every cross-group pair covered other than once and
    every covered same-group pair is listed, by certify.PairCounter.  The
    expected block count (GddType.block_count) is recomputed from the type
    alone as an independent cross-check.
    """
    n = design.point_count()
    k = design.k
    report = CertReport(design.gdd_type.block_count(k), len(design.blocks))

    blocks = np.sort(design.blocks, axis=1)
    repeated = (blocks[:, 1:] == blocks[:, :-1]).any(axis=1)
    outside = (blocks[:, 0] < 0) | (blocks[:, -1] >= n)
    counted = ~(repeated | outside)  # a block sharing a group still counts
    # sorted rows over consecutive-range groups: each row's groups already ascend
    block_groups = design.gdd_type.group_of()[np.where(counted[:, None], blocks, 0)]
    shared = counted & (block_groups[:, 1:] == block_groups[:, :-1]).any(axis=1)
    for idx in np.flatnonzero(~counted | shared).tolist():
        if repeated[idx]:
            report.label_errors.append(f"block {idx}: not {k} distinct points")
        elif outside[idx]:
            report.label_errors.append(f"block {idx}: point out of range")
        else:
            report.label_errors.append(f"block {idx}: two points share a group")

    counter = PairCounter.of(n, blocks, counted, np.triu_indices(k, 1))
    report.pair_errors, report.pair_error_count = counter.errors(design.gdd_type.group_ranges())
    return report


# --- mutually orthogonal Latin squares -------------------------------------


def kronecker_mols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MacNeish product: min(|a|, |b|) MOLS of order m*n from MOLS arrays
    of orders m and n.

    Cell ((x1, x2), (y1, y2)) of product square i holds the flattened pair
    (a_i(x1, y1), b_i(x2, y2)); rows, columns and symbols flatten as
    first*n + second.
    """
    count = min(len(a), len(b))
    m, n = a.shape[1], b.shape[1]
    # axes (i, x1, x2, y1, y2)
    squares = a[:count, :, None, :, None] * n + b[:count, None, :, None, :]
    return _read_only(squares.reshape(count, m * n, m * n))


def mols_for_order(m: int) -> np.ndarray:
    """The m - 1 MOLS L_a(x, y) = a*x + y, a != 0, over the field
    Ring.field(m) (m prime, 4, 8 or 289), or MOLS(8) x MOLS(3) for m = 24,
    as one read-only (s, m, m) int32 array."""
    if m == 24:
        return kronecker_mols(mols_for_order(8), mols_for_order(3))
    try:
        f = Ring.field(m)
    except RingError:
        raise UnsupportedOrderError(f"no MOLS construction for order {m}") from None
    r = np.arange(m, dtype=np.int32)
    return _read_only(f.plus(f.times(r[1:, None, None], r[:, None]), r))


# --- transversal designs and inflation --------------------------------------


def td_from_mols(k: int, m: int, mols: np.ndarray) -> Gdd:
    """TD(k, m) from k-2 MOLS of order m, an (s, m, m) array: a k-GDD of
    type m^k.

    Group i is {i*m, ..., i*m + m - 1}; the block for cell (x, y) takes
    symbol x from group 0, y from group 1, and square i-2's entry at
    (x, y) from group i.  The squares are not checked here, only their
    shape and count: the result is an unverified claim, like inflate's,
    and a square that is not Latin or a pair that is not orthogonal shows
    as a failed check wherever the design crosses a boundary.
    """
    if k < 2:
        raise GddError("block size must be at least 2")
    if mols.shape[1:] != (m, m):
        raise GddError(f"MOLS of shape {mols.shape} are not squares of order {m}")
    if len(mols) < k - 2:
        raise IngredientUnavailableError(
            f"TD({k},{m}) needs {k - 2} MOLS of order {m}, have {len(mols)}"
        )
    x, y = np.divmod(np.arange(m * m), m)
    squares = mols[: k - 2].reshape(k - 2, m * m)
    return Gdd(
        gdd_type=GddType.of(m, k),
        k=k,
        blocks=np.vstack([x, y, squares]).T + m * np.arange(k),
        provenance=f"td({k},{m}) from mols",
    )


def inflate(design: Gdd, weight: int) -> Gdd:
    """Wilson's fundamental construction with constant weight.

    Every point p becomes the w points {w*p, ..., w*p + w - 1}, so group i
    stays the i-th consecutive range, and each block is replaced by a copy of
    TD(k, w) whose k groups sit over the block's k point sets.  Cross
    pairs inside a replaced block are covered exactly once by the TD;
    pairs over two different blocks are covered by the copies for the
    unique block containing the original pair, so the GDD property is
    preserved.  Not verified here: the result is a claim, checked where it
    crosses a boundary (the gdd command, or construct's certify).
    """
    k, w = design.k, weight
    if w < 1:
        raise GddError("weight must be positive")
    # k - 2 copies of the 1x1 square are trivially orthogonal
    mols = np.zeros((k - 2, 1, 1), np.int32) if w == 1 else mols_for_order(w)
    td = td_from_mols(k, w, mols)
    # TD point t = w * i + r, of rank r in TD group i, becomes w * block[i] + r
    group, rank = np.divmod(td.blocks, w)
    blocks = w * design.blocks[:, group] + rank
    return Gdd(
        gdd_type=GddType(tuple((g * w, u) for g, u in design.gdd_type.parts)),
        k=k,
        blocks=np.sort(blocks.reshape(-1, k), axis=1),
        provenance=f"inflate weight {w} of [{design.provenance or 'input'}]",
    )


# --- exact-cover search for small ingredients --------------------------------

NODE_BUDGET = 10_000  # the default of exact_cover_search, gdd_24_t and gdd --budget
_DESK_POINTS = 40  # the most points exact_cover_search takes; _ingredient searches no wider 3^t


def exact_cover_search(
    gdd_type: GddType,
    k: int,
    node_budget: int = NODE_BUDGET,
    seed: int = 0,
) -> Gdd | None:
    """Knuth's Algorithm X (arXiv:cs/0011047) over the cross-group pairs.

    The rows are the candidate blocks, all k-subsets meeting k distinct
    groups, shuffled once by the seed; a solution is a row set covering
    every cross pair exactly once.  A search node is two ints: the
    uncovered pairs, one bit each in (a, b) order, and the live rows, one
    bit each in shuffled order, those holding no covered pair.  Choosing
    row r clears r's pairs from the first, and every row sharing a pair
    with r from the second.  Each node branches on the pair with the
    fewest live rows, the lowest pair on a tie, except that the scan stops
    at the first pair with at most one; its rows are tried in shuffled
    order, and a pair with none ends the branch.  The scan popcounts ints
    as wide as the row count, so a node costs more as the points grow.

    Returns an unverified Gdd claim, or None when the exhausted search
    tree proves nonexistence; the gdd command verifies what it hands out,
    and a regenerated ingredient is checked with the design built on it.
    Raises BudgetExhaustedError when the node budget runs out first: that
    outcome is deliberately distinct from nonexistence.  The default,
    NODE_BUDGET, is about 380 times the 26 nodes that the worst of 20
    seeded 3^5 searches needs; README's "Which orders construct" gives
    what it costs the widest searches.  Deterministic for a fixed seed.
    """
    n = gdd_type.point_count()
    if n > _DESK_POINTS:
        raise GddError(f"{n} points exceeds the desk-scale guard of {_DESK_POINTS}")
    if k < 2:
        raise GddError("block size must be at least 2")
    if gdd_type.group_count() < k or gdd_type.block_count(k) is None:
        return None  # too few groups for a block, or blocks cannot tile the cross pairs

    # groups are ascending ranges, so each product is already a sorted block
    rows = [pts for chosen in combinations(gdd_type.group_ranges(), k) for pts in product(*chosen)]
    random.Random(seed).shuffle(rows)
    # pair a < b is bit a * n + b, so pairs order as (a, b) does
    row_pairs = [[a * n + b for a, b in combinations(row, 2)] for row in rows]
    rows_of = [0] * (n * n)  # bit r of rows_of[pair] is set when row r holds pair
    for r, pairs in enumerate(row_pairs):
        for pair in pairs:
            rows_of[pair] |= 1 << r
    chosen_rows: list[int] = []
    nodes = 0

    def search(uncovered: int, live: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExhaustedError(nodes)
        fewest, options, rest = None, 0, uncovered
        while rest:  # lowest pair first, so it wins a tie
            low = rest & -rest
            rows_of_p = rows_of[low.bit_length() - 1] & live
            count = rows_of_p.bit_count()
            if fewest is None or count < fewest:
                fewest, options = count, rows_of_p
                if count <= 1:
                    break  # a forced pair, or a dead end
            rest ^= low
        if fewest is None:
            return True
        while options:  # the rows in ascending order
            low = options & -options
            r = low.bit_length() - 1
            covered = blocked = 0
            for pair in row_pairs[r]:
                covered |= 1 << pair
                blocked |= rows_of[pair]
            chosen_rows.append(r)
            if search(uncovered & ~covered, live & ~blocked):
                return True
            chosen_rows.pop()
            options ^= low
        return False

    # the pairs some row holds are the cross pairs only with k groups or more
    # (the return above): with fewer there are no rows, and none to cover
    if not search(sum(1 << p for p, held in enumerate(rows_of) if held), (1 << len(rows)) - 1):
        return None
    return Gdd(
        gdd_type=gdd_type,
        k=k,
        blocks=sorted(rows[r] for r in chosen_rows),
        provenance=f"exact cover search (seed {seed})",
    )


# --- ingredient store --------------------------------------------------------
#
# Ingredient files: header `gdd <k> <type>`, then one `group <points...>`
# line per group, line i listing the i-th consecutive range of the type,
# and one `block <points...>` line per block.  Lines starting with `#` are
# comments.  Every loaded file is re-verified.


def format_gdd_file(design: Gdd) -> str:
    lines = [f"gdd {design.k} {design.gdd_type}"]
    lines.extend("group " + " ".join(map(str, g)) for g in design.gdd_type.group_ranges())
    lines.extend("block " + " ".join(map(str, b)) for b in design.blocks.tolist())
    return "\n".join(lines) + "\n"


def _read_header(lines, what: str) -> tuple[int, int, str]:
    """Consume the `gdd <k> <type>` header from _content_lines;
    (line number, k, type text)."""
    lineno, tokens = next(lines, (None, None))
    if tokens is None:
        raise IngredientFileError(f"{what}: missing 'gdd' header")
    if tokens[0] != "gdd" or len(tokens) < 3:
        raise IngredientFileError(f"{what} line {lineno}: expected 'gdd <k> <type>'")
    try:
        (k,) = _ascii_ints(tokens[1:2])
    except ValueError:
        k = 0
    if k < 2:
        raise IngredientFileError(
            f"{what} line {lineno}: block size {tokens[1]!r} is not an integer >= 2"
        )
    return lineno, k, " ".join(tokens[2:])


def parse_gdd_file(text: str, what: str = "ingredient") -> Gdd:
    """Parse and verify an ingredient file.  Nothing sized by the header is
    built before the file's own lines bear it out: a block size above the
    group count, a group line that is not its range, or a group-line or
    block-line count other than the type's is rejected with its line
    number."""
    lines = _content_lines(text)
    header_line, k, type_text = _read_header(lines, what)
    try:
        gdd_type = GddType.parse(type_text)
    except GddError as exc:
        raise IngredientFileError(f"{what}: {exc}") from None
    u = gdd_type.group_count()
    if k > u:
        raise IngredientFileError(
            f"{what} line {header_line}: block size {k} exceeds the {u} groups of {gdd_type}"
        )
    expected_groups = gdd_type.group_ranges()
    group_lines = 0
    blocks: list[tuple[int, ...]] = []
    for lineno, tokens in lines:
        try:
            points = tuple(_ascii_ints(tokens[1:]))
        except ValueError:
            raise IngredientFileError(f"{what} line {lineno}: non-integer point") from None
        if tokens[0] == "group":
            group = next(expected_groups, None)
            if group is None:
                raise IngredientFileError(f"{what} line {lineno}: {gdd_type} has only {u} groups")
            # the length first: a type may claim groups far larger than the line
            if len(points) != group.stop - group.start or points != tuple(group):
                raise IngredientFileError(
                    f"{what} line {lineno}: group {group_lines} must be points "
                    f"{group.start}..{group.stop - 1}"
                )
            group_lines += 1
        elif tokens[0] != "block":
            raise IngredientFileError(f"{what} line {lineno}: unknown keyword {tokens[0]!r}")
        elif len(points) != k:
            raise IngredientFileError(f"{what} line {lineno}: {len(points)} points, want {k}")
        else:
            blocks.append(points)
    if group_lines != u:
        raise IngredientFileError(
            f"{what} line {header_line}: {gdd_type} has {u} groups, the file lists {group_lines}"
        )
    want = gdd_type.block_count(k)
    if len(blocks) != want:
        count = "no whole number of blocks" if want is None else f"{want} blocks"
        raise IngredientFileError(
            f"{what} line {header_line}: a {k}-GDD of type {gdd_type} has {count}, "
            f"the file lists {len(blocks)}"
        )
    try:
        design = Gdd(gdd_type, k, blocks, f"loaded {what}")
    except ValueError as exc:  # a point beyond int32
        raise IngredientFileError(f"{what}: {exc}") from None
    report = verify_gdd(design)
    if not report.passed:
        raise IngredientFileError(
            f"{what}: fails verification "
            f"({len(report.label_errors)} block, {report.pair_error_count} pair errors)"
        )
    return design


def write_gdd_file(design: Gdd, path: str | Path) -> None:
    Path(path).write_text(format_gdd_file(design), encoding="utf-8", newline="\n")


def read_gdd_file(path: str | Path) -> Gdd:
    return parse_gdd_file(Path(path).read_text(encoding="utf-8"), what=str(path))


class IngredientStore:
    """A directory of verified small GDDs consumed by recursive constructions."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    @staticmethod
    def default() -> "IngredientStore":
        """The store packaged with design_forge."""
        return IngredientStore(resources.files("design_forge").joinpath("data/ingredients"))

    def find(self, k: int, gdd_type: GddType) -> Gdd | None:
        """Load and verify the stored (k, type) ingredient, or None if absent."""
        if not self.directory.is_dir():
            return None
        for path in sorted(p for p in self.directory.glob("*.txt") if p.is_file()):
            try:
                text = path.read_text(encoding="utf-8")
                header = _read_header(_content_lines(text), str(path))
            except ValueError:  # UnicodeDecodeError included
                continue  # not an ingredient file
            if header[1:] == (k, str(gdd_type)):
                return parse_gdd_file(text, what=str(path))
        return None


# --- the 4-GDDs of type 24^t -------------------------------------------------


def gdd_24_t(t: int, store: IngredientStore | None = None, node_budget: int = NODE_BUDGET) -> Gdd:
    """A 4-GDD of type 24^t, with group i = {24i, ..., 24i+23}.

    t = 4 is the transversal design TD(4,24).  For t >= 5 an ingredient
    4-GDD of type 6^t (inflated by weight 4) or 3^t (inflated by weight 8)
    is taken from the store, where it is verified on load; a missing 3^t
    ingredient is regenerated by exact_cover_search within node_budget
    nodes when the point count is desk-scale (BudgetExhaustedError if the
    search runs out of nodes first).  The route taken is recorded
    in the provenance field.  The result is an unverified claim: the gdd
    command verifies it before handing it out, and construct_design
    certifies the design assembled from it.
    """
    if t < 4:
        raise GddError(f"4-GDDs of type 24^t exist for t >= 4, got t = {t}")
    if t == 4:
        td = td_from_mols(4, 24, mols_for_order(24))
        return Gdd(td.gdd_type, 4, td.blocks, "td(4,24) from kronecker mols(8) x mols(3)")
    how, ingredient = _ingredient(t, store or IngredientStore.default(), node_budget)
    g = ingredient.gdd_type.parts[0][0]
    blocks = inflate(ingredient, 24 // g).blocks
    provenance = f"inflate {how} 4-gdd {g}^{t} by weight {24 // g}"
    # rows in lexicographic order, by their first two points alone: a pair
    # lies in one block, and an int64 key of two points cannot overflow
    key = blocks[:, 0].astype(np.int64) * (24 * t) + blocks[:, 1]
    return Gdd(GddType.of(24, t), 4, blocks[np.argsort(key, kind="stable")], provenance)


def _ingredient(t: int, store: IngredientStore, node_budget: int) -> tuple[str, Gdd]:
    """A 4-GDD of type 6^t or 3^t: stored (verified on load), else
    regenerated by search, whose BudgetExhaustedError says why it stopped."""
    for size in (6, 3):
        found = store.find(4, GddType.of(size, t))
        if found is not None:
            return "stored", found
    if 3 * t <= _DESK_POINTS:
        found = exact_cover_search(GddType.of(3, t), 4, node_budget=node_budget)
        if found is not None:
            return "regenerated", found
    raise IngredientUnavailableError(
        f"no ingredient 4-GDD of type 6^{t} or 3^{t} available for type 24^{t}"
    )
