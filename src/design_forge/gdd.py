"""Group divisible designs: verification, constructions, and the ingredient store.

A k-GDD of type g^u has gu points split into u groups of size g; its
blocks are k-subsets meeting every group at most once, such that each
pair of points from distinct groups lies in exactly one block and no
same-group pair lies in any block.  A Gdd is its type and its blocks, a
read-only (B, k) int32 array as for Design: group i is the i-th
consecutive range of points in GddType.group_sizes() order.

verify_gdd checks the blocks by exhaustive pair counting, through
certify.PairCounter, the package's one pair counter, at the trust
boundaries only: ingredient files on load (where parse_gdd_file checks
first that group line i is range i and that the block lines number
GddType.block_count), exact-cover search results, and the 24^t design
gdd_24_t returns.  The steps between (TD from MOLS, inflation)
need no check of their own: MolsSet checks its squares exhaustively, and
the final check catches any defect a later step introduces.

MOLS live here as MolsSet, whose squares are one read-only (s, m, m) int32
array.  mols_for_order reads field MOLS L_a(x, y) = a*x + y off the
add/mul tables of algebra.Ring.field(m), the package's one home of field
arithmetic, and forms MOLS(24) as their Kronecker (MacNeish) product.

Routes to the 4-GDDs of type 24^t consumed by the top-level assembly:

* t = 4: a transversal design TD(4,24), built from two MOLS of order 24
  obtained as the Kronecker (MacNeish) product of MOLS(8) and MOLS(3);
* t >= 5: Wilson inflation of a small ingredient GDD, type 6^t by weight
  4 or type 3^t by weight 8, loaded from the ingredient store (data files
  verified on load) or regenerated by the exact-cover search.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import combinations, product
from pathlib import Path
from typing import Iterator

import numpy as np

from .algebra import Ring, RingError
from .certify import PairCounter
from .targets import as_block_array


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
            base, sep, exp = token.partition("^")
            if not sep or not base.isdigit() or not exp.isdigit():
                raise GddError(f"bad type token {token!r}, want g^u")
            parts.append((int(base), int(exp)))
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


@dataclass
class GddReport:
    """Findings of verify_gdd; passed iff every list is empty and the
    independently recomputed block count matches."""

    block_count_expected: int | None
    block_count_actual: int
    block_errors: list[str] = field(default_factory=list)
    pair_errors: list[tuple[tuple[int, int], int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.block_count_expected == self.block_count_actual
            and not self.block_errors
            and not self.pair_errors
        )


def verify_gdd(design: Gdd) -> GddReport:
    """Check the block clauses of the GDD definition by exhaustive pair
    counting, with the groups read off the type.

    Violations are report content, never exceptions: every cross-group
    pair covered other than once and every covered same-group pair is
    listed, by certify.PairCounter.  The expected block count
    (GddType.block_count) is recomputed from the type alone as an
    independent cross-check.
    """
    n = design.point_count()
    k = design.k
    report = GddReport(design.gdd_type.block_count(k), len(design.blocks))

    group_of = design.gdd_type.group_of()
    blocks = np.sort(design.blocks, axis=1)
    repeated = (blocks[:, 1:] == blocks[:, :-1]).any(axis=1)
    outside = ((blocks < 0) | (blocks >= n)).any(axis=1)
    counted = ~(repeated | outside)  # a block sharing a group still counts
    block_groups = np.sort(group_of[np.where(counted[:, None], blocks, 0)], axis=1)
    shared = counted & (block_groups[:, 1:] == block_groups[:, :-1]).any(axis=1)
    for idx in np.flatnonzero(~counted | shared).tolist():
        if repeated[idx]:
            report.block_errors.append(f"block {idx}: not {k} distinct points")
        elif outside[idx]:
            report.block_errors.append(f"block {idx}: point out of range")
        else:
            report.block_errors.append(f"block {idx}: two points share a group")

    counter = PairCounter(n)
    counter.add(blocks[counted].T[np.array(np.triu_indices(k, 1))])
    report.pair_errors = counter.errors(design.gdd_type.group_ranges())
    return report


def _require_valid(design: Gdd, what: str) -> Gdd:
    report = verify_gdd(design)
    if not report.passed:
        raise GddError(f"internal: {what} failed verification: {report}")
    return design


# --- mutually orthogonal Latin squares -------------------------------------


@dataclass(frozen=True, eq=False)
class MolsSet:
    """Latin squares of one order, pairwise orthogonal.

    ``squares`` is one read-only (s, order, order) int32 array; an array
    or a nested sequence of that shape is accepted and converted once.  Both
    properties are verified exhaustively at construction: each row and
    column must be a permutation, and superimposing any two squares must
    produce all order^2 ordered symbol pairs.  The first failure, in the
    order square, row before column, then pair, is the one reported.
    """

    order: int
    squares: np.ndarray

    def __post_init__(self) -> None:
        m = self.order
        try:
            squares = np.ascontiguousarray(self.squares, dtype=np.int32)
        except ValueError:  # ragged nesting
            squares = None
        if squares is None or squares.shape[1:] != (m, m):
            raise GddError(f"squares are not all {m}x{m}")
        squares.flags.writeable = False
        object.__setattr__(self, "squares", squares)
        symbols = np.arange(m)
        # bad[s, x] = (row x of square s, column x of square s) not a permutation
        bad = np.stack(
            [
                (np.sort(squares, axis=2) != symbols).any(axis=2),
                (np.sort(squares, axis=1) != symbols[:, None]).any(axis=1),
            ],
            axis=2,
        )
        if bad.any():
            s, x, column = np.unravel_index(bad.argmax(), bad.shape)
            line = "column" if column else "row"
            raise GddError(f"square {s}: {line} {x} is not a permutation")
        # squares s < t are orthogonal iff the pairs s*m + t take m^2 values
        for s in range(len(squares) - 1):
            pairs = np.sort((m * squares[s] + squares[s + 1 :]).reshape(-1, m * m), axis=1)
            clash = (pairs[:, 1:] == pairs[:, :-1]).any(axis=1)
            if clash.any():
                raise GddError(f"squares {s} and {s + 1 + clash.argmax()} are not orthogonal")

    def __len__(self) -> int:
        return len(self.squares)


def kronecker_mols(a: MolsSet, b: MolsSet) -> MolsSet:
    """MacNeish product: min(|a|, |b|) MOLS of order |a|*|b|.

    Cell ((x1, x2), (y1, y2)) of product square i holds the flattened pair
    (a_i(x1, y1), b_i(x2, y2)); rows, columns and symbols flatten as
    first*n + second with n = b.order.
    """
    m, n = a.order, b.order
    count = min(len(a), len(b))
    first, second = a.squares[:count], b.squares[:count]
    # axes (i, x1, x2, y1, y2)
    squares = first[:, :, None, :, None] * n + second[:, None, :, None, :]
    return MolsSet(order=m * n, squares=squares.reshape(count, m * n, m * n))


def mols_for_order(m: int) -> MolsSet:
    """The m - 1 MOLS L_a(x, y) = a*x + y, a != 0, over the field
    Ring.field(m) (m prime, 4, 8 or 289), or MOLS(8) x MOLS(3) for m = 24."""
    if m == 24:
        return kronecker_mols(mols_for_order(8), mols_for_order(3))
    try:
        f = Ring.field(m)
    except RingError:
        raise UnsupportedOrderError(f"no MOLS construction for order {m}") from None
    return MolsSet(order=m, squares=f.add_table[f.mul_table[1:, :, None], np.arange(m)])


# --- transversal designs and inflation --------------------------------------


def td_from_mols(k: int, m: int, mols: MolsSet) -> Gdd:
    """TD(k, m) from k-2 MOLS of order m: a k-GDD of type m^k.

    Group i is {i*m, ..., i*m + m - 1}; the block for cell (x, y) takes
    symbol x from group 0, y from group 1, and square i-2's entry at
    (x, y) from group i.  Not re-verified: MolsSet checked the squares
    exhaustively, and k-2 MOLS of order m are exactly a TD(k, m).
    """
    if k < 2:
        raise GddError("block size must be at least 2")
    if mols.order != m:
        raise GddError(f"MOLS order {mols.order} != {m}")
    if len(mols) < k - 2:
        raise IngredientUnavailableError(
            f"TD({k},{m}) needs {k - 2} MOLS of order {m}, have {len(mols)}"
        )
    x, y = np.divmod(np.arange(m * m), m)
    squares = mols.squares[: k - 2].reshape(k - 2, m * m)
    return Gdd(
        gdd_type=GddType.of(m, k),
        k=k,
        blocks=np.vstack([x, y, squares]).T + m * np.arange(k),
        provenance=f"td({k},{m}) from mols",
    )


def td_for_weight(k: int, w: int) -> Gdd:
    """The TD(k, w) used to replace blocks during inflation."""
    if w == 1:  # k-2 copies of the 1x1 square are trivially orthogonal
        return td_from_mols(k, 1, MolsSet(1, np.zeros((k - 2, 1, 1))))
    return td_from_mols(k, w, mols_for_order(w))


def inflate(design: Gdd, weight: int, td: Gdd | None = None) -> Gdd:
    """Wilson's fundamental construction with constant weight.

    Every point p becomes the w points {w*p, ..., w*p + w - 1}, so group i
    stays the i-th consecutive range, and each block is replaced by a copy of
    TD(k, w) whose k groups sit over the block's k point sets.  Cross
    pairs inside a replaced block are covered exactly once by the TD;
    pairs over two different blocks are covered by the copies for the
    unique block containing the original pair, so the GDD property is
    preserved.  Not re-verified here: gdd_24_t verifies what it returns.
    """
    w = weight
    if w < 1:
        raise GddError("weight must be positive")
    if td is None:
        td = td_for_weight(design.k, w)
    if td.k != design.k or td.gdd_type != GddType.of(w, design.k):
        raise GddError(f"replacement design is not a TD({design.k},{w})")
    # TD point t = w * i + r, of rank r in TD group i, becomes w * block[i] + r
    group, rank = np.divmod(td.blocks, w)
    blocks = w * design.blocks[:, group] + rank
    return Gdd(
        gdd_type=GddType(tuple((g * w, u) for g, u in design.gdd_type.parts)),
        k=design.k,
        blocks=np.sort(blocks.reshape(-1, design.k), axis=1),
        provenance=f"inflate weight {w} of [{design.provenance or 'input'}]",
    )


# --- exact-cover search for small ingredients --------------------------------


def exact_cover_search(
    gdd_type: GddType,
    k: int,
    node_budget: int = 1_000_000,
    seed: int = 0,
) -> Gdd | None:
    """Knuth's Algorithm X (arXiv:cs/0011047) over the cross-group pairs.

    The rows are the candidate blocks, all k-subsets meeting k distinct
    groups, shuffled once by the seed; a solution is a row set covering
    every cross pair exactly once.  ``live`` maps each uncovered pair to
    its live rows, those holding no covered pair, and is updated as rows
    are covered and uncovered.  Each node branches on the pair with the
    fewest live rows, the lowest pair on a tie, except that the scan stops
    at the first pair with at most one; its rows are tried in shuffled
    order, and a pair with none ends the branch.

    Returns a verified Gdd, or None when the exhausted search tree proves
    nonexistence.  Raises BudgetExhaustedError when the node budget runs
    out first: that outcome is deliberately distinct from nonexistence.
    Deterministic for a fixed seed.
    """
    n = gdd_type.point_count()
    if n > 40:
        raise GddError(f"{n} points exceeds the desk-scale guard of 40")
    if k < 2:
        raise GddError("block size must be at least 2")
    groups = list(gdd_type.group_ranges())
    if len(groups) < k:
        return None  # fewer groups than a single block needs
    group_of = gdd_type.group_of().tolist()
    # pair a < b is a * n + b, so pairs order as (a, b) does
    live = {a * n + b: set() for a, b in combinations(range(n), 2) if group_of[a] != group_of[b]}
    if len(live) % (k * (k - 1) // 2):
        return None  # block size cannot tile the cross pairs
    ascending = list(live)

    # groups are ascending ranges, so each product is already a sorted block
    rows = [pts for chosen in combinations(groups, k) for pts in product(*chosen)]
    random.Random(seed).shuffle(rows)
    row_pairs = [[a * n + b for a, b in combinations(row, 2)] for row in rows]
    for r, pairs in enumerate(row_pairs):
        for pair in pairs:
            live[pair].add(r)
    chosen_rows: list[int] = []
    nodes = 0

    # a live row holds no covered pair, so every other pair of r2 is live
    def cover(r: int) -> list[tuple[int, set[int]]]:
        removed = []
        for pair in row_pairs[r]:
            rows_of_pair = live.pop(pair)
            for r2 in rows_of_pair:
                for q in row_pairs[r2]:
                    if q != pair:
                        live[q].remove(r2)
            removed.append((pair, rows_of_pair))
        return removed

    def uncover(removed: list[tuple[int, set[int]]]) -> None:
        for pair, rows_of_pair in reversed(removed):
            for r2 in rows_of_pair:
                for q in row_pairs[r2]:
                    if q != pair:
                        live[q].add(r2)
            live[pair] = rows_of_pair

    def search() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExhaustedError(nodes)
        fewest, pair = None, None
        for p in ascending:  # so the lowest pair wins a tie
            rows_of_p = live.get(p)
            if rows_of_p is not None and (fewest is None or len(rows_of_p) < fewest):
                fewest, pair = len(rows_of_p), p
                if fewest <= 1:
                    break  # a forced pair, or a dead end
        if pair is None:
            return True
        for r in sorted(live[pair]):
            removed = cover(r)
            chosen_rows.append(r)
            if search():
                return True
            chosen_rows.pop()
            uncover(removed)
        return False

    if not search():
        return None
    design = Gdd(
        gdd_type=gdd_type,
        k=k,
        blocks=sorted(rows[r] for r in chosen_rows),
        provenance=f"exact cover search (seed {seed})",
    )
    return _require_valid(design, f"search result for {gdd_type}")


# --- ingredient store --------------------------------------------------------
#
# Ingredient files: header `gdd <k> <type>`, then one `group <points...>`
# line per group, line i listing the i-th consecutive range of the type,
# and one `block <points...>` line per block.  Lines starting with `#` are
# comments.  Every loaded file is re-verified.

ENV_INGREDIENTS = "DESIGN_FORGE_INGREDIENTS"


def format_gdd_file(design: Gdd) -> str:
    lines = [f"gdd {design.k} {design.gdd_type}"]
    lines.extend("group " + " ".join(map(str, g)) for g in design.gdd_type.group_ranges())
    lines.extend("block " + " ".join(map(str, b)) for b in design.blocks.tolist())
    return "\n".join(lines) + "\n"


def _content_lines(text: str):
    """(line number, tokens) of each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


def _read_header(lines, what: str) -> tuple[int, int, str]:
    """Consume the `gdd <k> <type>` header from _content_lines;
    (line number, k, type text)."""
    lineno, tokens = next(lines, (None, None))
    if tokens is None:
        raise IngredientFileError(f"{what}: missing 'gdd' header")
    if tokens[0] != "gdd" or len(tokens) < 3:
        raise IngredientFileError(f"{what} line {lineno}: expected 'gdd <k> <type>'")
    if not tokens[1].isdecimal() or int(tokens[1]) < 2:
        raise IngredientFileError(
            f"{what} line {lineno}: block size {tokens[1]!r} is not an integer >= 2"
        )
    return lineno, int(tokens[1]), " ".join(tokens[2:])


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
            points = tuple(int(t) for t in tokens[1:])
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
            f"({len(report.block_errors)} block, {len(report.pair_errors)} pair errors)"
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
        env = os.environ.get(ENV_INGREDIENTS)
        if env:
            return IngredientStore(env)
        return IngredientStore(resources.files("design_forge").joinpath("data/ingredients"))

    def find(self, k: int, gdd_type: GddType) -> Gdd | None:
        """Load and verify the stored (k, type) ingredient, or None if absent."""
        if not self.directory.is_dir():
            return None
        for path in sorted(self.directory.glob("*.txt")):
            text = path.read_text(encoding="utf-8")
            try:
                header = _read_header(_content_lines(text), str(path))
            except ValueError:
                continue  # not an ingredient file
            if header[1:] == (k, str(gdd_type)):
                return parse_gdd_file(text, what=str(path))
        return None


# --- the 4-GDDs of type 24^t -------------------------------------------------


def gdd_24_t(t: int, store: IngredientStore | None = None) -> Gdd:
    """A verified 4-GDD of type 24^t, with group i = {24i, ..., 24i+23}.

    t = 4 is the transversal design TD(4,24).  For t >= 5 an ingredient
    4-GDD of type 6^t (inflated by weight 4) or 3^t (inflated by weight 8)
    is taken from the store; a missing 3^t ingredient is regenerated by
    exact_cover_search when the point count is desk-scale.  The route
    taken is recorded in the provenance field.
    """
    if t < 4:
        raise GddError(f"4-GDDs of type 24^t exist for t >= 4, got t = {t}")
    if t == 4:
        td = td_from_mols(4, 24, mols_for_order(24))
        design = replace(td, provenance="td(4,24) from kronecker mols(8) x mols(3)")
    else:
        how, ingredient = _ingredient(t, store or IngredientStore.default())
        g = ingredient.gdd_type.parts[0][0]
        blocks = inflate(ingredient, 24 // g).blocks
        provenance = f"inflate {how} 4-gdd {g}^{t} by weight {24 // g}"
        design = Gdd(GddType.of(24, t), 4, blocks[np.lexsort(blocks.T[::-1])], provenance)
    # no step above is verified on its own: this one check covers them all
    return _require_valid(design, f"4-GDD of type 24^{t}")


def _ingredient(t: int, store: IngredientStore) -> tuple[str, Gdd]:
    """A verified 4-GDD of type 6^t or 3^t: stored, else regenerated by search."""
    for size in (6, 3):
        found = store.find(4, GddType.of(size, t))
        if found is not None:
            return "stored", found
    if 3 * t <= 40:
        try:
            found = exact_cover_search(GddType.of(3, t), 4)
        except BudgetExhaustedError:
            found = None
        if found is not None:
            return "regenerated", found
    raise IngredientUnavailableError(
        f"no ingredient 4-GDD of type 6^{t} or 3^{t} available for type 24^{t}"
    )
