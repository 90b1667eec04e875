"""Group divisible designs: verification, constructions, and the ingredient store.

A k-GDD of type g^u has gu points split into u groups of size g; its
blocks are k-subsets meeting every group at most once, such that each
pair of points from distinct groups lies in exactly one block and no
same-group pair lies in any block.  verify_gdd checks that definition by
exhaustive pair counting at the trust boundaries only: ingredient files on
load, exact-cover search results, and the 24^t design gdd_24_t returns.
The steps between (TD from MOLS, inflation, relabelling) need no check of
their own: MolsSet checks its squares exhaustively, and the final check
catches any defect a later step introduces.

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

Points are numbered globally 0..N-1 with group i occupying a consecutive
range; gdd_24_t guarantees group i = {24i, ..., 24i + 23}.  Gdd.blocks is
one read-only (B, k) int32 array, as for Design; groups stay tuples, since
mixed types such as 3^5 6^1 are ragged.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import combinations, product
from pathlib import Path

import numpy as np

from .algebra import Ring, RingError
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

    def point_count(self) -> int:
        return sum(g * u for g, u in self.parts)

    def __str__(self) -> str:
        return " ".join(f"{g}^{u}" for g, u in self.parts)


@dataclass(frozen=True, eq=False)
class Gdd:
    """A group divisible design with block size k; see verify_gdd.  Any
    sequence of k-point rows is accepted as blocks and converted once."""

    gdd_type: GddType
    k: int
    groups: tuple[tuple[int, ...], ...]
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
    group_errors: list[str] = field(default_factory=list)
    block_errors: list[str] = field(default_factory=list)
    pair_errors: list[tuple[tuple[int, int], int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.block_count_expected == self.block_count_actual
            and not self.group_errors
            and not self.block_errors
            and not self.pair_errors
        )


def verify_gdd(design: Gdd) -> GddReport:
    """Check the three GDD definition clauses by exhaustive pair counting.

    Violations are report content, never exceptions: every cross-group
    pair covered other than once and every covered same-group pair is
    listed.  The expected block count (cross pairs / C(k,2)) is recomputed
    from the type alone as an independent cross-check.
    """
    n = design.point_count()
    k = design.k
    sizes = sorted(design.gdd_type.group_sizes())
    cross_pairs = (n * (n - 1) - sum(g * (g - 1) for g in sizes)) // 2
    per_block = k * (k - 1) // 2
    expected = cross_pairs // per_block if cross_pairs % per_block == 0 else None
    report = GddReport(block_count_expected=expected, block_count_actual=len(design.blocks))

    seen: set[int] = set()
    for group in design.groups:
        for p in group:
            if not 0 <= p < n:
                report.group_errors.append(f"point {p} outside 0..{n - 1}")
            elif p in seen:
                report.group_errors.append(f"point {p} in two groups")
            seen.add(p)
    if len(seen) != n:
        report.group_errors.append(f"groups cover {len(seen)} of {n} points")
    if sorted(len(g) for g in design.groups) != sizes:
        report.group_errors.append(
            f"group sizes {sorted(len(g) for g in design.groups)} != type {design.gdd_type}"
        )
    if report.group_errors:
        return report

    group_of = np.empty(n, dtype=np.int64)
    for i, group in enumerate(design.groups):
        group_of[list(group)] = i
    blocks = np.sort(design.blocks, axis=1).astype(np.int64)
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

    # pair a < b has index b(b-1)/2 + a; counts saturate at 255 in the report
    first, second = np.triu_indices(k, 1)
    a, b = blocks[counted][:, first], blocks[counted][:, second]
    counts = np.bincount((b * (b - 1) // 2 + a).ravel(), minlength=n * (n - 1) // 2)
    counts = np.minimum(counts, 255)
    b_all, a_all = np.tril_indices(n, -1)
    bad = np.flatnonzero(counts != (group_of[a_all] != group_of[b_all]))
    pairs = zip(a_all[bad].tolist(), b_all[bad].tolist())
    report.pair_errors.extend(zip(pairs, counts[bad].tolist()))
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
        groups=tuple(tuple(range(i * m, (i + 1) * m)) for i in range(k)),
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

    Every point p becomes the w points {w*p, ..., w*p + w - 1}, groups
    inflate accordingly, and each block is replaced by a copy of
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
    # TD point t, of rank r in TD group i, becomes inflated point w * block[i] + r
    group_of = np.empty(td.point_count(), dtype=np.int64)
    rank = np.empty_like(group_of)
    for i, group in enumerate(td.groups):
        members = sorted(group)
        group_of[members] = i
        rank[members] = np.arange(len(members))
    blocks = w * design.blocks[:, group_of[td.blocks]] + rank[td.blocks]
    return Gdd(
        gdd_type=GddType(tuple((g * w, u) for g, u in design.gdd_type.parts)),
        k=design.k,
        groups=tuple(
            tuple(w * p + j for p in sorted(group) for j in range(w)) for group in design.groups
        ),
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
    """Backtracking exact-cover search over the cross-group pairs.

    Candidate blocks are all k-subsets meeting k distinct groups; a
    solution is a block set covering every cross pair exactly once.  At
    each node the uncovered pair with the fewest usable candidate blocks
    is branched on, with candidate counts maintained incrementally, so
    infeasible states die immediately.

    Returns a verified Gdd, or None when the exhausted search tree proves
    nonexistence.  Raises BudgetExhaustedError when the node budget runs
    out first: that outcome is deliberately distinct from nonexistence.
    Deterministic for a fixed seed (the seed shuffles candidate order
    once, up front).
    """
    n = gdd_type.point_count()
    if n > 40:
        raise GddError(f"{n} points exceeds the desk-scale guard of 40")
    if k < 2:
        raise GddError("block size must be at least 2")
    sizes = gdd_type.group_sizes()
    if len(sizes) < k:
        return None  # fewer groups than a single block needs
    groups = []
    start = 0
    for g in sizes:
        groups.append(tuple(range(start, start + g)))
        start += g
    group_of = {p: i for i, grp in enumerate(groups) for p in grp}

    pair_index: dict[tuple[int, int], int] = {}
    for a in range(n):
        for b in range(a + 1, n):
            if group_of[a] != group_of[b]:
                pair_index[(a, b)] = len(pair_index)
    pair_count = len(pair_index)
    per_block = k * (k - 1) // 2
    if pair_count % per_block:
        return None  # block size cannot tile the cross pairs

    candidates: list[tuple[int, ...]] = []
    for chosen in combinations(range(len(groups)), k):
        for pts in product(*(groups[i] for i in chosen)):
            candidates.append(tuple(sorted(pts)))
    rng = random.Random(seed)
    rng.shuffle(candidates)
    block_pairs = [
        tuple(pair_index[(a, b)] for a, b in combinations(block, 2))
        for block in candidates
    ]
    blocks_of_pair: list[list[int]] = [[] for _ in range(pair_count)]
    for b, pairs in enumerate(block_pairs):
        for p in pairs:
            blocks_of_pair[p].append(b)

    covered = bytearray(pair_count)
    conflicts = [0] * len(candidates)  # covered pairs inside each candidate
    usable = [len(blocks_of_pair[p]) for p in range(pair_count)]
    chosen_blocks: list[int] = []
    nodes = 0

    def place(b: int) -> None:
        for p in block_pairs[b]:
            covered[p] = 1
        for p in block_pairs[b]:
            for b2 in blocks_of_pair[p]:
                conflicts[b2] += 1
                if conflicts[b2] == 1:
                    for q in block_pairs[b2]:
                        if not covered[q]:
                            usable[q] -= 1

    def unplace(b: int) -> None:
        for p in block_pairs[b]:
            for b2 in blocks_of_pair[p]:
                conflicts[b2] -= 1
                if conflicts[b2] == 0:
                    for q in block_pairs[b2]:
                        if not covered[q]:
                            usable[q] += 1
        for p in block_pairs[b]:
            covered[p] = 0

    def search() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExhaustedError(nodes)
        best_pair = -1
        best_count = None
        for p in range(pair_count):
            if not covered[p]:
                c = usable[p]
                if c == 0:
                    return False
                if best_count is None or c < best_count:
                    best_pair, best_count = p, c
                    if c == 1:
                        break
        if best_pair < 0:
            return True
        for b in blocks_of_pair[best_pair]:
            if conflicts[b] == 0:
                chosen_blocks.append(b)
                place(b)
                if search():
                    return True
                unplace(b)
                chosen_blocks.pop()
        return False

    if not search():
        return None
    design = Gdd(
        gdd_type=gdd_type,
        k=k,
        groups=tuple(groups),
        blocks=tuple(sorted(candidates[b] for b in chosen_blocks)),
        provenance=f"exact cover search (seed {seed})",
    )
    return _require_valid(design, f"search result for {gdd_type}")


# --- ingredient store --------------------------------------------------------
#
# Ingredient files: header `gdd <k> <type>`, then one `group <points...>`
# line per group and one `block <points...>` line per block.  Lines
# starting with `#` are comments.  Every loaded file is re-verified.

ENV_INGREDIENTS = "DESIGN_FORGE_INGREDIENTS"


def format_gdd_file(design: Gdd) -> str:
    lines = [f"gdd {design.k} {design.gdd_type}"]
    lines.extend("group " + " ".join(map(str, g)) for g in design.groups)
    lines.extend("block " + " ".join(map(str, b)) for b in design.blocks.tolist())
    return "\n".join(lines) + "\n"


def _content_lines(text: str):
    """(line number, tokens) of each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


def _read_header(lines, what: str) -> tuple[int, str]:
    """Consume the `gdd <k> <type>` header from _content_lines; (k, type text)."""
    lineno, tokens = next(lines, (None, None))
    if tokens is None:
        raise IngredientFileError(f"{what}: missing 'gdd' header")
    if tokens[0] != "gdd" or len(tokens) < 3:
        raise IngredientFileError(f"{what} line {lineno}: expected 'gdd <k> <type>'")
    if not tokens[1].isdecimal() or int(tokens[1]) < 2:
        raise IngredientFileError(
            f"{what} line {lineno}: block size {tokens[1]!r} is not an integer >= 2"
        )
    return int(tokens[1]), " ".join(tokens[2:])


def parse_gdd_file(text: str, what: str = "ingredient") -> Gdd:
    lines = _content_lines(text)
    k, type_text = _read_header(lines, what)
    groups: list[tuple[int, ...]] = []
    blocks: list[tuple[int, ...]] = []
    for lineno, tokens in lines:
        try:
            points = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise IngredientFileError(f"{what} line {lineno}: non-integer point") from None
        if tokens[0] == "group":
            groups.append(points)
        elif tokens[0] != "block":
            raise IngredientFileError(f"{what} line {lineno}: unknown keyword {tokens[0]!r}")
        elif len(points) != k:
            raise IngredientFileError(f"{what} line {lineno}: {len(points)} points, want {k}")
        else:
            blocks.append(points)
    try:
        design = Gdd(GddType.parse(type_text), k, tuple(groups), blocks, f"loaded {what}")
    except ValueError as exc:  # a malformed type, or a point beyond int32
        raise IngredientFileError(f"{what}: {exc}") from None
    report = verify_gdd(design)
    if not report.passed:
        raise IngredientFileError(
            f"{what}: fails verification "
            f"({len(report.group_errors)} group, {len(report.block_errors)} block, "
            f"{len(report.pair_errors)} pair errors)"
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
            if header == (k, str(gdd_type)):
                return parse_gdd_file(text, what=str(path))
        return None


# --- the 4-GDDs of type 24^t -------------------------------------------------


def _relabel_canonical(design: Gdd) -> Gdd:
    """Renumber points so group i is a consecutive ascending range, then
    sort each block and the blocks.  Every block is kept, duplicates too."""
    order = [sorted(group) for group in sorted(design.groups, key=min)]
    mapping = np.empty(design.point_count(), dtype=np.int64)
    mapping[[p for group in order for p in group]] = np.arange(design.point_count())
    blocks = np.sort(mapping[design.blocks], axis=1)
    return replace(
        design,
        groups=tuple(tuple(mapping[group].tolist()) for group in order),
        blocks=blocks[np.lexsort(blocks.T[::-1])],
    )


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
        inflated = inflate(_relabel_canonical(ingredient), 24 // g)
        provenance = f"inflate {how} 4-gdd {g}^{t} by weight {24 // g}"
        design = _relabel_canonical(replace(inflated, provenance=provenance))
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
