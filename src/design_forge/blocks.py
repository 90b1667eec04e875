"""Base blocks, their cyclic development, and the difference-transversal check.

A base block attaches a ring element label to each of the 16 canonical
vertices of a target graph.  Developing it through the affine maps
x -> omega^e * x + d for 0 <= e < (n-1)/96 and 0 <= d < n yields
n(n-1)/96 labelled copies of the target; when the block's 48 edge
differences form an exact transversal of the cosets of H = {+-omega^e}
in the unit group, those copies partition the edges of K_n.

The catalogued blocks for orders 97, 193 and 289 (both targets) live in
data/base_blocks.txt and are loaded verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .algebra import Ring, signed_power_subgroup, unit_group_coset_partition
from .targets import TargetId, as_block_array, target_graph


class NotInCatalogError(LookupError):
    """No catalogued base block for the requested (target, order)."""


class DevelopmentError(ValueError):
    pass


class DuplicateLabelError(DevelopmentError):
    """A developed tuple carries the same label twice."""


class DuplicateBlockError(DevelopmentError):
    """Two developed tuples coincide; the orbit is degenerate."""


@dataclass(frozen=True)
class BaseBlock:
    """An ordered 16-tuple of ring element codes labelling the canonical vertices.

    Well-formedness (distinct labels, nonzero edge differences) is not
    enforced here: the difference-transversal check must be able to judge
    arbitrary candidate tuples, including broken ones.
    """

    labels: tuple[int, ...]
    target: TargetId
    ring: Ring
    omega: int

    def __post_init__(self) -> None:
        if len(self.labels) != 16:
            raise ValueError("a base block has exactly 16 labels")
        for x in self.labels:
            self.ring._check(x)
        self.ring._check(self.omega)

    @property
    def exponent_count(self) -> int:
        n = self.ring.order
        if (n - 1) % 96:
            raise DevelopmentError(f"order {n} is not 1 mod 96")
        return (n - 1) // 96


@dataclass(frozen=True, eq=False)
class Design:
    """A claimed decomposition of K_n into labelled copies of the target.

    Point set is 0..order-1; row i of ``blocks``, a read-only (B, 16)
    int32 array (see targets.as_block_array), is one block whose position
    j is the point placed at canonical vertex j+1.  The block count
    identity |blocks| = n(n-1)/96 is enforced here; edgewise exactness is
    the certify module's job.
    """

    order: int
    target: TargetId
    blocks: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", as_block_array(self.blocks))
        n = self.order
        if n < 1:
            raise ValueError("order must be positive")
        if len(self.blocks) * 96 != n * (n - 1):
            raise ValueError(
                f"{len(self.blocks)} blocks, want n(n-1)/96 = {n * (n - 1) // 96}"
            )


# The two-block decompositions of the complete 4-partite graph K_{4,4,4,4}
# on Z_16 partitioned by residue class modulo 4.
K4444_BLOCKS: dict[TargetId, tuple[tuple[int, ...], tuple[int, ...]]] = {
    TargetId.SHRIKHANDE: (
        (0, 1, 2, 5, 3, 4, 7, 6, 10, 9, 8, 13, 11, 14, 15, 12),
        (0, 2, 8, 10, 9, 3, 5, 15, 12, 14, 4, 6, 7, 13, 11, 1),
    ),
    TargetId.LINE_K44: (
        (0, 1, 2, 3, 5, 6, 7, 4, 11, 10, 15, 14, 8, 9, 13, 12),
        (0, 9, 11, 14, 10, 13, 15, 7, 1, 8, 4, 2, 6, 3, 12, 5),
    ),
}


def k4444_decomposition(target: TargetId) -> list[tuple[int, ...]]:
    """The two catalogued 16-tuples decomposing K_{4,4,4,4} for this target."""
    return list(K4444_BLOCKS[TargetId(target)])


def _load_catalog() -> dict[tuple[TargetId, int], BaseBlock]:
    catalog: dict[tuple[TargetId, int], BaseBlock] = {}
    text = resources.files("design_forge").joinpath("data/base_blocks.txt").read_text()
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        tokens = line.split()
        target = TargetId(tokens[0])
        n = int(tokens[1])
        omega = int(tokens[2])
        labels = tuple(int(t) for t in tokens[3:])
        catalog[(target, n)] = BaseBlock(labels, target, Ring.field(n), omega)
    return catalog


_CATALOG: dict[tuple[TargetId, int], BaseBlock] | None = None


def catalog() -> dict[tuple[TargetId, int], BaseBlock]:
    """All catalogued base blocks, keyed by (target, order)."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _load_catalog()
    return dict(_CATALOG)


def paper_base_blocks(target: TargetId, n: int) -> BaseBlock:
    """The catalogued base block for this target and order."""
    try:
        return catalog()[(TargetId(target), n)]
    except KeyError:
        raise NotInCatalogError(f"no base block for {target} of order {n}") from None


def develop(block: BaseBlock) -> Design:
    """Generate the full design from a base block.

    Blocks are emitted in (e, d) order: exponent e outermost, translation
    d innermost, so the output is deterministic.  Raises
    DuplicateLabelError if any developed tuple repeats a label and
    DuplicateBlockError if the orbit produces the same tuple twice; either
    signals an unusable base block rather than a recoverable state.
    """
    ring = block.ring
    n = ring.order
    exponents = block.exponent_count
    signed_power_subgroup(ring, block.omega, exponents)  # omega sanity
    factors = [ring.pow(block.omega, e) for e in range(exponents)]
    scaled = ring.mul_table[np.array(factors)[:, None], np.array(block.labels)]
    # [e, d, i] = omega^e * label_i + d, flattened with e outermost
    blocks = ring.add_table[scaled[:, None, :], np.arange(n)[None, :, None]].reshape(-1, 16)
    ordered = np.sort(blocks, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeats.any():
        e, d = divmod(int(repeats.argmax()), n)
        raise DuplicateLabelError(f"developed tuple at e={e}, d={d} repeats a label")
    if len(np.unique(blocks, axis=0)) != len(blocks):
        raise DuplicateBlockError("development produced duplicate blocks")
    return Design(order=n, target=block.target, blocks=blocks)


def difference_transversal_check(block: BaseBlock) -> bool:
    """Fast validity test: do the 48 edge differences represent every coset
    of H = {+-omega^e} in the unit group exactly once?

    This is equivalent to develop(block) being an exact decomposition:
    translation by d sweeps each +-difference class over every pair with
    that difference once, and multiplication by omega^e permutes the
    classes within one H-coset.  The equivalence is enforced against the
    develop-plus-certify oracle in the test suite, never assumed.

    Returns False for tuples with repeated labels (a zero difference lies
    in no coset).  Propagates NotASubgroupError for an unusable omega.
    """
    ring = block.ring
    cosets = unit_group_coset_partition(ring, block.omega, block.exponent_count)
    coset_of = {x: i for i, coset in enumerate(cosets) for x in coset}
    hit: set[int] = set()
    for u, v in target_graph(block.target).edges:
        diff = ring.sub(block.labels[u - 1], block.labels[v - 1])
        if diff == 0:
            return False
        idx = coset_of[diff]
        if idx in hit:
            return False
        hit.add(idx)
    return len(hit) == len(cosets)
