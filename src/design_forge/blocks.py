"""Base blocks, their cyclic development, and the difference-transversal check.

A base block attaches a ring element label to each of the 16 canonical
vertices of a target graph.  Developing it through the affine maps
x -> omega^e * x + d for 0 <= e < (n-1)/96 and 0 <= d < n yields
n(n-1)/96 labelled copies of the target; when the block's 48 edge
differences form an exact transversal of the cosets of H = {+-omega^e}
in the unit group, those copies partition the edges of K_n.  develop
returns them as a complete-mode certify.Certificate, the package's one
design type: a claim, checked by certify and not on construction.
develop itself only rejects repeated labels and repeated blocks, and
decides both on the (n-1)/96 base rows, since every other row is one
of them translated; that needs a Ring whose addition is a group.

The catalogued blocks for orders 97, 193 and 289 (both targets) live in
data/base_blocks.txt and are loaded verbatim.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate, combinations, repeat

import numpy as np

from .algebra import Ring, signed_power_subgroup, unit_group_coset_partition
from .certify import Certificate, CertMode, _ascii_ints, _content_lines
from .targets import TargetId, target_graph


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

    @functools.cached_property
    def omega_powers(self) -> tuple[int, ...]:
        """omega^e for 0 <= e < exponent_count, once signed_power_subgroup
        has vetted omega (or raised); computed once per block."""
        signed_power_subgroup(self.ring, self.omega, self.exponent_count)
        return tuple(accumulate(repeat(self.omega, self.exponent_count - 1), self.ring.mul,
                                initial=1))


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


@functools.cache  # read on the first catalog call, not at import
def _load_catalog() -> dict[tuple[TargetId, int], BaseBlock]:
    catalog: dict[tuple[TargetId, int], BaseBlock] = {}
    text = resources.files("design_forge").joinpath("data/base_blocks.txt").read_text()
    for _, tokens in _content_lines(text):
        target = TargetId(tokens[0])
        n, omega, *labels = _ascii_ints(tokens[1:])
        catalog[(target, n)] = BaseBlock(tuple(labels), target, Ring.field(n), omega)
    return catalog


def catalog() -> dict[tuple[TargetId, int], BaseBlock]:
    """All catalogued base blocks, keyed by (target, order)."""
    return dict(_load_catalog())


def paper_base_blocks(target: TargetId, n: int) -> BaseBlock:
    """The catalogued base block for this target and order."""
    try:
        return catalog()[(TargetId(target), n)]
    except KeyError:
        raise NotInCatalogError(f"no base block for {target} of order {n}") from None


def develop(block: BaseBlock) -> Certificate:
    """Generate the full design from a base block, as a complete-mode
    Certificate of n(n-1)/96 blocks.

    Blocks are emitted in (e, d) order: exponent e outermost, translation
    d innermost, so the output is deterministic.  Raises
    DuplicateLabelError if any developed tuple repeats a label and
    DuplicateBlockError if the orbit produces the same tuple twice; either
    signals an unusable base block rather than a recoverable state.

    Both are decided on the heads, the rows (e, 0): row (e, d) is row
    (e, 0) translated by d, a bijection of the ring.  So row (e, d)
    repeats a label iff its head does, and rows (e, d) and (f, d') coincide
    iff head e equals row (f, d' - d), the one row of exponent f whose
    first label is head e's; within one exponent the first labels differ.
    This needs ring addition to be a group, which holds iff the order is
    characteristic^degree (every Ring.field and every Z_n); develop raises
    DevelopmentError for any other Ring.
    """
    ring = block.ring
    n = ring.order
    if ring.characteristic ** (len(ring.polynomial) - 1) != n:
        raise DevelopmentError(f"addition in {ring} is not a group")
    exponents = block.exponent_count
    factors = np.array(block.omega_powers, np.int32)
    scaled = ring.times(factors[:, None], np.array(block.labels, np.int32))
    # [e, d, i] = omega^e * label_i + d, added digit by digit: the sums for
    # digit j of d run along their own axis, d's highest digit outermost
    p, k = ring.characteristic, len(ring.polynomial) - 1
    shifts = np.arange(p, dtype=np.int32)[:, None]
    orbit = ring._code([
        (digit[:, None, :] + shifts).reshape(exponents, *(1,) * (k - 1 - j), p, *(1,) * j, 16)
        for j, digit in enumerate(ring._digits(scaled))]).reshape(exponents, n, 16)
    heads = orbit[:, 0]
    ordered = np.sort(heads, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeats.any():
        e = int(repeats.argmax())
        raise DuplicateLabelError(f"developed tuple at e={e}, d=0 repeats a label")
    for e, f in combinations(range(exponents), 2):
        d = int((orbit[f, :, 0] == heads[e, 0]).argmax())
        if (orbit[f, d] == heads[e]).all():
            raise DuplicateBlockError("development produced duplicate blocks")
    return Certificate(block.target, n, CertMode.COMPLETE, orbit.reshape(-1, 16))


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
