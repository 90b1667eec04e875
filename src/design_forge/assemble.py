"""Top-level construction of designs of admissible order.

A design of order n exists exactly for n = 1 and n = 96t + 1.  Orders 97,
193 and 289 come straight from developed base blocks.  Every larger
admissible order is assembled recursively: take a 4-GDD of type 24^t,
inflate its points by a factor of 4, replace each block by the two-block
decomposition of K_{4,4,4,4}, then adjoin one new point and overlay every
group plus that point with a design of order 97.

Point naming is fixed so outputs are reproducible.  GDD point p becomes
the four points 4p..4p+3: with dec the (2, 16) K_{4,4,4,4} decomposition
and p a GDD block's ascending points, the block's two pieces are
4 * p[dec % 4] + dec // 4.  Group i, the GDD points 24i..24i+23, thus
inflates to 96i..96i+95 in order, and its overlay is the order-97 design
d97 with label x < 96 sent to 96i + x and label 96 sent to the new point
96t.

The design is never built as one array.  A slice generator yields its
int32 rows in output order, certify._SLICE_ROWS at a time (that many rows
of a developed design, or the pieces of half as many GDD blocks), then one
overlay per group, and is run twice: once for the count pass,
certify.certify_slices, which holds the uint8 pair counts and one slice,
and only if that passes once more, for the certificate written slice by
slice, or the Certificate returned to a library caller, joined from the
slices.  That one count pass is the
design's certification and the boundary of the whole pipeline: the 24^t
GDD and every step below it (MOLS, TD, inflation, exact-cover search) are
unverified claims, and only an ingredient read from a file is verified on
its own, on load.

For t >= 5 the 24^t needs a 6^t or 3^t ingredient, stored or found by the
3^t search within its budget; without one gdd_24_t raises
IngredientUnavailableError or BudgetExhaustedError before any slice is
made.  README's "Which orders construct" gives the outcome for each t.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import certify as certify_mod
from .blocks import develop, k4444_decomposition, paper_base_blocks
from .certify import Certificate, CertMode, _SLICE_ROWS
from .gdd import Gdd, IngredientStore, gdd_24_t
from .targets import TargetId


class ConstructionError(RuntimeError):
    """An assembled design failed its own certification (a defect, not input)."""


def admissible(n: int) -> bool:
    """True iff a design of order n exists: n = 1 or n = 96t + 1."""
    if n < 1:
        raise ValueError("order must be positive")
    return n == 1 or n % 96 == 1


def construct_design(
    target: TargetId, n: int, store: IngredientStore | None = None,
    out: str | Path | None = None,
) -> Certificate | None:
    """Build and certify a design of admissible order n = 1 or 96t + 1.

    Orders 1, 97, 193 and 289 are direct; n = 96t + 1 with t >= 4 runs the
    inflation pipeline on a 4-GDD of type 24^t, which gdd_24_t builds or
    raises on (see the module docstring).  Output block order is
    canonical (K_{4,4,4,4} pieces by GDD block index, then overlays by
    group index).

    The design's slices are counted first (certify.certify_slices); a
    design that fails raises ConstructionError with certify's summary.
    Then they are made again and either joined into the Certificate
    returned, or, with out, written there as its certificate (a pipe will
    do) and None returned: the design is then never held whole.
    """
    target = TargetId(target)
    slices = _design_slices(target, n, store)
    if not certify_mod.certify_slices(target, n, slices()):
        report = certify_mod.certify(Certificate(target, n, CertMode.COMPLETE, _joined(slices())))
        raise ConstructionError(f"constructed design failed certification: {report.summary()}")
    if out is not None:
        certify_mod.write_slices(target, n, slices(), out)
        return None
    return Certificate(target, n, CertMode.COMPLETE, _joined(slices()))


def _joined(slices: Iterator[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.empty((0, 16), dtype=np.int32), *slices])


def _design_slices(
    target: TargetId, n: int, store: IngredientStore | None
) -> Callable[[], Iterator[np.ndarray]]:
    """A function that yields the int32 rows of the design of order n, in
    output order, a slice at a time, afresh on every call; what it needs
    (the 24^t GDD, develop's array) is built once, here."""
    if not admissible(n):
        raise ValueError(f"no design of order {n}: orders must satisfy n ≡ 1 (mod 96)")
    if n == 1:
        return lambda: iter(())
    if n in (97, 193, 289):
        blocks = develop(paper_base_blocks(target, n)).blocks
        return lambda: (blocks[i : i + _SLICE_ROWS] for i in range(0, len(blocks), _SLICE_ROWS))
    t = (n - 1) // 96
    return _assembled_slices(target, gdd_24_t(t, store), t)


def _assembled_slices(target: TargetId, base: Gdd, t: int) -> Callable[[], Iterator[np.ndarray]]:
    """A function that yields the int32 rows of order 96t + 1 from a 4-GDD
    of type 24^t whose rows ascend (see the module docstring): the
    K_{4,4,4,4} pieces of _SLICE_ROWS / 2 GDD blocks at a time, then the
    order-97 overlay of each group."""
    points = base.blocks * np.int32(4)  # the one GDD array slices() keeps
    dec = np.array(k4444_decomposition(target), dtype=np.int32).ravel()  # both pieces, in a row
    columns, offsets = dec % 4, dec // 4
    d97 = develop(paper_base_blocks(target, 97)).blocks
    # overlay i is lifted + i * step: x < 96 goes to 96i + x, 96 to 96t
    lifted = np.where(d97 == 96, np.int32(96 * t), d97)
    step = np.where(d97 == 96, np.int32(0), np.int32(96))

    def slices() -> Iterator[np.ndarray]:
        for start in range(0, len(points), _SLICE_ROWS // 2):
            yield _pieces(points[start : start + _SLICE_ROWS // 2], columns, offsets)
        for i in range(t):  # one group at a time: numpy buffers a broadcast over several
            overlay = step * np.int32(i)
            overlay += lifted
            yield overlay

    return slices


def _pieces(points: np.ndarray, columns: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The (2B, 16) rows of the K_{4,4,4,4} pieces of B GDD blocks, given
    4 * block as points: labels points[columns] + offsets, a row of both
    pieces' labels per block.  A function, so that no temporary of it is
    held while its slice is in use."""
    pieces = points[:, columns]
    pieces += offsets
    return pieces.reshape(-1, 16)  # the gather is laid out column by column: a copy, in rows
