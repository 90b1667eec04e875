"""Top-level construction of designs for every admissible order.

A design of order n exists exactly for n = 1 and n = 96t + 1.  Orders 97,
193 and 289 come straight from developed base blocks.  Every larger
admissible order is assembled recursively: take a 4-GDD of type 24^t,
inflate its points by a factor of 4, replace each block by the two-block
decomposition of K_{4,4,4,4}, then adjoin one new point and overlay every
group plus that point with a design of order 97.

Point naming is fixed so outputs are reproducible: GDD point p becomes
the four points 4p..4p+3, the new point is 96t, and each group overlay
uses the sorted-order bijection onto 0..96.

construct_design returns the design as a complete-mode certify.Certificate
and certifies it exactly once, as the last step.  That one check is the
boundary of the whole pipeline: the 24^t GDD and every step below it
(MOLS, TD, inflation, exact-cover search) are unverified claims, and only
an ingredient read from a file is verified on its own, on load.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import certify as certify_mod
from .blocks import develop, k4444_decomposition, paper_base_blocks
from .certify import Certificate, CertMode
from .gdd import Gdd, IngredientStore, gdd_24_t
from .targets import TargetId


class ConstructionError(RuntimeError):
    """An assembled design failed its own certification (a defect, not input)."""


def admissible(n: int) -> bool:
    """True iff a design of order n exists: n = 1 or n = 96t + 1."""
    if n < 1:
        raise ValueError("order must be positive")
    return n == 1 or n % 96 == 1


def inflate_block_to_k4444(
    block: Sequence[int] | np.ndarray, decomposition: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """Map the K_{4,4,4,4} decomposition onto inflated GDD blocks.

    The block's four points p_0 < p_1 < p_2 < p_3 each own the four
    inflated points 4p_i..4p_i+3; decomposition label l (in Z_16, residue
    class i mod 4) goes to inflated point 4*p_i + l div 4.  The two
    returned rows cover exactly the 96 pairs of inflated points over
    distinct p_i.  A (G, 4) array of blocks gives a (G, 2, 16) result.
    """
    p = np.sort(np.asarray(block), axis=-1)
    if p.shape[-1] != 4:
        raise ValueError("a GDD block has exactly 4 points")
    dec = np.asarray(decomposition)
    return 4 * p[..., dec % 4] + dec // 4


def overlay_group(group: Sequence[int], d97: Certificate, infinity: int) -> np.ndarray:
    """Push an order-97 design onto a group's inflated points plus infinity.

    The k-th smallest inflated point of the group (k = 0..95) plays design
    point k and the new point plays 96, so the 97 returned blocks cover
    each pair inside (group's inflated points plus infinity) exactly once.
    """
    if d97.order != 97:
        raise ValueError("overlay needs a design of order 97")
    inflated = np.sort(4 * np.asarray(group)[:, None] + np.arange(4), axis=None)
    if len(inflated) != 96:
        raise ValueError("a group must inflate to 96 points")
    return np.append(inflated, infinity)[d97.blocks]


def construct_design(
    target: TargetId, n: int, store: IngredientStore | None = None
) -> Certificate:
    """Build and certify a design of any admissible order.

    Orders 1, 97, 193 and 289 are direct; n = 96t + 1 with t >= 4 runs the
    inflation pipeline on a 4-GDD of type 24^t.  Output block order is
    canonical (K_{4,4,4,4} pieces by GDD block index, then overlays by
    group index) and the result is certified before it is returned.
    """
    target = TargetId(target)
    if not admissible(n):
        raise ValueError(f"no design of order {n}: orders must satisfy n ≡ 1 (mod 96)")
    if n == 1:
        design = Certificate(target, 1, CertMode.COMPLETE, ())
    elif n in (97, 193, 289):
        design = develop(paper_base_blocks(target, n))
    else:
        # built from the temporary, so the int64 assembly array is freed
        # before certification rather than held by a local
        t = (n - 1) // 96
        design = Certificate(target, n, CertMode.COMPLETE,
                             _assembled_blocks(target, gdd_24_t(t, store), t))
    report = certify_mod.certify(design)
    if not report.passed:
        raise ConstructionError(f"constructed design failed certification: {report.summary()}")
    return design


def _assembled_blocks(target: TargetId, base: Gdd, t: int) -> np.ndarray:
    pieces = [inflate_block_to_k4444(base.blocks, k4444_decomposition(target)).reshape(-1, 16)]
    d97 = develop(paper_base_blocks(target, 97))
    pieces.extend(overlay_group(group, d97, 96 * t) for group in base.gdd_type.group_ranges())
    return np.concatenate(pieces)
