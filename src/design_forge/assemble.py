"""Top-level construction of designs for every admissible order.

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
96t: np.where(d97 == 96, 96t, d97 + 96i).

construct_design returns the design as a complete-mode certify.Certificate
and certifies it exactly once, as the last step.  That one check is the
boundary of the whole pipeline: the 24^t GDD and every step below it
(MOLS, TD, inflation, exact-cover search) are unverified claims, and only
an ingredient read from a file is verified on its own, on load.
"""

from __future__ import annotations

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
        t = (n - 1) // 96
        design = Certificate(target, n, CertMode.COMPLETE,
                             _assembled_blocks(target, gdd_24_t(t, store), t))
    report = certify_mod.certify(design)
    if not report.passed:
        raise ConstructionError(f"constructed design failed certification: {report.summary()}")
    return design


def _assembled_blocks(target: TargetId, base: Gdd, t: int) -> np.ndarray:
    """The int32 blocks of order 96t + 1 from a 4-GDD of type 24^t whose
    rows ascend: the K_{4,4,4,4} pieces of every GDD block, then the
    order-97 overlay of every group (see the module docstring)."""
    dec = np.array(k4444_decomposition(target), dtype=np.int32)
    pieces = 4 * base.blocks[:, dec % 4] + dec // 4
    d97 = develop(paper_base_blocks(target, 97)).blocks
    shift = 96 * np.arange(t, dtype=np.int32)[:, None, None]
    overlays = np.where(d97 == 96, np.int32(96 * t), d97 + shift)
    return np.concatenate((pieces.reshape(-1, 16), overlays.reshape(-1, 16)))
