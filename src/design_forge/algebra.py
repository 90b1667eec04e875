"""Exact arithmetic in the finite fields this package uses.

This module is the one home of field arithmetic, and Ring.field(q) is its
one constructor: Z_q for prime q, and GF(4), GF(8) and GF(17^2) from the
reduction polynomials in REDUCTION_POLYNOMIALS.  Base blocks are developed
over Z_97, Z_193 and GF(289) (blocks), and the MOLS behind every
transversal design are read off the tables of Z_q, GF(4) and GF(8) (gdd).

Elements are plain integer codes 0..q-1.  An element of GF(p^k) is a
polynomial c_0 + c_1 z + ... + c_{k-1} z^{k-1} over Z_p with code
sum(c_i p^i): a*z + b in GF(289) is 17a + b, and bit i of a GF(2^k) code is
the coefficient of z^i.  Z_p is the case k = 1, reduced by the polynomial z.

The affine maps x -> omega^e * x + d act on element codes, so the codes
double as design point names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class RingError(ValueError):
    pass


class InvalidElementError(RingError):
    """An integer code lies outside 0..order-1."""


class NotASubgroupError(RingError):
    """The signed powers of omega do not form a subgroup of the stated size."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


# Monic reduction polynomials of the extension fields, coefficients low to
# high: z^2 + z + 1 and z^3 + z + 1 over Z_2, z^2 + 3z + 1 over Z_17.
REDUCTION_POLYNOMIALS: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    289: (1, 3, 1),
}


@dataclass(frozen=True)
class Ring:
    """The finite field of ``order`` elements, reduced by ``polynomial``.

    Arithmetic is looked up in order x order tables, built on first use.
    """

    order: int
    polynomial: tuple[int, ...]  # monic, low to high; (0, 1) for Z_p

    @staticmethod
    def field(q: int) -> "Ring":
        """Z_q for prime q; GF(q) for q in REDUCTION_POLYNOMIALS."""
        if _is_prime(q):
            return Ring(q, (0, 1))
        if q not in REDUCTION_POLYNOMIALS:
            raise RingError(f"no field of order {q} here")
        ring = Ring(q, REDUCTION_POLYNOMIALS[q])
        p = ring.characteristic
        # a polynomial of degree 2 or 3 is irreducible iff it has no root
        for r in range(p):
            if sum(c * r**i for i, c in enumerate(ring.polynomial)) % p == 0:
                raise RingError(f"the reduction polynomial of GF({q}) has the root {r}")
        return ring

    @property
    def characteristic(self) -> int:
        return round(self.order ** (1 / (len(self.polynomial) - 1)))

    def _check(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.order:
            raise InvalidElementError(f"{x!r} is not an element code of {self}")
        return x

    def _digits(self) -> tuple[np.ndarray, np.ndarray]:
        # (weights p^i, digits) with code x = sum(digits[x, i] * weights[i])
        p = self.characteristic
        weights = p ** np.arange(len(self.polynomial) - 1)
        return weights, np.arange(self.order)[:, None] // weights % p

    @cached_property
    def add_table(self) -> np.ndarray:
        """add_table[x, y] is the code of x + y; built on first use, read-only."""
        weights, d = self._digits()
        coefficients = (d[:, None] + d) % self.characteristic
        return _read_only((coefficients @ weights).astype(np.int32))

    @cached_property
    def mul_table(self) -> np.ndarray:
        """mul_table[x, y] is the code of x * y; built on first use, read-only."""
        weights, d = self._digits()
        k = len(weights)
        product = np.zeros((self.order, self.order, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            product[:, :, i : i + k] += d[:, None, i, None] * d
        # z^k = -(c_0 + ... + c_{k-1} z^{k-1}); fold the top degrees down
        for top in range(2 * k - 2, k - 1, -1):
            product[:, :, top - k : top] -= product[:, :, top, None] * self.polynomial[:k]
        coefficients = product[:, :, :k] % self.characteristic
        return _read_only((coefficients @ weights).astype(np.int32))

    def add(self, x: int, y: int) -> int:
        self._check(x), self._check(y)
        return int(self.add_table[x, y])

    def neg(self, x: int) -> int:
        self._check(x)
        # row x of the addition table is a permutation; its zero is its minimum
        return int(self.add_table[x].argmin())

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        self._check(x), self._check(y)
        return int(self.mul_table[x, y])

    def pow(self, x: int, e: int) -> int:
        """Repeated-squaring power; pow(x, 0) = 1 for every x."""
        self._check(x)
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = 1
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def __str__(self) -> str:
        return f"Z_{self.order}" if len(self.polynomial) == 2 else f"GF({self.order})"


def signed_power_subgroup(ring: Ring, omega: int, exponents: int) -> frozenset[int]:
    """The set H = {omega^e, -omega^e : 0 <= e < exponents}, verified to be
    a multiplicatively closed set of exactly 2*exponents nonzero elements.

    A finite set closed under the group operation inside the unit group is
    a subgroup, so closure plus the size check certifies H <= units.
    Raises NotASubgroupError otherwise (an unusable omega).
    """
    if exponents < 1:
        raise ValueError("exponents must be at least 1")
    ring._check(omega)
    members: set[int] = set()
    for e in range(exponents):
        p = ring.pow(omega, e)
        members.add(p)
        members.add(ring.neg(p))
    if 0 in members or len(members) != 2 * exponents:
        raise NotASubgroupError(
            f"signed powers of {omega} give {len(members)} elements, want {2 * exponents}"
        )
    for x in members:
        for y in members:
            if ring.mul(x, y) not in members:
                raise NotASubgroupError(f"signed powers of {omega} are not closed")
    return frozenset(members)


def unit_group_coset_partition(
    ring: Ring, omega: int, exponents: int
) -> list[tuple[int, ...]]:
    """Partition the nonzero elements into cosets of H = {+-omega^e : e < exponents}.

    Cosets are returned sorted ascending internally and ordered by their
    smallest member, so the partition is deterministic.
    """
    h = signed_power_subgroup(ring, omega, exponents)
    seen: set[int] = set()
    cosets: list[tuple[int, ...]] = []
    for x in range(1, ring.order):
        if x in seen:
            continue
        coset = tuple(sorted(ring.mul(x, s) for s in h))
        seen.update(coset)
        cosets.append(coset)
    return cosets
