"""Exact arithmetic in Z_p (p prime) and in GF(17^2).

Elements are plain integer codes 0..order-1.  For GF(17^2) the element
a*z + b with a, b in Z_17 is coded as 17*a + b, and multiplication reduces
by the fixed irreducible polynomial z^2 + 3z + 1, i.e. z^2 = -3z - 1.

These are the two ring families in which base blocks are developed: the
affine maps x -> omega^e * x + d act on element codes, so the codes double
as design point names.
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


@dataclass(frozen=True)
class Ring:
    """A prime field Z_p or the fixed quadratic extension GF(17^2).

    Arithmetic is looked up in order x order tables, built on first use.
    """

    kind: str  # "prime" or "gf289"
    order: int

    @staticmethod
    def prime_field(p: int) -> "Ring":
        if not _is_prime(p):
            raise RingError(f"{p} is not prime")
        return Ring("prime", p)

    @staticmethod
    def gf289() -> "Ring":
        # z^2 + 3z + 1 must have no root in Z_17; exhaust all candidates.
        for r in range(17):
            if (r * r + 3 * r + 1) % 17 == 0:
                raise RingError("z^2 + 3z + 1 is reducible over Z_17")
        return Ring("gf289", 289)

    def _check(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.order:
            raise InvalidElementError(f"{x!r} is not an element code of {self}")
        return x

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray, int]:
        # every code as a*z + b with b taken mod m; a = 0 in a prime field
        codes = np.arange(self.order, dtype=np.int32)
        if self.kind == "prime":
            return np.zeros_like(codes), codes, self.order
        return codes // 17, codes % 17, 17

    @cached_property
    def add_table(self) -> np.ndarray:
        """add_table[x, y] is the code of x + y; built on first use, read-only."""
        a, b, m = self._coefficients()
        return _read_only(17 * ((a[:, None] + a) % 17) + (b[:, None] + b) % m)

    @cached_property
    def mul_table(self) -> np.ndarray:
        """mul_table[x, y] is the code of x * y; built on first use, read-only."""
        a, b, m = self._coefficients()
        zz = a[:, None] * a  # coefficient of z^2; reduce by z^2 = -3z - 1
        za = (a[:, None] * b + b[:, None] * a - 3 * zz) % 17
        return _read_only(17 * za + (b[:, None] * b - zz) % m)

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
        return f"Z_{self.order}" if self.kind == "prime" else "GF(289)"


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
