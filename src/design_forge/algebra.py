"""Exact arithmetic in the finite fields this package uses.

This module is the one home of field arithmetic, and Ring.field(q) is its
one constructor: Z_q for prime q, and GF(4), GF(8) and GF(17^2) from the
reduction polynomials in REDUCTION_POLYNOMIALS.  Base blocks are developed
over Z_97, Z_193 and GF(289) (blocks), and the MOLS behind every
transversal design are computed in Z_q, GF(4) and GF(8) (gdd).

Elements are plain integer codes 0..q-1.  An element of GF(p^k) is a
polynomial c_0 + c_1 z + ... + c_{k-1} z^{k-1} over Z_p with code
sum(c_i p^i): a*z + b in GF(289) is 17a + b, and bit i of a GF(2^k) code is
the coefficient of z^i.  Z_p is the case k = 1, reduced by the polynomial z.
Sums and products are computed on the codes themselves, digit by digit, so
their cost follows the elements asked for, never the order of the field.

The affine maps x -> omega^e * x + d act on element codes, so the codes
double as design point names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat

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

    plus and times compute on codes, Python ints or int arrays alike;
    add, neg, sub, mul and pow are their checked forms on single codes.
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

    @cached_property
    def characteristic(self) -> int:
        return round(self.order ** (1 / (len(self.polynomial) - 1)))

    def _check(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.order:
            raise InvalidElementError(f"{x!r} is not an element code of {self}")
        return x

    def _digits(self, x):
        """The base-p digits of x (a code or an array of codes), low to high."""
        digits = []
        for _ in range(len(self.polynomial) - 2):
            x, digit = divmod(x, self.characteristic)
            digits.append(digit)
        return digits + [x]  # a code is below p^k, so what is left is one digit

    def _code(self, digits):
        """The code(s) whose base-p digits are these, each reduced mod p here."""
        p = self.characteristic
        code = digits[-1] % p
        for digit in digits[-2::-1]:
            code = code * p + digit % p
        return code

    def plus(self, x, y):
        """x + y, elementwise over Python ints and int arrays alike (broadcast)."""
        return self._code([a + b for a, b in zip(self._digits(x), self._digits(y))])

    def times(self, x, y):
        """x * y, elementwise like plus: the product of the digit polynomials,
        its top degrees folded down by polynomial.  Arrays stay int32 where
        order^2 fits in int32 and are widened to int64 above that."""
        if self.order**2 >= 2**31:
            x, y = (v.astype(np.int64) if isinstance(v, np.ndarray) else v for v in (x, y))
        dx, dy = self._digits(x), self._digits(y)
        k = len(dx)
        product = [dx[0] * b for b in dy]
        for i in range(1, k):
            product.append(dx[i] * dy[-1])
            for j in range(k - 1):
                product[i + j] += dx[i] * dy[j]  # in place only on products made here
        # z^k = -(c_0 + ... + c_{k-1} z^{k-1}); fold the top degrees down
        for top in range(2 * k - 2, k - 1, -1):
            t = product.pop()
            for i, c in enumerate(self.polynomial[:k]):
                if c:
                    product[top - k + i] -= c * t
        return self._code(product)

    def add(self, x: int, y: int) -> int:
        self._check(x), self._check(y)
        return self.plus(x, y)

    def neg(self, x: int) -> int:
        self._check(x)
        return self._code([-d for d in self._digits(x)])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        self._check(x), self._check(y)
        return self.times(x, y)

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
    a multiplicatively closed set of exactly 2*exponents units.

    A finite set closed under the group operation inside the unit group is
    a subgroup, so the size check, closure and an inverse among the members
    for each member (so each is a unit) certify H <= units.  Raises
    NotASubgroupError otherwise (an unusable omega).
    """
    if exponents < 1:
        raise ValueError("exponents must be at least 1")
    ring._check(omega)
    powers = list(accumulate(repeat(omega, exponents - 1), ring.mul, initial=1))
    members = {*powers, *map(ring.neg, powers)}
    if 0 in members or len(members) != 2 * exponents:
        raise NotASubgroupError(
            f"signed powers of {omega} give {len(members)} elements, want {2 * exponents}"
        )
    h = np.array(list(members))
    products = ring.times(h[:, None], h).tolist()  # one product, not (2e)^2 ring.mul calls
    if not all(members.issuperset(row) for row in products):
        raise NotASubgroupError(f"signed powers of {omega} are not closed")
    # a finite closed set holds the inverse of each unit in it
    if not all(1 in row for row in products):
        raise NotASubgroupError(f"signed powers of {omega} are not all units")
    return frozenset(members)


def unit_group_coset_partition(
    ring: Ring, omega: int, exponents: int
) -> list[tuple[int, ...]]:
    """Partition the nonzero elements into cosets of H = {+-omega^e : e < exponents}.

    Cosets are returned sorted ascending internally and ordered by their
    smallest member, so the partition is deterministic.
    """
    h = np.array(list(signed_power_subgroup(ring, omega, exponents)))
    # row x - 1 is the coset xH, sorted; x is listed first iff it is its coset's least
    rows = np.sort(ring.times(np.arange(1, ring.order)[:, None], h), axis=1).tolist()
    return [tuple(row) for x, row in enumerate(rows, 1) if row[0] == x]
