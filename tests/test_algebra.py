from __future__ import annotations

import pytest

from design_forge import algebra
from design_forge.algebra import (
    InvalidElementError,
    NotASubgroupError,
    Ring,
    RingError,
    signed_power_subgroup,
    unit_group_coset_partition,
)


def test_prime_field_rejects_composites():
    with pytest.raises(RingError):
        Ring.field(91)
    with pytest.raises(RingError):
        Ring.field(1)


def test_prime_field_arithmetic():
    f = Ring.field(97)
    assert f.add(90, 10) == 3
    assert f.add(96, 5) == 4
    assert f.mul(50, 2) == 3
    assert f.pow(3, 0) == 1
    assert f.pow(1, 5) == 1
    assert f.neg(0) == 0
    for x in (0, 1, 44, 96):
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x


def test_z193_81_squared_is_minus_one():
    f = Ring.field(193)
    assert f.mul(81, 81) == 192
    assert f.pow(81, 4) == 1


def test_gf289_arithmetic_known_values():
    f = Ring.field(289)
    assert f.order == 289
    # z + 16 is coded 17*1 + 16
    assert f.add(17, 16) == 33
    # z * z = -3z - 1 = 14z + 16, and z is coded as 17
    assert f.mul(17, 17) == 14 * 17 + 16
    assert f.mul(17, 17) == 254
    assert f.add(254, f.neg(254)) == 0
    # multiplicative identity is the constant 1
    assert f.mul(1, 43) == 43
    for x in (0, 1, 17, 288):
        assert f.add(x, 0) == x


def test_gf289_multiplicative_group_order():
    f = Ring.field(289)
    # 139 has multiplicative order 3 and -1 is not a power of it, so
    # {+/- 139^e} has six elements
    assert f.pow(139, 3) == 1
    h = signed_power_subgroup(f, 139, 3)
    assert len(h) == 6
    assert 1 in h and f.neg(1) in h


def test_element_range_checked():
    f = Ring.field(97)
    with pytest.raises(InvalidElementError):
        f.add(97, 0)
    with pytest.raises(InvalidElementError):
        f.mul(-1, 3)


def test_signed_power_subgroup_z97():
    f = Ring.field(97)
    h = signed_power_subgroup(f, 1, 1)
    assert h == frozenset({1, 96})


def test_signed_power_subgroup_z193():
    f = Ring.field(193)
    h = signed_power_subgroup(f, 81, 2)
    assert h == frozenset({1, 81, 192, 112})


def test_signed_powers_must_form_a_subgroup_of_the_right_size():
    f = Ring.field(97)
    # {+/- 1^e} for e < 2 has only 2 elements, not 4
    with pytest.raises(NotASubgroupError):
        signed_power_subgroup(f, 1, 2)


def test_coset_partition_z97():
    f = Ring.field(97)
    cosets = unit_group_coset_partition(f, 1, 1)
    assert len(cosets) == 48
    assert all(len(c) == 2 for c in cosets)
    flattened = sorted(x for c in cosets for x in c)
    assert flattened == list(range(1, 97))
    # each coset is {x, -x}
    for c in cosets:
        assert (97 - c[0]) % 97 in c


def test_coset_partition_z193():
    f = Ring.field(193)
    cosets = unit_group_coset_partition(f, 81, 2)
    assert len(cosets) == 48
    assert all(len(c) == 4 for c in cosets)
    assert sorted(x for c in cosets for x in c) == list(range(1, 193))


def test_coset_partition_gf289():
    f = Ring.field(289)
    cosets = unit_group_coset_partition(f, 139, 3)
    assert len(cosets) == 48
    assert all(len(c) == 6 for c in cosets)
    nonzero = sorted(x for c in cosets for x in c)
    assert len(nonzero) == 288 and len(set(nonzero)) == 288


def test_arithmetic_tables_are_built_on_first_use_and_read_only():
    f = Ring.field(289)
    assert "add_table" not in vars(f) and "mul_table" not in vars(f)
    assert f.mul(18, 18) == f.mul_table[18, 18]
    assert "mul_table" in vars(f) and "add_table" not in vars(f)
    for table in (f.add_table, f.mul_table):
        assert table.shape == (289, 289)
        with pytest.raises(ValueError):
            table[0, 0] = 1
    # every row of the addition table is a permutation, as neg relies on
    assert all(sorted(row) == list(range(289)) for row in f.add_table.tolist())


def _reference_gf289(x: int, y: int) -> tuple[int, int]:
    # (x + y, x * y) by polynomial arithmetic mod z^2 + 3z + 1 over Z_17
    (a1, b1), (a2, b2) = divmod(x, 17), divmod(y, 17)
    zz = a1 * a2
    return (
        17 * ((a1 + a2) % 17) + (b1 + b2) % 17,
        17 * ((a1 * b2 + a2 * b1 - 3 * zz) % 17) + (b1 * b2 - zz) % 17,
    )


def _reference_gf2k(x: int, y: int, poly: int) -> int:
    # carry-less product, then reduction by poly (bit i = coefficient of z^i)
    r = 0
    for i in range(y.bit_length()):
        if y >> i & 1:
            r ^= x << i
    degree = poly.bit_length() - 1
    for i in range(r.bit_length() - 1, degree - 1, -1):
        if r >> i & 1:
            r ^= poly << (i - degree)
    return r


def test_tables_match_reference_arithmetic():
    for p in (5, 97, 193):
        f = Ring.field(p)
        for x in range(p):
            assert f.add_table[x].tolist() == [(x + y) % p for y in range(p)]
            assert f.mul_table[x].tolist() == [(x * y) % p for y in range(p)]
            assert f.neg(x) == -x % p
    g = Ring.field(289)
    for x in range(289):
        ref = [_reference_gf289(x, y) for y in range(289)]
        assert g.add_table[x].tolist() == [s for s, _ in ref]
        assert g.mul_table[x].tolist() == [m for _, m in ref]
        assert g.add(x, g.neg(x)) == 0
    for q, poly in ((4, 0b111), (8, 0b1011)):  # z^2+z+1, z^3+z+1 over Z_2
        f = Ring.field(q)
        for x in range(q):
            assert f.add_table[x].tolist() == [x ^ y for y in range(q)]
            assert f.mul_table[x].tolist() == [_reference_gf2k(x, y, poly) for y in range(q)]
            assert f.neg(x) == x


@pytest.mark.parametrize("q", [0, 1, 6, 9, 16, 91, 125])
def test_field_rejects_orders_without_a_field_here(q):
    with pytest.raises(RingError):
        Ring.field(q)


@pytest.mark.parametrize("q, name", [(2, "Z_2"), (97, "Z_97"), (4, "GF(4)"), (8, "GF(8)"), (289, "GF(289)")])
def test_field_names(q, name):
    assert str(Ring.field(q)) == name
    assert Ring.field(q) == Ring.field(q)


@pytest.mark.parametrize("q, reducible", [(4, (1, 0, 1)), (8, (1, 1, 1, 1)), (289, (1, 2, 1))])
def test_field_rejects_a_reducible_polynomial(monkeypatch, q, reducible):
    # (z + 1)^2 over Z_2, (z + 1)(z^2 + 1) over Z_2 and (z + 1)^2 over Z_17
    monkeypatch.setitem(algebra.REDUCTION_POLYNOMIALS, q, reducible)
    with pytest.raises(RingError, match="root"):
        Ring.field(q)
