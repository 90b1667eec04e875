from __future__ import annotations

import gc
import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from design_forge import algebra, blocks, gdd
from design_forge.algebra import (
    InvalidElementError,
    NotASubgroupError,
    Ring,
    RingError,
    signed_power_subgroup,
    unit_group_coset_partition,
)
from design_forge.blocks import catalog, develop
from design_forge.targets import TargetId


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


def test_a_negative_exponent_is_rejected():
    with pytest.raises(ValueError, match="^exponent must be nonnegative$"):
        Ring.field(97).pow(5, -1)


def test_signed_powers_need_at_least_one_exponent():
    with pytest.raises(ValueError, match="^exponents must be at least 1$"):
        signed_power_subgroup(Ring.field(97), 1, 0)


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


def test_signed_powers_must_be_units():
    # in Z_385 the signed powers of 10 are 8 elements closed under
    # multiplication, {1, 10, 100, 155, 230, 285, 375, 384}, but six of them
    # share the factor 5 with 385
    with pytest.raises(NotASubgroupError, match="not all units"):
        signed_power_subgroup(Ring(385, (0, 1)), 10, 4)


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


def test_arithmetic_caches_no_table_on_the_ring():
    # sums and products are computed on the codes; the one value a Ring
    # caches is its characteristic
    f = Ring.field(289)
    assert f.mul(18, 18) == f.times(18, 18) and f.add(18, 18) == f.plus(18, 18)
    f.times(np.arange(289)[:, None], np.arange(289))
    assert vars(f) == {"order": 289, "polynomial": (1, 3, 1), "characteristic": 17}


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


def _grid(f: Ring) -> tuple[np.ndarray, np.ndarray]:
    # the addition and multiplication tables of f, computed elementwise over
    # the broadcast grid of every code x (rows) and y (columns)
    codes = np.arange(f.order, dtype=np.int32)
    return f.plus(codes[:, None], codes), f.times(codes[:, None], codes)


def test_tables_match_reference_arithmetic():
    for p in (5, 97, 193):
        f = Ring.field(p)
        add, mul = _grid(f)
        for x in range(p):
            assert add[x].tolist() == [(x + y) % p for y in range(p)]
            assert mul[x].tolist() == [(x * y) % p for y in range(p)]
            assert f.neg(x) == -x % p
    g = Ring.field(289)
    add, mul = _grid(g)
    for x in range(289):
        ref = [_reference_gf289(x, y) for y in range(289)]
        assert add[x].tolist() == [s for s, _ in ref]
        assert mul[x].tolist() == [m for _, m in ref]
        assert g.add(x, g.neg(x)) == 0
    for q, poly in ((4, 0b111), (8, 0b1011)):  # z^2+z+1, z^3+z+1 over Z_2
        f = Ring.field(q)
        add, mul = _grid(f)
        for x in range(q):
            assert add[x].tolist() == [x ^ y for y in range(q)]
            assert mul[x].tolist() == [_reference_gf2k(x, y, poly) for y in range(q)]
            assert f.neg(x) == x


def _reference_tables(q: int) -> tuple[list[list[int]], list[list[int]]]:
    # (x + y, x * y) for every x, y, from the scalar references above
    cells = [[(x, y) for y in range(q)] for x in range(q)]
    if q == 289:
        pairs = [[_reference_gf289(x, y) for x, y in row] for row in cells]
        return [[s for s, _ in row] for row in pairs], [[m for _, m in row] for row in pairs]
    if q in (4, 8):
        poly = 0b111 if q == 4 else 0b1011
        return ([[x ^ y for x, y in row] for row in cells],
                [[_reference_gf2k(x, y, poly) for x, y in row] for row in cells])
    return [[(x + y) % q for x, y in row] for row in cells], [[x * y % q for x, y in row] for row in cells]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 17, 97, 193, 289, 503])
def test_tables_are_int32_and_equal_the_reference_arithmetic(q):
    f = Ring.field(q)
    add, mul = _reference_tables(q)
    for table, want in zip(_grid(f), (add, mul)):
        assert table.dtype == np.int32 and table.shape == (q, q)
        assert table.tolist() == want
    # the scalar forms agree with the same grid, and neg with its zeros
    codes = range(q)
    assert [[f.add(x, y) for y in codes] for x in codes] == add
    assert [[f.mul(x, y) for y in codes] for x in codes] == mul
    assert [add[x].index(0) for x in codes] == [f.neg(x) for x in codes]
    assert all(type(f.mul(x, x)) is int and type(f.neg(x)) is int for x in codes)


@pytest.mark.parametrize("order", [97, 193, 289])
def test_developing_a_catalog_block_peaks_with_its_design_not_its_ring(order):
    # peaks of 22, 78 and 114 KB measured (numpy 2.4): the design, 6, 25 and
    # 55 KB of int32, and numpy's broadcasting buffers beside it.  The two
    # order x order int32 tables would add 75, 298 and 668 KB.
    bound = {97: 30e3, 193: 100e3, 289: 150e3}[order]
    for target in TargetId:
        block = catalog()[(target, order)]
        fresh = replace(block, ring=Ring.field(order))  # not the catalog's Ring
        gc.collect()
        tracemalloc.start()
        try:
            develop(fresh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert vars(fresh.ring).keys() == {"order", "polynomial", "characteristic"}


def test_a_prime_field_past_int32_products_multiplies_exactly():
    # 46348^2 is past 2^31; a table here would be 46349^2 int32, 8.6 GB
    f = Ring.field(46349)
    assert f.mul(46348, 46348) == 1 and f.neg(1) == 46348 and f.pow(2, 46348) == 1
    x = np.array([46348, 46347, 2, 0], dtype=np.int32)
    gc.collect()
    tracemalloc.start()
    try:
        product = f.times(x[:, None], x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.dtype == np.int64
    assert product.tolist() == [[int(a) * int(b) % 46349 for b in x] for a in x]
    assert peak < 4000  # 2.4 KB measured


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


def test_the_names_the_benchmark_wraps_stay_where_it_finds_them():
    # bench/spans.py counts these Ring methods through vars(Ring)[name] and
    # spans the functions below by module and name; bench/run.py reads the
    # spans.  A name gone from its place fails `bench/run.py --trace 1`.
    assert all(inspect.isfunction(vars(Ring)[name]) for name in ("add", "sub", "neg", "mul", "pow"))
    assert inspect.isfunction(vars(gdd.IngredientStore)["find"])
    for module, name in ((algebra, "unit_group_coset_partition"), (blocks, "develop"),
                         (gdd, "exact_cover_search")):
        assert inspect.isfunction(vars(module)[name])
        assert vars(module)[name].__module__ == module.__name__
