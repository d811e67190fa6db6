from fractions import Fraction
from itertools import combinations
import random

import pytest

from oracles import all_subgroups, group_table_by_products
from kll.fpgroups import BudgetExceeded
from kll.towers import TowerRecord
from kll.counting import (GroupTable, sl2_group_table, subgroup_census,
                          rank_bound_check, essential_subgroups,
                          congruence_kernel, level_vs_index_check, s_n,
                          sn_vs_cn_table, _pow2_floor, _min_generators,
                          EXCEPTIONAL_MINIMAL_INDEX_Q)


def test_sl2_z2_census_is_s3():
    table = sl2_group_table(2)
    assert table.n == 6
    census = subgroup_census(table)
    assert census.count == 6
    assert census.orders() == [1, 2, 2, 2, 3, 6]


def test_sl2_z3_census():
    census = subgroup_census(sl2_group_table(3))
    assert census.count == 15
    assert rank_bound_check(census).holds


def test_sl2_z4_census_rank3():
    census = subgroup_census(sl2_group_table(4))
    rep = rank_bound_check(census)
    assert rep.rank == 3 and rep.holds


def test_sl2_z5_census():
    census = subgroup_census(sl2_group_table(5))
    assert census.count == 76
    assert rank_bound_check(census).holds


def test_trivial_group_census():
    table = GroupTable([0], lambda a, b: 0)
    census = subgroup_census(table)
    assert census.count == 1


def _counted(multiply):
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return multiply(a, b)
    return counted, calls


def _sl2_mul(m):
    def mul(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % m, (x[0] * y[1] + x[1] * y[3]) % m,
                (x[2] * y[0] + x[3] * y[2]) % m, (x[2] * y[1] + x[3] * y[3]) % m)
    return mul


def _assert_matches_products(table, multiply):
    expected, identity, inverse = group_table_by_products(table.elements, multiply)
    assert list(table.table) == expected
    assert table.identity == identity
    assert table.inverse == inverse


def test_sl2_table_matches_all_products():
    for m in range(2, 11):
        table = sl2_group_table(m)
        _assert_matches_products(table, _sl2_mul(m))
        assert len(table.generators) == 2, m
        counted, calls = _counted(_sl2_mul(m))
        again = GroupTable(table.elements, counted)
        assert calls[0] <= table.n * len(again.generators), m
        assert again.table == table.table


def test_shuffled_elementary_abelian_table():
    # (Z/2)^4 under XOR in a shuffled order: the identity is not index 0,
    # and each greedy generator doubles the subgroup reached so far
    elements = list(range(16))
    random.Random(4).shuffle(elements)
    assert elements[0] != 0
    counted, calls = _counted(lambda a, b: a ^ b)
    table = GroupTable(elements, counted)
    _assert_matches_products(table, lambda a, b: a ^ b)
    assert table.identity == elements.index(0)
    assert len(table.generators) == 4
    assert calls[0] <= table.n * len(table.generators)
    assert table.closure(table.generators) == frozenset(range(16))


def test_closure_from_known_subgroup():
    census = subgroup_census(sl2_group_table(7))
    table = census.table
    rng = random.Random(7)
    for _ in range(40):
        gens = rng.sample(range(table.n), rng.choice((1, 2, 3)))
        k = table.closure(gens)
        assert k in census.class_of and set(gens) <= k
        assert all(table.mul(a, s) in k for a in k for s in gens)
        below = [h for h in census.class_of if h <= k]
        for sub in rng.sample(below, min(3, len(below))):
            assert table.closure(gens, sub) == k


def test_class_generators_close_to_representative():
    tables = [GroupTable(range(8), lambda a, b: a ^ b)]
    tables += [sl2_group_table(m) for m in (4, 5, 6)]
    for table in tables:
        for c in subgroup_census(table).classes:
            assert table.closure(c.generators) == c.representative


def test_census_matches_oracle():
    # the oracle closes every subgroup, not one per class, by plain BFS
    for m in range(2, 8):
        table = sl2_group_table(m)
        assert set(subgroup_census(table).class_of) == all_subgroups(table), m


def test_classes_are_conjugacy_classes():
    for m in range(2, 9):
        census = subgroup_census(sl2_group_table(m))
        table = census.table
        assert sum(c.size for c in census.classes) == census.count
        for i, c in enumerate(census.classes):
            conjugates = {
                frozenset(table.mul(table.mul(table.inverse[x], h), x)
                          for h in c.representative)
                for x in range(table.n)}
            assert len(conjugates) == c.size, (m, i)
            assert conjugates == {h for h, j in census.class_of.items()
                                  if j == i}, (m, i)


def test_sl2_11_insoluble_subgroups():
    # the 22 subgroups of order 120 are 2.A5, of index 11 = q
    census = subgroup_census(sl2_group_table(11))
    assert census.count == 766
    assert census.orders().count(120) == 22
    assert essential_subgroups(11, census).minimal_index == 11


def test_sl2_z10_census():
    # C3 x SL(2, 5) is an insoluble proper subgroup
    assert subgroup_census(sl2_group_table(10)).count == 818


def test_dickson_binary_icosahedral():
    # Dickson: SL(2, q) contains 2.A5, of order 120, iff q = +-1 mod 10
    for q in (7, 11, 13):
        orders = subgroup_census(sl2_group_table(q)).orders()
        assert (120 in orders) == (q % 10 in (1, 9)), q


def test_index2_count_matches_d2():
    for m in (2, 3, 4, 5, 6):
        table = sl2_group_table(m)
        census = subgroup_census(table)
        idx2 = len(census.subgroups_of_index(2))
        assert idx2 == 2 ** table.d2_quotient_rank() - 1, m


def test_lagrange_consistency():
    for m in (2, 3, 4, 5):
        table = sl2_group_table(m)
        census = subgroup_census(table)
        for h in census.class_of:
            assert table.n % len(h) == 0


def test_essential_prime_q5_exceptional():
    census = subgroup_census(sl2_group_table(5))
    rep = essential_subgroups(5, census)
    assert rep.prime_field
    assert rep.minimal_index == 5
    assert rep.exceptional
    assert 5 in EXCEPTIONAL_MINIMAL_INDEX_Q


def test_essential_prime_q7_exceptional():
    census = subgroup_census(sl2_group_table(7))
    rep = essential_subgroups(7, census)
    assert rep.minimal_index == 7
    assert rep.exceptional


def test_essential_q13_nonexceptional():
    census = subgroup_census(sl2_group_table(13))
    rep = essential_subgroups(13, census)
    assert rep.minimal_index == 14 == rep.expected_minimal
    assert not rep.exceptional


def test_essential_composite_m4():
    table = sl2_group_table(4)
    census = subgroup_census(table)
    rep = essential_subgroups(4, census)
    kernel = congruence_kernel(table, 4, 2)
    assert len(kernel) == 8
    for h in rep.essential:
        assert not kernel <= h


def test_level_vs_index_kernel():
    table = sl2_group_table(4)
    census = subgroup_census(table)
    kernel = congruence_kernel(table, 4, 2)
    rep = level_vs_index_check(kernel, 4, census=census)
    assert rep.level == 2
    assert rep.index == 6
    assert rep.holds
    assert rep.minimal_c == Fraction(2, 6)


def test_level_vs_index_whole_group():
    table = sl2_group_table(4)
    census = subgroup_census(table)
    rep = level_vs_index_check(frozenset(range(table.n)), 4, census=census)
    assert rep.level == 1 and rep.index == 1 and rep.holds


def test_level_vs_index_minimal_essential_q5():
    table = sl2_group_table(5)
    census = subgroup_census(table)
    rep5 = essential_subgroups(5, census)
    biggest = max(rep5.essential, key=len)
    rep = level_vs_index_check(biggest, 5, census=census)
    assert rep.level == 5
    assert rep.holds  # 5 <= 1 * index 5


def test_s_n_counts():
    census = subgroup_census(sl2_group_table(2))
    assert s_n(census, 1) == 1
    assert s_n(census, 2) == 2   # whole group + the order-3 subgroup
    assert s_n(census, 6) == 6


def test_census_budget():
    with pytest.raises(BudgetExceeded) as exc:
        subgroup_census(sl2_group_table(3), budget=10)
    assert (exc.value.budget, exc.value.limit, exc.value.reached) == \
        ("census order", 10, 24)
    assert subgroup_census(sl2_group_table(3), budget=24).count > 0


def test_min_generators_elementary_abelian():
    # (Z/2)^k is a k-dimensional F_2-space: d = k, and no fewer
    # elements generate it
    for k in (3, 5):
        table = GroupTable(range(2 ** k), lambda a, b: a ^ b)
        whole = frozenset(range(2 ** k))
        assert _min_generators(table, whole, {}) == k


def test_sl2_z8_rank4_certified():
    census = subgroup_census(sl2_group_table(8))
    assert census.count == 673
    rep = rank_bound_check(census)
    assert (rep.rank, rep.bound, rep.holds) == (4, 3, False)
    table = census.table
    top = [h for h in census.class_of if census.min_generators(h) == 4]
    assert sorted(len(h) for h in top) == [16, 32, 32, 32]
    for h in top:  # by brute force: no triple generates, a quadruple does
        assert all(table.closure(t) != h for t in combinations(sorted(h), 3))
        assert any(table.closure(q) == h for q in combinations(sorted(h), 4))


def test_pow2_floor():
    assert _pow2_floor(Fraction(3)) == 8
    assert _pow2_floor(Fraction(7, 2)) == 11   # 2^3.5 = 11.31
    assert _pow2_floor(Fraction(0)) == 1
    assert _pow2_floor(Fraction(10, 3)) == 10  # 2^(10/3) = 10.079


def test_sn_vs_cn_table():
    rec = TowerRecord()
    for d in (1, 2, 4, 8):
        rec.add(degree=d, d_p=d)
    censuses = {m: subgroup_census(sl2_group_table(m)) for m in (2, 3, 4, 5)}
    table = sn_vs_cn_table(rec, m_range=(2, 3, 4, 5), censuses=censuses)
    assert table.lam == 1
    rows = {r.n: r for r in table.rows}
    assert rows[1].homology_lower == 1       # 2^1 - 1
    assert rows[8].homology_lower == 255     # 2^8 - 1
    assert rows[8].census_cn == sum(s_n(censuses[m], 8) for m in (2, 3, 4, 5))
    assert table.fitted_b_lo is not None
    # counts grow far slower than 2^n on this range
    assert rows[8].census_cn < 255 * 8


def test_sn_vs_cn_requires_positive_growth():
    rec = TowerRecord()
    rec.add(degree=1, d_p=0)
    with pytest.raises(ValueError):
        sn_vs_cn_table(rec)
