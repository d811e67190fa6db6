from functools import cache
from itertools import combinations
import random

import pytest

from exhaustive_census import dickson_differences, per_element_census, report
from oracles import (all_subgroups, burnside_lower_bound, element_order,
                     group_table_by_products, index2_by_members,
                     min_generators_by_search)
from kll.finquot import ModRing, mat_mul, sl2_elements
from kll.fpgroups import BudgetExceeded
from kll.counting import (GroupTable, psl2_group_table, sl2_group_table, sl2_order,
                          subgroup_census, sl2_census, rank_bound_check,
                          dickson_census,
                          essential_subgroups, congruence_kernel,
                          s_n,
                          EXCEPTIONAL_MINIMAL_INDEX_Q)


@cache
def _direct_census(m):
    """The census on the whole SL(2, Z/m) table, built once per module:
    several tests read the slow ones (m = 11, 13)."""
    return subgroup_census(sl2_group_table(m))


def test_sl2_z2_census_is_s3():
    table = sl2_group_table(2)
    assert table.n == 6
    census = subgroup_census(table)
    assert census.count == 6
    assert census.orders() == [1, 2, 2, 2, 3, 6]



@pytest.mark.parametrize("build, m", [
    *((sl2_group_table, m) for m in range(2, 11)), (psl2_group_table, 9)],
    ids=[*(f"SL(2,Z/{m})" for m in range(2, 11)), "PSL(2,Z/9)"])
def test_census_matches_per_element_extension(build, m):
    # covering h g^j h for every generator g^j of <g> skips only
    # extensions that give <h, g> again: order, size, generators and
    # representative of every class are unchanged
    table = build(m)
    assert subgroup_census(table).classes == per_element_census(table).classes


def test_sl2_order_closed_form_matches_table():
    for m in range(2, 13):
        assert sl2_order(m) == sl2_group_table(m).n, m


def test_sl2_z3_census():
    census = _direct_census(3)
    assert census.count == 15
    assert rank_bound_check(census).holds


def test_sl2_z4_census_rank3():
    census = _direct_census(4)
    rep = rank_bound_check(census)
    assert rep.rank == 3 and rep.holds


def test_sl2_z5_census():
    census = _direct_census(5)
    assert census.count == 76
    assert rank_bound_check(census).holds


def test_minus_identity_is_the_only_involution():
    # the hypothesis behind lifting PSL(2, Z/p^k) censuses to SL
    for m in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27):
        ring, one = ModRing(m), (1, 0, 0, 1)
        involutions = [g for g in sl2_elements(ring)
                       if g != one and mat_mul(ring, g, g) == one]
        assert involutions == [(m - 1, 0, 0, m - 1)], m


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
def test_lifted_census_matches_direct_census(m):
    # count, orders, s_n at each divisor, index 2, rank and essentials;
    # tests/exhaustive_census.py runs the same check at m = 17 and 19
    lifted, direct = sl2_census(m), _direct_census(m)
    assert lifted.projective and 2 * lifted.table.n == direct.order
    assert report(m, lifted) == report(m, direct)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_dickson_classes_match_census(p):
    # class by class: each witness closes, by plain BFS, to a subgroup of
    # its order in a census class of its size, one census class each;
    # the (order, size) multiset, s_n, rank and essentials agree too
    assert dickson_differences(p, sl2_census(p)) == []


def test_dickson_class_totals():
    # PSL(2, p) classes and subgroups, as the census counts them (CI runs
    # tests/exhaustive_census.py --dickson 17 19 23 class by class)
    for p, classes, subgroups in ((17, 22, 2420), (19, 19, 2912),
                                  (23, 23, 5915)):
        quotient = dickson_census(p).quotient
        assert (len(quotient.classes),
                sum(c.size for c in quotient.classes)) == (classes, subgroups)


def _lifted_subgroups(census, sl_table, m):
    """Every subgroup a lifted census stands for, as indices of the
    SL(2, Z/m) table: the preimage of each conjugate of a class's
    image H, or its elements of odd order for an odd-order lift."""
    quotient = census.quotient
    lifts = [(sl_table.index[x], sl_table.index[tuple(-v % m for v in x)])
             for x in census.table.elements]
    out = []
    for c in census.classes:
        conjugates = [h for h, i in quotient.class_of.items()
                      if quotient.classes[i].representative == c.representative]
        assert len(conjugates) == c.size
        for h in conjugates:
            sub = [g for x in h for g in lifts[x]]
            if c.order == len(h):
                sub = [g for g in sub if element_order(sl_table, g) % 2]
            assert len(sub) == c.order
            out.append(frozenset(sub))
    return out


def test_lifted_classes_are_all_subgroups():
    for m in (3, 5, 7):
        table = sl2_group_table(m)
        subs = _lifted_subgroups(sl2_census(m), table, m)
        assert len(subs) == len(set(subs))
        assert set(subs) == all_subgroups(table), m


def test_sl2_census_takes_the_direct_path_off_odd_prime_powers():
    for m in (2, 6, 8):
        census = sl2_census(m)
        assert not census.projective and census.table.n == sl2_order(m)


def test_sl2_census_budget_is_on_sl_order():
    # PSL(2, 5) has order 60, but the cap is on |SL(2, 5)| = 120
    with pytest.raises(BudgetExceeded) as exc:
        sl2_census(5, budget=60)
    assert (exc.value.budget, exc.value.limit, exc.value.reached) == \
        ("census order", 60, 120)
    assert sl2_census(5, budget=120).count == 76


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
    census = _direct_census(7)
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


def _elementary_abelian(k):
    """(Z/2)^k under XOR, a k-dimensional F_2-space: d = k."""
    return GroupTable(range(2 ** k), lambda a, b: a ^ b)


def test_class_generators_close_to_representative():
    tables = [_elementary_abelian(3)]
    tables += [sl2_group_table(m) for m in (4, 5, 6)]
    for table in tables:
        for c in subgroup_census(table).classes:
            assert table.closure(c.generators) == c.representative


def test_class_generators_are_minimal():
    # each class is stored with d(H) generators (counting module
    # docstring), against an exhaustive search for d(H)
    censuses = [subgroup_census(_elementary_abelian(k)) for k in (3, 5)]
    censuses += [_direct_census(m) for m in range(2, 12)]
    for census in censuses:
        for c in census.classes:
            assert len(c.generators) == \
                min_generators_by_search(census.table, c.representative)


def test_burnside_bound_meets_rank():
    # d(H) >= log_p [H : [H, H] H^p] for every class; the bound reaches
    # the rank except on SL(2, 2) = S_3, whose abelianization is C_2
    for m in range(2, 14):
        census = _direct_census(m)
        bounds = [burnside_lower_bound(census.table, c.representative,
                                       c.generators) for c in census.classes]
        assert all(b <= len(c.generators)
                   for b, c in zip(bounds, census.classes)), m
        assert max(bounds) == (1 if m == 2 else census.rank()), m


def test_census_matches_oracle():
    # the oracle closes every subgroup, not one per class, by plain BFS
    for m in range(2, 8):
        table = sl2_group_table(m)
        assert set(subgroup_census(table).class_of) == all_subgroups(table), m


def test_classes_are_conjugacy_classes():
    for m in range(2, 9):
        census = _direct_census(m)
        table = census.table
        assert sum(c.size for c in census.classes) == len(census.class_of)
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
    census = _direct_census(11)
    assert census.count == 766
    assert census.orders().count(120) == 22
    assert essential_subgroups(11, census).minimal_index == 11


def test_sl2_z10_census():
    # C3 x SL(2, 5) is an insoluble proper subgroup
    assert _direct_census(10).count == 818


def test_dickson_binary_icosahedral():
    # Dickson: SL(2, q) contains 2.A5, of order 120, iff q = +-1 mod 10
    for q in (7, 11, 13):
        orders = _direct_census(q).orders()
        assert (120 in orders) == (q % 10 in (1, 9)), q


def test_index2_count_matches_d2():
    for m in (2, 3, 4, 5, 6):
        table = sl2_group_table(m)
        census = subgroup_census(table)
        idx2 = index2_by_members(census)
        assert idx2 == census.of_index(2), m
        assert idx2 == 2 ** table.d2_quotient_rank() - 1, m


def test_lagrange_consistency():
    for m in (2, 3, 4, 5):
        table = sl2_group_table(m)
        census = subgroup_census(table)
        for h in census.class_of:
            assert table.n % len(h) == 0


def test_essential_prime_q5_exceptional():
    census = _direct_census(5)
    rep = essential_subgroups(5, census)
    assert rep.prime_field
    assert rep.minimal_index == 5
    assert rep.exceptional
    assert 5 in EXCEPTIONAL_MINIMAL_INDEX_Q


def test_essential_prime_q7_exceptional():
    census = _direct_census(7)
    rep = essential_subgroups(7, census)
    assert rep.minimal_index == 7
    assert rep.exceptional


def test_essential_q13_nonexceptional():
    census = _direct_census(13)
    rep = essential_subgroups(13, census)
    assert rep.minimal_index == 14 == rep.expected_minimal
    assert not rep.exceptional


def test_essential_composite_m4():
    table = sl2_group_table(4)
    census = subgroup_census(table)
    rep = essential_subgroups(4, census)
    kernel = congruence_kernel(table, 4, 2)
    assert len(kernel) == 8
    for c in rep.essential:
        assert not kernel <= c.representative


def test_projective_congruence_kernel_is_the_image():
    # M(3) in SL(2, Z/9), of order 27, against its image in PSL(2, Z/9)
    sl, psl = sl2_group_table(9), sl2_census(9).table
    image = {psl.index[min(x, tuple(-v % 9 for v in x))]
             for x in map(sl.elements.__getitem__, congruence_kernel(sl, 9, 3))}
    assert len(image) == 27
    assert congruence_kernel(psl, 9, 3, projective=True) == image


def test_s_n_counts():
    census = _direct_census(2)
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
    # no fewer than k elements generate (Z/2)^k
    for k in (3, 5):
        whole = frozenset(range(2 ** k))
        assert min_generators_by_search(_elementary_abelian(k), whole) == k


def test_sl2_z8_rank4_certified():
    census = _direct_census(8)
    assert census.count == 673
    rep = rank_bound_check(census)
    assert (rep.rank, rep.bound, rep.holds) == (4, 3, False)
    table = census.table
    top = [h for h in census.class_of
           if min_generators_by_search(table, h) == 4]
    assert sorted(len(h) for h in top) == [16, 32, 32, 32]
    assert all(len(census.classes[census.class_of[h]].generators) == 4
               for h in top)
    for h in top:  # by brute force: no triple generates, a quadruple does
        assert all(table.closure(t) != h for t in combinations(sorted(h), 3))
        assert any(table.closure(q) == h for q in combinations(sorted(h), 4))

