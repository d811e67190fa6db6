import random

import pytest

from kll.numfield import NumberField, split_prime
from kll.traceorders import Mat2
from kll.fpgroups import Presentation, BudgetExceeded, reidemeister_schreier, d_p
from kll.finquot import (ModRing, closure, sl2_elements, psl2_elements,
                         sl2_order_formula, psl2_order_formula,
                         FiniteMatrixGroup, reduce_mod_prime,
                         product_surjectivity, normalizer_quotient_order,
                         pullback_cover_table, ProductGroup,
                         DenominatorNotCoprime, RelatorViolated)

S5, T5 = (0, 4, 1, 0), (1, 1, 0, 1)
S7, T7 = (0, 6, 1, 0), (1, 1, 0, 1)
A1, B1 = (0, 4, 1, 0), (2, 0, 0, 3)   # commuting involutions in PSL(2,5)
A2, B2 = (0, 6, 1, 0), (2, 3, 3, 5)   # commuting involutions in PSL(2,7)


def test_sl2_psl2_orders_small_primes():
    for p in (3, 5, 7, 11, 13):
        ring = ModRing(p)
        assert len(closure(ring, [(0, p - 1, 1, 0), (1, 1, 0, 1)])) == \
            sl2_order_formula(p)
        assert len(closure(ring, [(0, p - 1, 1, 0), (1, 1, 0, 1)],
                           projective=True)) == psl2_order_formula(p)


def test_sl2_elements_by_scan():
    ring = ModRing(3)
    assert len(sl2_elements(ring)) == 24
    assert len(psl2_elements(ring)) == 12
    ring5 = ModRing(5)
    assert len(sl2_elements(ring5)) == 120


def test_reduce_mod_prime_standard_generators():
    Q = NumberField((0, 1))
    a = Mat2.from_rows(Q, [[1, 1], [0, 1]])
    b = Mat2.from_rows(Q, [[1, 0], [1, 1]])
    prime = split_prime(NumberField((0, 1)), 5)[0] if False else None
    # linear field: build the prime directly
    from kll.numfield import PrimeIdeal
    pr = PrimeIdeal(5, 1, 1, local_factor=(0, 1))
    res = reduce_mod_prime([a, b], pr, compute_order=True)
    assert res.group_order == 120
    assert res.residue_field.q == 5


def test_reduce_mod_prime_identity():
    Q = NumberField((0, 1))
    from kll.numfield import PrimeIdeal
    pr = PrimeIdeal(7, 1, 1, local_factor=(0, 1))
    res = reduce_mod_prime([Mat2.identity(Q)], pr)
    assert res.images == [(1, 0, 0, 1)]


def test_reduce_mod_prime_gaussian_inert_prime():
    # Q(i): 3 is inert with f = 2; images land in SL(2, 9)
    K = NumberField((1, 0, 1))
    i = K.generator()
    pr = split_prime(K, 3)[0]
    assert pr.residue_degree == 2
    m = Mat2.from_rows(K, [[i, 0], [0, i.inverse()]])
    res = reduce_mod_prime([m], pr, compute_order=True)
    assert res.residue_field.q == 9
    assert res.group_order > 1
    # i has order 4, so the image generates a cyclic group of order 4
    assert res.group_order == 4


def test_reduce_mod_prime_denominator_guard():
    from fractions import Fraction
    from kll.numfield import PrimeIdeal
    Q = NumberField((0, 1))
    m = Mat2.from_rows(Q, [[Fraction(1, 5), 0], [0, 5]])
    pr = PrimeIdeal(5, 1, 1, local_factor=(0, 1))
    with pytest.raises(DenominatorNotCoprime):
        reduce_mod_prime([m], pr)


def test_reduce_mod_prime_checks_relators():
    from kll.numfield import PrimeIdeal
    Q = NumberField((0, 1))
    a = Mat2.from_rows(Q, [[1, 1], [0, 1]])
    pres = Presentation.from_strings(["a"], ["aa"])
    pr = PrimeIdeal(5, 1, 1, local_factor=(0, 1))
    with pytest.raises(RelatorViolated):
        reduce_mod_prime([a], pr, presentation=pres)


def test_product_surjectivity_distinct_factors():
    assert product_surjectivity([5, 7], [(S5, S7), (T5, T7)])


def test_product_surjectivity_diagonal_fails():
    assert not product_surjectivity([5, 5], [(S5, S5), (T5, T5)])


def test_product_surjectivity_single_factor():
    assert product_surjectivity([5], [(S5,), (T5,)])


def test_hall_property_random_triples():
    # per-factor surjections onto distinct simple factors are jointly onto
    rng = random.Random(109)
    grp5 = closure(ModRing(5), [S5, T5], projective=True)
    grp7 = closure(ModRing(7), [S7, T7], projective=True)
    els5, els7 = sorted(grp5), sorted(grp7)
    tried = 0
    while tried < 6:
        g5a = rng.choice(els5)
        g7a = rng.choice(els7)
        gens = [(S5, S7), (T5, T7), (g5a, g7a)]
        # the first two already surject each factor
        assert product_surjectivity([5, 7], gens)
        tried += 1


def test_normalizer_quotient_exact():
    rep = normalizer_quotient_order([5, 7], (A1, A2), (B1, B2))
    assert rep.exact
    assert rep.subgroup_order == 4
    assert rep.witness_order == 16
    assert rep.quotient_order >= 4
    assert rep.holds


def test_normalizer_single_factor_trivial_bound():
    rep = normalizer_quotient_order([5], (A1,), (B1,))
    assert rep.bound == 1
    assert rep.holds


def test_normalizer_rejects_degenerate_slot():
    ident = (1, 0, 0, 1)
    with pytest.raises(ValueError):
        normalizer_quotient_order([5, 7], (A1, ident), (B1, B2))


def test_normalizer_budget_fallback_lower_bound():
    rep = normalizer_quotient_order([5, 7], (A1, A2), (B1, B2), budget=5000)
    assert not rep.exact
    assert rep.witness_order == 16
    assert rep.quotient_order >= 4
    assert rep.holds


def test_pullback_cover_table_z2():
    F2 = Presentation.free(2)
    grp = FiniteMatrixGroup.special_linear(2)  # SL(2, Z/2) = S3
    # two order-2 generators of S3; H = <image of a>
    a_img = (0, 1, 1, 0)
    b_img = (1, 1, 0, 1)
    tbl = pullback_cover_table(F2, [a_img, b_img], [(1, 0, 0, 1), a_img],
                               group=grp)
    assert tbl.index == 3  # |S3| / |<a>| = 6/2


def test_pullback_cover_table_psl25_klein_four():
    F2 = Presentation.free(2)
    ring = ModRing(5)
    grp = FiniteMatrixGroup.generated(ring, [S5, T5], projective=True)
    assert grp.order == 60
    # Klein four subgroup of PSL(2,5)
    h = closure(ring, [A1, B1], projective=True)
    assert len(h) == 4
    tbl = pullback_cover_table(F2, [grp.canonical(S5), grp.canonical(T5)],
                               h, group=grp)
    assert tbl.index == 15
    sub = reidemeister_schreier(tbl)
    assert sub.rank() == 15 * (2 - 1) + 1


def test_pullback_whole_group_index1():
    F2 = Presentation.free(2)
    grp = FiniteMatrixGroup.special_linear(2)
    tbl = pullback_cover_table(F2, [(0, 1, 1, 0), (1, 1, 0, 1)],
                               grp.elements, group=grp)
    assert tbl.index == 1


def test_pullback_checks_relators():
    pres = Presentation.from_strings(["a"], ["aaa"])
    grp = FiniteMatrixGroup.special_linear(2)
    with pytest.raises(RelatorViolated):
        pullback_cover_table(pres, [(0, 1, 1, 0)], [(1, 0, 0, 1)], group=grp)


def test_pullback_transitive_and_relators_trivial():
    # SubgroupTable validates transitivity and trivial relator action
    pres = Presentation.from_strings(["a", "b"], ["abab"])
    grp = FiniteMatrixGroup.special_linear(3)
    a_img = (0, 2, 1, 0)   # order 4 in SL(2,3)
    b_img = grp.inverse(a_img)
    tbl = pullback_cover_table(pres, [a_img, b_img], [(1, 0, 0, 1)], group=grp)
    assert tbl.index == 4  # cyclic group generated by a_img


def test_closure_budget():
    with pytest.raises(BudgetExceeded):
        closure(ModRing(13), [(0, 12, 1, 0), (1, 1, 0, 1)], budget=100)
