import random
import re
import time

import pytest

from kll import finquot
from kll.fpgroups import BudgetExceeded
from kll.finquot import (ModRing, closure, sl2_elements, psl2_elements,
                         psl2_order_formula, mat_det, mat_inv_sl, mat_mul,
                         proj_canonical,
                         product_surjectivity, normalizer_quotient_order,
                         hall_onto, ProductGroup, _row_moves)

from exhaustive_closure import equal_pairs, single_factor_lists
from oracles import (closure_by_products, product_closure,
                     product_normalizer_order, psl2_by_scan)

S5, T5 = (0, 4, 1, 0), (1, 1, 0, 1)
S7, T7 = (0, 6, 1, 0), (1, 1, 0, 1)
S11, T11 = (0, 10, 1, 0), (1, 1, 0, 1)
A1, B1 = (0, 4, 1, 0), (2, 0, 0, 3)   # commuting involutions in PSL(2,5)
A2, B2 = (0, 6, 1, 0), (2, 3, 3, 5)   # commuting involutions in PSL(2,7)


def test_prime_field_ops():
    # the matrix maps reduce every entry mod m, whatever their input
    f = ModRing(7)
    assert f.m == 7
    assert mat_mul(f, (3, 0, 0, 5), (5, 0, 0, 3)) == (1, 0, 0, 1)
    assert mat_det(f, (9, 3, 8, 3)) == 3
    assert mat_inv_sl(f, (1, 2, 0, 1)) == (1, 5, 0, 1)
    assert proj_canonical(f, (-1, 9, 0, -8)) == (1, 5, 0, 1)
    with pytest.raises(ValueError):
        ModRing(1)


def test_sl2_psl2_orders_small_primes():
    for p in (3, 5, 7, 11, 13):
        ring = ModRing(p)
        assert len(closure(ring, [(0, p - 1, 1, 0), (1, 1, 0, 1)])) == \
            p * (p * p - 1)
        assert len(closure(ring, [(0, p - 1, 1, 0), (1, 1, 0, 1)],
                           projective=True)) == psl2_order_formula(p)


def _random_sl2(ring, rng):
    while True:
        m = tuple(rng.randrange(ring.m) for _ in range(4))
        if mat_det(ring, m) == 1:
            return m


def _borel(p):
    """Generators of the upper triangular subgroup of SL(2, p): the
    diagonal of a primitive root and the unipotent T."""
    g = next(g for g in range(2, p)
             if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    return [(g, 0, 0, pow(g, -1, p)), (1, 1, 0, 1)]


def _closure_cases():
    rng = random.Random(151)
    for p in (5, 7, 11, 13, 17, 19, 23):
        ring = ModRing(p)
        yield f"Z/{p}-random", ring, [_random_sl2(ring, rng) for _ in range(2)]
        yield f"Z/{p}-borel", ring, _borel(p)
    for m in (8, 9, 12):
        ring = ModRing(m)
        for k in range(3):
            yield f"Z/{m}-random{k}", ring, [_random_sl2(ring, rng)
                                             for _ in range(2)]
    # closures take no inverse moves, so these check that the generators
    # alone reach every inverse: one generator of order p + 1 = 24 (a
    # non-split torus of SL(2, 23)), the identity alone, and three
    # generators of which S T is redundant
    yield "Z/23-order24", ModRing(23), [(0, 1, 22, 3)]
    yield "Z/7-identity", ModRing(7), [(1, 0, 0, 1)]
    yield "Z/11-redundant", ModRing(11), [S11, T11,
                                          mat_mul(ModRing(11), S11, T11)]
    # moduli where some M = -M: every M when m = 2, and entries in
    # {0, m/2} for m = 4, 6 and 10
    for m in (2, 4, 6, 10):
        ring = ModRing(m)
        yield f"Z/{m}-random", ring, [_random_sl2(ring, rng) for _ in range(2)]


@pytest.mark.parametrize("projective", [False, True], ids=["sl", "psl"])
def test_closure_matches_products_oracle(projective):
    for name, ring, gens in _closure_cases():
        assert closure(ring, gens, projective) == \
            closure_by_products(ring, gens, projective), name


def test_closure_of_small_subgroup_over_large_prime():
    # the cost follows |G|, not the p^2 rows of the ring
    p = 100003
    t0 = time.time()
    minus = closure(ModRing(p), [(p - 1, 0, 0, p - 1)])
    swap = closure(ModRing(p), [(0, p - 1, 1, 0)], projective=True)
    assert time.time() - t0 < 0.1
    assert minus == {(1, 0, 0, 1), (p - 1, 0, 0, p - 1)}
    assert swap == {(1, 0, 0, 1), (0, 1, p - 1, 0)}


def test_sl2_elements_by_scan():
    ring = ModRing(3)
    assert len(sl2_elements(ring)) == 24
    assert len(psl2_elements(ring)) == 12
    ring5 = ModRing(5)
    assert len(sl2_elements(ring5)) == 120


def test_product_surjectivity_distinct_factors():
    assert product_surjectivity([5, 7], [(S5, S7), (T5, T7)])


def test_product_surjectivity_diagonal_fails():
    gens = [(S5, S5), (T5, T5)]
    assert not product_surjectivity([5, 5], gens)
    sub = ProductGroup([5, 5]).closure(gens)
    assert sub == product_closure([5, 5], gens) and len(sub) == 60


def test_product_surjectivity_single_factor():
    assert product_surjectivity([5], [(S5,), (T5,)])


def test_hall_property_random_triples():
    # random generator pairs of PSL(2,5)^2: Hall's verdict against the
    # closure, with both verdicts occurring
    rng = random.Random(109)
    els = psl2_by_scan(5)
    verdicts = set()
    for _ in range(6):
        gens = [(rng.choice(els), rng.choice(els)) for _ in range(2)]
        onto = product_surjectivity([5, 5], gens)
        assert onto == (len(product_closure([5, 5], gens)) == 3600)
        verdicts.add(onto)
    assert verdicts == {True, False}


def _twist(m, d, p):
    """diag(d, 1) m diag(d, 1)^-1 mod p, an outer automorphism of
    PSL(2, p) when d is not a square mod p."""
    a, b, c, e = m
    return (a, b * d % p, c * pow(d, -1, p) % p, e)


def test_hall_outer_twisted_diagonal_not_onto():
    gens = [(S5, _twist(S5, 2, 5)), (T5, _twist(T5, 2, 5))]
    assert not hall_onto([5, 5], gens)
    assert not product_surjectivity([5, 5], gens)
    sub = ProductGroup([5, 5]).closure(gens)
    assert sub == product_closure([5, 5], gens) and len(sub) == 60


def test_hall_three_equal_factors():
    st = (0, 6, 1, 6)                     # S7 T7, of order 3
    onto = [(S7, T7, st), (T7, S7, T7)]
    assert hall_onto([7, 7, 7], onto)
    assert product_surjectivity([7, 7, 7], onto)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        pair = [(g[i], g[j]) for g in onto]
        assert len(product_closure([7, 7], pair)) == 168 ** 2
    # slot 3 repeats slot 1 under an outer automorphism
    proper = [(S7, T7, _twist(S7, 3, 7)), (T7, S7, _twist(T7, 3, 7))]
    assert not hall_onto([7, 7, 7], proper)
    assert not product_surjectivity([7, 7, 7], proper)
    assert len(product_closure([7, 7, 7], proper)) == 168 ** 2


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_hall_onto_matches_oracle_single_factor(p):
    # random, Borel, diagonal-with-swap and trace-zero generators and
    # Dickson's witnesses, A_5 at p = 11, 19, 29 and 31 among them
    verdicts = set()
    for gens in single_factor_lists(p, random.Random(p), 3):
        tuples = [(g,) for g in gens]
        onto = hall_onto([p], tuples)
        assert onto == (len(product_closure([p], tuples))
                        == psl2_order_formula(p)), gens
        verdicts.add(onto)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_hall_onto_matches_oracle_equal_pair(p):
    # independent slots and inner and outer twists, with random signs.
    # Both slots are onto, so by Goursat the closure has |S| or |S|^2
    # elements, and from p = 11 the oracle stops once it passes |S|
    order = psl2_order_formula(p)
    limit = order if p >= 11 else None
    verdicts = []
    for gens in equal_pairs(p, random.Random(p), 2):
        found = len(product_closure([p, p], gens, limit))
        verdicts.append(hall_onto([p, p], gens))
        assert verdicts[-1] == (found > order if limit else
                                found == order ** 2), gens
    assert verdicts == [True, False, False] * 2


def _hall_onto_watched(monkeypatch, primes, gens):
    """hall_onto, with each closure checked against Dickson's cap and
    no ProductGroup built."""
    close = finquot.closure

    def capped(ring, generators, projective=False, budget=None):
        cap = max(ring.m + 1, 60)
        assert projective and budget is not None and budget <= cap
        image = close(ring, generators, projective, budget)
        assert len(image) <= cap
        return image

    def refuse(*args, **kwargs):
        raise AssertionError("hall_onto built a ProductGroup")
    monkeypatch.setattr(finquot, "closure", capped)
    monkeypatch.setattr(finquot, "ProductGroup", refuse)
    return hall_onto(primes, gens)


def test_hall_onto_enumerates_no_psl2(monkeypatch):
    s, s2, t = (0, 10006, 1, 0), (0, 10008, 1, 0), (1, 1, 0, 1)
    t0 = time.time()
    assert _hall_onto_watched(monkeypatch, [10007, 10009], [(s, s2), (t, t)])
    assert time.time() - t0 < 1.0
    assert not _hall_onto_watched(monkeypatch, [10007, 10007],
                                  [(s, s), (t, t)])
    assert _hall_onto_watched(monkeypatch, [5, 7, 7],
                              [(S5, S7, T7), (T5, T7, S7)])
    assert not _hall_onto_watched(monkeypatch, [7], [(g,) for g in _borel(7)])


@pytest.mark.parametrize("primes, onto", [
    ([3, 5], True), ([2, 7], True), ([3, 3], False), ([2, 3], True)])
def test_hall_small_factor_takes_closure_path(primes, onto):
    # PSL(2, 2) and PSL(2, 3) are not simple, so Hall's lemma is silent
    gens = [tuple((0, p - 1, 1, 0) for p in primes),
            tuple((1, 1, 0, 1) for p in primes)]
    assert not hall_onto(primes, gens)
    sub = product_closure(primes, gens)
    assert (len(sub) == ProductGroup(primes).order()) is onto
    assert product_surjectivity(primes, gens) is onto
    assert ProductGroup(primes).closure(gens) == sub


def test_product_closure_reduces_unreduced_generators():
    # entries outside 0..p-1, as (-1, 4, -4, 15) = (4, 4, 1, 0) mod 5
    gens = [((-1, 4, -4, 15), S7), (T5, (8, -6, 7, -6))]
    sub = ProductGroup([5, 7]).closure(gens)
    assert sub == product_closure([5, 7], gens)
    assert all(x == tuple(v % p for v in x)
               for g in sub for x, p in zip(g, (5, 7)))


def klein_four(p):
    """Commuting involutions S = (0, -1, 1, 0) and (x, y, y, -x) of
    PSL(2, p), x^2 + y^2 = -1 mod p, spanning a Klein four-group."""
    x, y = next((x, y) for x in range(p) for y in range(p)
                if (x * x + y * y + 1) % p == 0)
    return (0, p - 1, 1, 0), (x, y, y, -x % p)


def _closed_form(primes):
    """4^(n-1) |N(V4)/V4| in PSL(2, p): S4 / V4 when every p = +-1 mod 8,
    else A4 / V4."""
    return 4 ** (len(primes) - 1) * (
        6 if all(p % 8 in (1, 7) for p in primes) else 3)


def test_normalizer_quotient_exact():
    rep = normalizer_quotient_order([5, 7], (A1, A2), (B1, B2))
    assert rep.exact
    assert rep.subgroup_order == 4
    assert rep.witness_order == 16
    assert rep.quotient_order == 12
    assert rep.holds


@pytest.mark.parametrize("primes", [[5, 7], [5, 11], [7, 7], [5, 5]])
def test_normalizer_matches_product_enumeration(primes):
    pairs = [klein_four(p) for p in primes]
    if primes[0] == primes[1]:
        pairs[1] = pairs[1][::-1]         # A and B swap roles in slot 2
    a, b = zip(*pairs)
    n_order, h_order = product_normalizer_order(primes, a, b)
    rep = normalizer_quotient_order(primes, a, b)
    assert (rep.subgroup_order, rep.quotient_order, rep.exact) == \
        (h_order, n_order // h_order, True)


@pytest.mark.parametrize("primes", [
    [5, 7, 11, 13], [5, 7, 11, 13, 17, 19], [7, 17, 23], [3, 7]])
def test_normalizer_matches_closed_form(primes):
    t0 = time.time()
    a, b = zip(*map(klein_four, primes))
    rep = normalizer_quotient_order(primes, a, b)
    assert time.time() - t0 < 1.0
    assert rep.exact and rep.holds
    assert rep.witness_order == 4 ** len(primes)
    assert rep.quotient_order == _closed_form(primes)


def _conjugate(p, x, m):
    """x m x^-1 in PSL(2, p), for any invertible x."""
    ring, (a, b, c, d) = ModRing(p), x
    inv = pow(a * d - b * c, -1, p)
    return mat_mul(ring, mat_mul(ring, x, m),
                   (d * inv, -b * inv, -c * inv, a * inv))


def klein_fours(p):
    """Three Klein fours of PSL(2, p): `klein_four(p)`, its conjugate by
    T, and one from the other conjugacy class when p = +-1 mod 8 (the
    conjugate by diag(nu, 1), nu a non-square), else by S T."""
    a, b = klein_four(p)
    nu = next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)
    third = (nu, 0, 0, 1) if p % 8 in (1, 7) else (0, p - 1, 1, 1)
    return [(a, b)] + [(_conjugate(p, x, a), _conjugate(p, x, b))
                       for x in ((1, 1, 0, 1), third)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_normalizer_closed_form_matches_oracle_single_factor(p):
    for a, b in klein_fours(p):
        n_order, h_order = product_normalizer_order([p], (a,), (b,))
        rep = normalizer_quotient_order([p], (a,), (b,))
        assert (rep.subgroup_order, rep.quotient_order) == \
            (h_order, n_order // h_order), (p, a, b)


def test_normalizer_enumerates_no_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("normalizer_quotient_order enumerated a group")
    monkeypatch.setattr(finquot, "closure", refuse)
    monkeypatch.setattr(finquot, "_row_moves", refuse)
    primes = [10007, 10009]
    a, b = zip(*map(klein_four, primes))
    t0 = time.time()
    rep = normalizer_quotient_order(primes, a, b)
    assert time.time() - t0 < 0.1
    assert (rep.quotient_order, rep.witness_order) == (24, 16)


def test_normalizer_single_factor_trivial_bound():
    rep = normalizer_quotient_order([5], (A1,), (B1,))
    assert rep.bound == 1
    assert rep.holds


def test_normalizer_rejects_degenerate_slot():
    ident = (1, 0, 0, 1)
    with pytest.raises(ValueError):
        normalizer_quotient_order([5, 7], (A1, ident), (B1, B2))


@pytest.mark.parametrize("b2", [(1, 1, 0, 1), (0, 3, 2, 0)],
                         ids=["not-an-involution", "not-commuting"])
def test_normalizer_rejects_non_klein_four(b2):
    with pytest.raises(ValueError, match=re.escape(
            "slot 2: A_2, B_2 are not commuting involutions spanning a "
            "Klein four-group in PSL(2, 7)")):
        normalizer_quotient_order([5, 7], (A1, A2), (B1, b2))


def _pinned_budget(call, budget):
    with pytest.raises(BudgetExceeded) as exc:
        call()
    assert (exc.value.budget, exc.value.limit, exc.value.reached) == \
        ("closure order", budget, budget + 1)


def test_closure_budget():
    # the row stage: SL(2, 13) moves all 168 nonzero rows, so 100 is
    # passed before any element is made
    ring, gens = ModRing(13), [(0, 12, 1, 0), (1, 1, 0, 1)]
    _pinned_budget(lambda: _row_moves(ring, gens, False, 100), 100)
    _pinned_budget(lambda: closure(ring, gens, budget=100), 100)


def test_closure_budget_caps_element_stage():
    # PSL(2, 13) has 84 rows up to sign, within 500 (168 once both signs
    # are numbered), but 1,092 elements
    ring, gens = ModRing(13), [(0, 12, 1, 0), (1, 1, 0, 1)]
    assert len(_row_moves(ring, gens, True, 500)[0]) == 168
    _pinned_budget(lambda: closure(ring, gens, True, budget=500), 500)


def test_product_closure_budget():
    # each factor's rows fit; the 10,080 elements of the product do not
    _pinned_budget(lambda: ProductGroup([5, 7]).closure(
        [(S5, S7), (T5, T7)], budget=1000), 1000)
