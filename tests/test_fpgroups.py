import random
from fractions import Fraction

import pytest

from kll.fpgroups import (Presentation, SubgroupTable, parse_word,
                          word_to_string, free_reduce, d_p,
                          reidemeister_schreier, low_index_subgroups,
                          cyclic_quotient_table, cyclic_tower,
                          golod_shafarevich_check, gs_chained_threshold,
                          largeness_conditions, LargenessDatum,
                          NotSurjective, RelatorNotKilled, BudgetExceeded)

from oracles import d_p_from_smith, count_index_le2_subgroups

F2 = Presentation.free(2)
STAR4 = Presentation.from_strings(["a", "b", "c", "d"],
                                  ["aa", "bb", "cc", "dd"])


def test_word_parsing_roundtrip():
    w = parse_word("aabAB")
    assert w == (1, 1, 2, -1, -2)
    assert word_to_string(w) == "aabAB"
    assert free_reduce((1, -1, 2)) == (2,)
    assert parse_word("aA") == ()


def test_json_roundtrip():
    p = Presentation.from_strings(["a", "b"], ["aabAB"])
    assert Presentation.from_json(p.to_json()) == p


def test_d_p_examples():
    assert d_p(F2, 2) == 2
    z2 = Presentation.from_strings(["x"], ["xx"])
    assert d_p(z2, 2) == 1
    assert d_p(z2, 3) == 0
    z4z4 = Presentation.from_strings(["x", "y"], ["xyXY", "xxxx", "yyyy"])
    assert d_p(z4z4, 2) == 2
    assert d_p(z4z4, 3) == 0


def test_d_p_matches_smith_oracle():
    rng = random.Random(83)
    for _ in range(50):
        ngens = rng.randint(1, 4)
        gens = [chr(ord("a") + i) for i in range(ngens)]
        rels = []
        for _ in range(rng.randint(0, 4)):
            w = [rng.choice([g, -g]) for g in
                 [rng.randint(1, ngens) for _ in range(rng.randint(1, 6))]]
            rels.append(tuple(w))
        pres = Presentation(tuple(gens), tuple(rels))
        for p in (2, 3, 5):
            assert d_p(pres, p) == d_p_from_smith(
                pres.abelianized_matrix(), ngens, p)


def test_reidemeister_schreier_free_group_index2():
    table = cyclic_quotient_table(F2, [1, 0], 2)
    sub = reidemeister_schreier(table)
    assert sub.rank() == 3
    assert not sub.relators


def test_reidemeister_schreier_index1_identity():
    table = cyclic_quotient_table(F2, [1, 0], 1)
    sub = reidemeister_schreier(table)
    assert sub.rank() == 2
    assert not sub.relators


def test_reidemeister_schreier_star4_kernel():
    tbl = SubgroupTable(STAR4, ((1, 0),) * 4)
    ker = reidemeister_schreier(tbl)
    assert ker.rank() == 2 * 4 - 2 + 1  # index * |X| - index + 1
    simplified = ker.simplified()
    assert simplified.rank() == 3
    assert not simplified.relators


def test_rs_transversal_invariance():
    # d_p independent of the Schreier transversal strategy
    pres = Presentation.from_strings(["a", "b"], ["abab"])
    for idx in (2, 3, 4):
        table = cyclic_quotient_table(pres, [1, -1], idx)
        for p in (2, 3, 5):
            bfs = d_p(reidemeister_schreier(table, transversal="bfs"), p)
            dfs = d_p(reidemeister_schreier(table, transversal="dfs"), p)
            assert bfs == dfs


def test_low_index_free_group():
    subs = low_index_subgroups(F2, 2)
    assert len(subs) == 4
    assert sorted(s.index for s in subs) == [1, 2, 2, 2]
    # index <= 3: 1 + 3 + 7 subgroups of index exactly 3 in F2 is 13
    subs3 = low_index_subgroups(F2, 3)
    assert sum(1 for s in subs3 if s.index == 3) == 13


def test_low_index_cyclic6():
    c6 = Presentation.from_strings(["x"], ["xxxxxx"])
    subs = low_index_subgroups(c6, 6)
    assert sorted(s.index for s in subs) == [1, 2, 3, 6]


def test_low_index_star4_matches_hom_count():
    subs = low_index_subgroups(STAR4, 2)
    got = len(subs)
    expected = count_index_le2_subgroups(4, STAR4.relators)
    assert got == expected == 16  # 1 + (2^4 - 1)


def test_low_index_index2_count_is_2_pow_d2_minus_1():
    for pres in (F2, STAR4,
                 Presentation.from_strings(["x"], ["xxxxxx"]),
                 Presentation.from_strings(["a", "b"], ["abab"]),
                 Presentation.from_strings(["a", "b"], ["aabb"])):
        subs = low_index_subgroups(pres, 2)
        idx2 = sum(1 for s in subs if s.index == 2)
        assert idx2 == 2 ** d_p(pres, 2) - 1, pres


def test_low_index_free_rank_formula():
    # Nielsen-Schreier: index-n subgroup of F_k is free of rank n(k-1)+1
    for n in (2, 3):
        for table in low_index_subgroups(F2, n):
            if table.index != n:
                continue
            sub = reidemeister_schreier(table)
            assert sub.rank() == n * (2 - 1) + 1
            assert not sub.relators


def test_low_index_budget():
    with pytest.raises(BudgetExceeded) as exc:
        low_index_subgroups(F2, 3, node_budget=5)
    assert (exc.value.budget, exc.value.limit, exc.value.reached) == \
        ("coset-table nodes", 5, 6)
    with pytest.raises(BudgetExceeded) as exc:
        low_index_subgroups(F2, 13)
    assert (exc.value.budget, exc.value.limit, exc.value.reached) == \
        ("max index", 12, 13)


def test_cyclic_tower_free_group():
    levels = cyclic_tower(F2, [1, 0], 3)
    assert [lv.dims[2] for lv in levels] == [2, 3, 4]


def test_cyclic_tower_z2():
    z2 = Presentation.from_strings(["x", "y"], ["xyXY"])
    levels = cyclic_tower(z2, [1, 0], 4)
    assert [lv.dims[2] for lv in levels] == [2, 2, 2, 2]


def test_cyclic_tower_fibred_sample_matches_smith():
    # genus-2-like one-relator presentation with surjection killing the relator
    pres = Presentation.from_strings(["a", "b", "c"], ["abcABC"])
    levels = cyclic_tower(pres, [1, 0, 0], 4, primes=(2, 3))
    for lv, idx in zip(levels, range(1, 5)):
        table = cyclic_quotient_table(pres, [1, 0, 0], idx)
        sub = reidemeister_schreier(table)
        for p in (2, 3):
            assert lv.dims[p] == d_p_from_smith(
                sub.abelianized_matrix(), sub.rank(), p)


def test_cyclic_tower_rejects_bad_phi():
    with pytest.raises(NotSurjective):
        cyclic_tower(F2, [2, 0], 2)
    z2t = Presentation.from_strings(["x"], ["xx"])
    with pytest.raises(RelatorNotKilled):
        cyclic_tower(z2t, [1], 2)


def test_golod_shafarevich_exact():
    res = golod_shafarevich_check(4, 0, 4)
    assert res.holds and res.margin == 4
    res = golod_shafarevich_check(4, 8, 4)
    assert not res.holds and res.margin == -4
    assert golod_shafarevich_check(6, 3, 2).margin == Fraction(36, 4) - 3 + 2 - 6


def test_gs_chained_threshold_81_80():
    at81 = gs_chained_threshold(81)
    assert at81.holds and at81.decided
    assert at81.margin_lo > 0
    assert at81.margin_hi < Fraction(1, 2)  # small positive margin
    at80 = gs_chained_threshold(80)
    assert not at80.holds and at80.decided
    assert at80.margin_hi < 0


def test_largeness_conditions_tower_style():
    # H_i = G, J_i = G_i (index i), d(J_i/K_i) = d_2(G_i) = i + 1 for F_2
    data = [LargenessDatum(index_h=1, index_j=i, d_quotient=i + 1)
            for i in range(1, 8)]
    rep = largeness_conditions(data)
    assert rep.abelian_ok
    assert rep.growth_increasing
    assert rep.rank_condition_ok
    assert rep.conditions_consistent()


def test_largeness_conditions_constant_d_fails():
    data = [LargenessDatum(index_h=1, index_j=2 ** i, d_quotient=2)
            for i in range(1, 8)]
    rep = largeness_conditions(data)
    assert not rep.rank_condition_ok


def test_largeness_conditions_trivial_growth_fails():
    data = [LargenessDatum(index_h=i, index_j=i, d_quotient=i)
            for i in range(1, 6)]
    rep = largeness_conditions(data)
    assert not rep.growth_increasing
