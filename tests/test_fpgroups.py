import hashlib
import random
from fractions import Fraction
from itertools import islice

import pytest

from kll.fpgroups import (Presentation, SubgroupTable, parse_word,
                          word_to_string, free_reduce, d_p,
                          reidemeister_schreier, low_index_subgroups,
                          cyclic_quotient_table, cyclic_tower,
                          intersection_table, orbit,
                          golod_shafarevich_check, gs_chained_threshold,
                          largeness_conditions, LargenessDatum,
                          NotSurjective, RelatorNotKilled, BudgetExceeded)

from kll.orbifold import OrbifoldData

from exhaustive_bounds import mismatches as gs_margin_mismatches
from oracles import (d_p_from_smith, count_index_le2_subgroups,
                     low_index_by_rescans, surface_subgroup_counts)

F2 = Presentation.free(2)
STAR4 = Presentation.from_strings(["a", "b", "c", "d"],
                                  ["aa", "bb", "cc", "dd"])
GENUS2 = Presentation.from_strings(["a", "b", "c", "d"], ["abABcdCD"])
FIGURE_EIGHT = Presentation.from_strings(["x", "y"], ["yxYXyXyxYx"])


def test_word_parsing_roundtrip():
    w = parse_word("aabAB")
    assert w == (1, 1, 2, -1, -2)
    assert word_to_string(w) == "aabAB"
    assert free_reduce((1, -1, 2)) == (2,)
    assert parse_word("aA") == ()


def test_words_resolve_by_generator_name():
    assert parse_word("yX", ["x", "y"]) == (2, -1)
    for word in ("a", "xz", "x1"):
        with pytest.raises(ValueError, match="is not a generator"):
            parse_word(word, ["x", "y"])


def test_json_roundtrip():
    for p in (Presentation.from_strings(["a", "b"], ["aabAB"]), FIGURE_EIGHT):
        assert Presentation.from_json(p.to_json()) == p
    # words are written in the generator names, not a, b, ...
    assert FIGURE_EIGHT.to_json()["rels"] == ["yxYXyXyxYx"]
    assert repr(FIGURE_EIGHT) == "<x, y | yxYXyXyxYx>"


def test_to_json_refuses_names_that_are_not_letters():
    table = next(t for t in low_index_subgroups(FIGURE_EIGHT, 2) if t.index == 2)
    sub = reidemeister_schreier(table)
    assert "x_1" in sub.generators
    with pytest.raises(ValueError, match="is not a letter a-z"):
        sub.to_json()
    assert repr(sub) == ("<y_0, x_1, y_1 | y_0*x_1*y_1^-1*y_0*y_0*x_1*y_1^-1*x_1, "
                         "y_1*y_0^-1*x_1^-1*y_1*x_1^-1*y_1*y_0^-1>")


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


def test_presentation_rejects_duplicate_generators():
    with pytest.raises(ValueError, match="duplicate"):
        Presentation.from_strings(["a", "a"], ["aa"])
    with pytest.raises(ValueError, match="duplicate"):
        OrbifoldData.from_json({"manifold": {"gens": ["a", "a"], "rels": []},
                                "locus": {"vertices": [], "edges": []}})


def test_reidemeister_schreier_names_are_distinct():
    # generator x1 at coset 12 and x11 at coset 2 must not share a name
    table = cyclic_quotient_table(Presentation.free(30), [1] * 30, 12)
    sub = reidemeister_schreier(table)
    assert len(set(sub.generators)) == sub.rank() == 12 * 29 + 1


def test_rs_transversal_invariance():
    # d_p does not depend on the Schreier transversal: listing the
    # generators (and phi) in another order gives another spanning tree
    gens, rels, phi = ["a", "b", "c"], ["abab", "ccbbbb"], [1, -1, 2]
    pres = Presentation.from_strings(gens, rels)
    other_trees = 0
    for perm in ([1, 0, 2], [2, 1, 0], [2, 0, 1]):
        permuted = Presentation.from_strings([gens[i] for i in perm], rels)
        for idx in (2, 3, 4):
            table = cyclic_quotient_table(pres, phi, idx)
            other = cyclic_quotient_table(permuted, [phi[i] for i in perm], idx)
            subs = reidemeister_schreier(table), reidemeister_schreier(other)
            assert subs[0].rank() == subs[1].rank()
            # the Schreier generators name the edges off the tree
            other_trees += set(subs[0].generators) != set(subs[1].generators)
            for p in (2, 3, 5):
                assert d_p(subs[0], p) == d_p(subs[1], p)
    assert other_trees >= 6


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


@pytest.mark.parametrize("pres, max_index", [
    (F2, 3), (STAR4, 2), (GENUS2, 3), (FIGURE_EIGHT, 7),
    (Presentation.from_strings(["x"], ["xxxxxx"]), 6),
    (Presentation.from_strings(["a", "b"], ["aa", "bbb"]), 6),
    # a one-letter relator fixes its coset before any edge reaches it
    (Presentation.from_strings(["a", "b", "c"], ["c", "abAB"]), 4),
    # a scan starts after its definition's letter: these repeat that
    # letter inside one cycle, by a cancelling pair or by a proper power
    (Presentation.from_strings(["a", "b"], ["abA", "bbb"]), 6),
    (Presentation.from_strings(["a", "b"], ["ababab"]), 5),
], ids=["F2", "star4", "genus2", "figure-eight", "C6", "Z2*Z3", "one-letter",
        "not-cyclically-reduced", "proper-power"])
def test_low_index_matches_rescan_oracle(pres, max_index):
    want, nodes = low_index_by_rescans(pres.rank(), pres.relators, max_index)
    got = low_index_subgroups(pres, max_index, node_budget=nodes)
    assert [t.action for t in got] == want
    # the same search tree: one node fewer is over budget at the last node
    with pytest.raises(BudgetExceeded) as exc:
        low_index_subgroups(pres, max_index, node_budget=nodes - 1)
    assert exc.value.reached == nodes


@pytest.mark.parametrize("pres", [
    Presentation((), ()), Presentation.from_strings(["a"], ["aa"]), F2],
    ids=["no-generators", "C2", "F2"])
@pytest.mark.parametrize("max_index", [0, -3])
def test_low_index_rejects_max_index_below_one(pres, max_index):
    with pytest.raises(ValueError, match=r"max_index must be >= 1"):
        low_index_subgroups(pres, max_index)


def test_low_index_matches_rescan_oracle_on_random_presentations():
    # short random relators: proper powers, one-letter relators and words
    # that are not cyclically reduced all occur
    rng = random.Random(16)
    for _ in range(60):
        ngens = rng.randint(1, 3)
        rels = [tuple(rng.choice([1, -1]) * rng.randint(1, ngens)
                      for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(0, 3))]
        pres = Presentation(tuple("abc"[:ngens]), tuple(rels))
        max_index = rng.randint(1, 5 if ngens < 3 else 4)
        want, nodes = low_index_by_rescans(ngens, pres.relators, max_index)
        got = low_index_subgroups(pres, max_index, node_budget=nodes)
        assert [t.action for t in got] == want, pres


def _table_rows(table):
    """Row c lists c*g and c*g^-1 for each generator g in turn: the order
    in which `low_index_subgroups` fills slots and lists tables."""
    return tuple(tuple(v for perm, inv in zip(table.action, table.inverse)
                       for v in (perm[c], inv[c]))
                 for c in range(table.index))


def test_low_index_surface_counts_match_mednykh():
    subs = low_index_subgroups(GENUS2, 4)
    by_index = [sum(1 for t in subs if t.index == n) for n in range(1, 5)]
    assert by_index == surface_subgroup_counts(2, 4) == [1, 15, 220, 5275]
    assert subs == sorted(subs, key=lambda t: (t.index, _table_rows(t)))


@pytest.mark.parametrize("action", [
    ((0, 2), (0, 1)),  # image out of range
    ((0, 0), (0, 1)),  # repeated image
    ((1, 0), (0,)),    # row of the wrong length
], ids=["out-of-range", "repeated", "wrong-length"])
def test_subgroup_table_rejects_non_permutations(action):
    with pytest.raises(ValueError, match="not a permutation"):
        SubgroupTable(F2, action)


def test_subgroup_table_needs_one_permutation_per_generator():
    for action in (((0,),), ((0,),) * 3):
        with pytest.raises(ValueError, match="one permutation per generator"):
            SubgroupTable(F2, action)


def test_subgroup_table_rejects_intransitive_action():
    with pytest.raises(ValueError, match="not transitive"):
        SubgroupTable(F2, ((1, 0, 2), (0, 1, 2)))


def test_subgroup_table_rejects_index_zero():
    # rows of length 0 are permutations of no cosets
    with pytest.raises(ValueError, match="at least one coset"):
        SubgroupTable(F2, ((), ()))


def test_subgroup_table_rejects_relator_acting_nontrivially():
    # a -> (0 1 2) does not satisfy a^2 = 1
    with pytest.raises(ValueError, match="acts nontrivially"):
        SubgroupTable(Presentation.from_strings(["a"], ["aa"]), ((1, 2, 0),))


def test_subgroup_table_inverse_letters_invert():
    for table in low_index_subgroups(FIGURE_EIGHT, 5):
        for g in (1, 2):
            for c in range(table.index):
                assert table.apply(table.apply(c, g), -g) == c
                assert table.apply(table.apply(c, -g), g) == c


def test_subgroup_table_rejects_letter_zero():
    table = cyclic_quotient_table(F2, [1, 0], 3)
    with pytest.raises(ValueError, match="letter 0"):
        table.apply(0, 0)


def test_orbit_is_breadth_first_from_every_start():
    # Z/12 under +1 and +2 from 0 and 5; the repeated start is skipped
    points = orbit([0, 5, 0], [1, 2], lambda x, m: (x + m) % 12)
    assert list(points) == [0, 5, 1, 2, 6, 7, 3, 4, 8, 9, 10, 11]
    assert list(orbit([], [1], lambda x, m: x + m)) == []


def test_orbit_is_lazy_and_budgeted():
    # a point is yielded when found, so the first `budget` points come
    # out before the next one (here 5, found from 3) passes the budget
    step = lambda x, m: (x + m) % 100
    prefix = islice(orbit([0], [1, 2], step, budget=5), 5)
    assert list(prefix) == [0, 1, 2, 3, 4]
    assert len(list(orbit([0], [1, 2], step))) == 100
    with pytest.raises(BudgetExceeded) as exc:
        list(orbit([0], [1, 2], step, budget=5))
    assert (exc.value.budget, exc.value.limit, exc.value.reached) == \
        ("closure order", 5, 6)


def test_intersection_table_numbering_pinned():
    # cosets are numbered in breadth-first order from (0, 0) under
    # a, a^-1, b, b^-1; value taken at the parent commit
    inter = intersection_table(cyclic_quotient_table(F2, [1, 0], 2),
                               cyclic_quotient_table(F2, [1, 2], 3))
    assert inter.action == ((1, 3, 0, 5, 2, 4), (3, 5, 1, 4, 0, 2))


def test_reidemeister_schreier_genus2_index3_pinned():
    table = [t for t in low_index_subgroups(GENUS2, 3) if t.index == 3][-1]
    assert table.action == ((1, 2, 0), (2, 1, 0), (2, 1, 0), (1, 2, 0))
    sub = reidemeister_schreier(table)
    assert sub.generators == ("b_0", "c_0", "d_0", "a_1", "b_1", "c_1",
                              "d_1", "b_2", "c_2", "d_2")
    assert sub.relators == ((5, -8, 9, 3, -6, -3), (4, 8, -1, 2, 10, -9, -7),
                            (1, -4, -5, 6, 7, -2, -10))
    # the genus-4 surface group: H_1 = Z^8
    assert d_p(sub, 2) == d_p(sub, 3) == 8


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


def test_unkilled_relator_is_named_in_the_generator_names():
    letters = Presentation.from_strings(["x", "y"], ["xYY"])
    with pytest.raises(RelatorNotKilled, match=r"^relator xYY maps to 1$"):
        cyclic_quotient_table(letters, [1, 0], 2)
    # names that are not one letter a-z, as Reidemeister-Schreier gives
    named = Presentation(("b_0", "a_1"), ((1, -2, -2),))
    with pytest.raises(RelatorNotKilled,
                       match=r"^relator b_0\*a_1\^-1\*a_1\^-1 maps to 1$"):
        cyclic_quotient_table(named, [1, 0], 2)


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


def test_gs_chained_threshold_digest_2_to_500():
    # one line "d holds decided margin_lo margin_hi" per d: the digest
    # pins every verdict and every margin end exactly
    lines = []
    for d in range(2, 501):
        r = gs_chained_threshold(d)
        assert type(r.margin_lo) is Fraction and type(r.margin_hi) is Fraction
        lines.append(f"{d} {r.holds} {r.decided} {r.margin_lo} {r.margin_hi}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == ("aad1e6dcf9aef4ebffdde72a7dc907ff"
                      "2c9859d68c21336a5b5a7a987727685e")


def test_gs_chained_threshold_holds_a_decimal_log2_to_500():
    checks, bad = gs_margin_mismatches(500)
    assert (checks, bad) == (499, [])


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


def test_largeness_growth_decided_on_integers():
    # log2(7)/1 = log2(49)/2 exactly: equal, so not increasing
    tie = [LargenessDatum(1, 7, 1), LargenessDatum(2, 98, 2)]
    assert not largeness_conditions(tie).growth_increasing
    # 7^2 < 50: increasing, and the last ratio 50 > 1
    up = [LargenessDatum(1, 7, 1), LargenessDatum(2, 100, 2)]
    assert largeness_conditions(up).growth_increasing
