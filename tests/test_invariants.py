"""Cross-module property tests tying towers, subgroup intersections,
generated graphs, singular loci, census bounds and the prime-only
kernels together."""

from fractions import Fraction

import pytest

from kll.fpgroups import (Presentation, SubgroupTable, d_p,
                          reidemeister_schreier, cyclic_quotient_table,
                          intersection_table)
from kll.numfield import NumberField, split_prime
from kll.quatalg import hilbert_symbol_qp
from kll.trivalent import generate_connected_trivalent
from kll.orbifold import LocusEdge, SingularLocus, stratify
from kll.counting import sl2_group_table, subgroup_census, s_n


def test_intersection_tower_keeps_linear_growth():
    # towers {G_i} with positive d_p/index keep it after intersecting with
    # a fixed finite-index normal subgroup, on the computed prefix
    star = Presentation.from_strings(["a", "b", "c", "d"],
                                     ["aa", "bb", "cc", "dd"])
    h_table = SubgroupTable(star, ((1, 0),) * 4)   # index-2 normal kernel
    f2 = Presentation.free(2)
    h2 = cyclic_quotient_table(f2, [1, 1], 2)

    for pres, h in ((f2, h2),):
        lam = None
        lam_int = None
        for i in range(1, 6):
            gi = cyclic_quotient_table(pres, [1, 0], i)
            quot = Fraction(d_p(reidemeister_schreier(gi), 2), i)
            lam = quot if lam is None else min(lam, quot)
            inter = intersection_table(gi, h)
            qi = Fraction(d_p(reidemeister_schreier(inter), 2), inter.index)
            lam_int = qi if lam_int is None else min(lam_int, qi)
        assert lam > 0
        assert lam_int > 0


def test_intersection_table_indices():
    f2 = Presentation.free(2)
    t2 = cyclic_quotient_table(f2, [1, 0], 2)
    t3 = cyclic_quotient_table(f2, [1, 0], 3)
    inter = intersection_table(t2, t3)
    assert inter.index == 6
    same = intersection_table(t2, t2)
    assert same.index == 2


def test_generated_graphs_b1_formula():
    gen = generate_connected_trivalent(8)
    for v, graphs in gen.items():
        for g in graphs:
            assert g.b1() == v // 2 + 1


def test_generated_trivalent_as_singular_loci():
    # b1 of a trivalent closed component equals V/2 + 1 in the locus model
    gen = generate_connected_trivalent(6)
    for v, graphs in gen.items():
        for g in graphs:
            vertices = tuple(f"v{i}" for i in range(g.num_vertices))
            edges = tuple(
                LocusEdge(f"e{i}", (f"v{u}", f"v{w}"), 2)
                for i, (u, w) in enumerate(g.edges))
            locus = SingularLocus(vertices, edges)
            comps = locus.components()
            assert len(comps) == 1
            assert comps[0].b1 == v // 2 + 1
            assert comps[0].kind == "trivalent"


def test_subgroup_count_bounded_by_order_pow_rank():
    for m in (2, 3, 4, 5):
        census = subgroup_census(sl2_group_table(m))
        rank = census.rank()
        assert census.count <= census.table.n ** max(rank, 1)
        # and s_n is monotone in n up to the full count
        assert s_n(census, census.table.n) == census.count


@pytest.mark.parametrize("p", [1, 4, -5])
def test_prime_kernels_reject_non_primes(p):
    # each kernel that assumes a prime says so, instead of hanging or
    # printing a verdict for a composite
    circle = SingularLocus(("w",), (LocusEdge("c", ("w", "w"), 2),))
    for kernel in (lambda: split_prime(NumberField((1, 0, 1)), p),
                   lambda: hilbert_symbol_qp(3, 5, p),
                   lambda: stratify(circle, p),
                   lambda: d_p(Presentation.free(2), p)):
        with pytest.raises(ValueError, match=f"p = {p} is not a prime"):
            kernel()
