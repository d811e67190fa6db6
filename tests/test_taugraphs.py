import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest

from kll import polys, taugraphs
from kll.fpgroups import BudgetExceeded, Presentation, cyclic_quotient_table
from kll.taugraphs import (CosetGraph, cheeger_exact,
                           cheeger_spectral_bounds, lambda2_enclosure,
                           char_poly_laplacian, tau_family_report,
                           Disconnected)
from kll.trivalent import random_connected_trivalent

from oracles import (boundary_size, cheeger_by_subsets, fraction_sturm_count,
                     lambda2_by_fraction_sturm)


def test_cycle_formula_3_to_24():
    for n in range(3, 25):
        assert cheeger_exact(CosetGraph.cycle(n)) == Fraction(2, n // 2), n


def test_named_exact_values():
    assert cheeger_exact(CosetGraph.complete(4)) == 2
    assert cheeger_exact(CosetGraph.cycle(4)) == 1
    assert cheeger_exact(CosetGraph.cycle(6)) == Fraction(2, 3)


def test_exact_budget():
    with pytest.raises(BudgetExceeded) as exc:
        cheeger_exact(CosetGraph.cycle(30), budget=100)
    assert (exc.value.budget, exc.value.limit) == ("cheeger sets", 100)


def test_cheeger_constant_keeps_its_minimiser():
    h = cheeger_exact(CosetGraph.cycle(6))
    for kept in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h), copy.copy(h)):
        assert kept == Fraction(2, 3) and kept.minimiser == h.minimiser


def test_search_depth_not_bounded_by_recursion_limit():
    # the C400 search reaches sets of 200 vertices
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        assert cheeger_exact(CosetGraph.cycle(400)) == Fraction(1, 100)
    finally:
        sys.setrecursionlimit(limit)


def test_loops_never_in_boundary():
    # a loop adds degree 2 but no cut edges; h unchanged
    base = CosetGraph.cycle(4)
    looped = CosetGraph(4, base.edges + ((0, 0),))
    assert cheeger_exact(looped) == cheeger_exact(base)


def test_multi_edges_count_in_boundary():
    doubled = CosetGraph(4, CosetGraph.cycle(4).edges * 2)
    assert cheeger_exact(doubled) == 2 * cheeger_exact(CosetGraph.cycle(4))


def test_laplacian_char_poly_k4():
    # K4 Laplacian spectrum: 0, 4, 4, 4
    cp = char_poly_laplacian(CosetGraph.complete(4))
    # p(x) = x (x-4)^3 = x^4 - 12x^3 + 48x^2 - 64x
    assert cp == [0, -64, 48, -12, 1]


def test_lambda2_enclosures():
    lo, hi = lambda2_enclosure(CosetGraph.complete(4))
    assert lo < 4 <= hi or (lo < 4 and hi - 4 < Fraction(1, 2 ** 20))
    assert hi - lo < Fraction(1, 2 ** 29)
    # C6: lambda2 = 2 - 2cos(pi/3) = 1
    lo, hi = lambda2_enclosure(CosetGraph.cycle(6))
    assert lo < 1 <= hi + Fraction(1, 2 ** 20)


def test_spectral_sandwich_on_small_corpus():
    corpus = [CosetGraph.cycle(n) for n in range(3, 21)]
    corpus.append(CosetGraph.complete(4))
    corpus.append(CosetGraph.complete(6))
    for g in corpus:
        h = cheeger_exact(g)
        lo, hi = cheeger_spectral_bounds(g)
        assert lo <= h <= hi, (g.num_vertices, h, lo, hi)


def test_disconnected_rejected():
    two_triangles = CosetGraph(6, ((0, 1), (1, 2), (2, 0),
                                   (3, 4), (4, 5), (5, 3)))
    with pytest.raises(Disconnected):
        cheeger_spectral_bounds(two_triangles)


def _schreier_graph(table):
    """The coset graph of a subgroup table: one edge c -- c*g per coset c
    and generator g."""
    edges = tuple((c, perm[c]) for perm in table.action
                  for c in range(table.index))
    return CosetGraph(table.index, edges, generator_set_size=len(table.action))


def test_schreier_graph_regularity():
    # index-n cyclic quotient with k generators gives a 2k-regular graph
    pres = Presentation.free(2)
    for n in (3, 5, 8):
        table = cyclic_quotient_table(pres, [1, 0], n)
        g = _schreier_graph(table)
        for v in range(g.num_vertices):
            assert g.degree(v) == 4


def test_family_cycles_trend_to_zero():
    fam = tau_family_report([CosetGraph.cycle(n) for n in range(4, 25, 2)])
    assert fam.verdict == "h -> 0 trend"
    assert fam.inf_lower == Fraction(2, 12)


def test_family_constant_positive():
    fam = tau_family_report([CosetGraph.complete(4)] * 4)
    assert fam.verdict == "consistent with (tau) on prefix"
    assert fam.inf_lower == 2


def _psl2_projective_line_graph(p):
    """Schreier graph of SL(2,p) acting on P^1(F_p) with S and T."""
    pts = list(range(p)) + ["inf"]

    def act(m, x):
        a, b, c, d = m
        if x == "inf":
            num, den = a, c
        else:
            num, den = a * x + b, c * x + d
        num %= p
        den %= p
        if den == 0:
            return "inf"
        return (num * pow(den, -1, p)) % p

    idx = {x: i for i, x in enumerate(pts)}
    edges = []
    for m in ((0, p - 1, 1, 0), (1, 1, 0, 1)):
        for x in pts:
            edges.append(tuple(sorted((idx[x], idx[act(m, x)]))))
    return CosetGraph(len(pts), tuple(edges), generator_set_size=2)


def test_projective_line_family_bounded_below():
    graphs = [_psl2_projective_line_graph(p) for p in (5, 7, 11)]
    fam = tau_family_report(graphs)
    assert fam.inf_lower > Fraction(1, 4)
    assert fam.verdict == "consistent with (tau) on prefix"


def test_projective_line_family_exact_to_24_vertices():
    graphs = [_psl2_projective_line_graph(p) for p in (13, 17, 19, 23)]
    fam = tau_family_report(graphs)
    assert fam.values == [(cheeger_exact(g),) * 2 for g in graphs]


def test_family_past_the_exact_budget_keeps_spectral_bounds(monkeypatch):
    graphs = [CosetGraph.cycle(n) for n in (6, 9, 12, 15)]
    monkeypatch.setattr(taugraphs, "EXACT_SET_BUDGET", 3)
    for g in graphs:
        with pytest.raises(BudgetExceeded):
            cheeger_exact(g)
    bounds = [cheeger_spectral_bounds(g) for g in graphs]
    fam = tau_family_report(graphs)
    assert fam.values == bounds
    # the C15 lower bound is the least; the upper bounds shrink to below half
    assert fam.inf_lower == min(lo for lo, _ in bounds) == bounds[-1][0] > 0
    uppers = [hi for _, hi in bounds]
    assert uppers == sorted(uppers, reverse=True) and 2 * uppers[-1] <= uppers[0]
    assert fam.verdict == "h -> 0 trend"


def _random_cubic(v, rng):
    """A cubic multigraph (loops and parallel edges allowed) from a
    random pairing of 3v half-edges."""
    stubs = [x for x in range(v) for _ in range(3)]
    rng.shuffle(stubs)
    return CosetGraph(v, tuple(zip(stubs[::2], stubs[1::2])))


def _random_looped_multigraph(n, rng):
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(n, 3 * n))]
    edges += [(x, x) for x in range(n) if rng.random() < 0.3]
    return CosetGraph(n, tuple(edges))


def _oracle_corpus():
    rng = random.Random(8)
    corpus = [CosetGraph.cycle(n) for n in range(2, 19)]
    corpus += [CosetGraph.complete(n) for n in range(2, 8)]
    corpus.append(CosetGraph(4, CosetGraph.complete(4).edges * 2))
    corpus.append(CosetGraph(6, ((0, 1), (1, 2), (2, 0),
                                 (3, 4), (4, 5), (5, 3))))
    corpus += [_random_looped_multigraph(n, rng) for n in range(2, 15)]
    corpus += [_random_cubic(v, rng) for v in (4, 6, 8, 10, 12, 14, 16, 18)]
    corpus += [_psl2_projective_line_graph(p)
               for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    return corpus


def test_cheeger_matches_subset_oracle_with_witness():
    for g in _oracle_corpus():
        h = cheeger_by_subsets(g)
        exact = cheeger_exact(g)
        assert exact == h, g
        witness = exact.minimiser
        assert list(witness) == sorted(set(witness))
        assert 0 < len(witness) <= g.num_vertices // 2
        assert Fraction(boundary_size(g, witness), len(witness)) == h


def test_spectral_kernels_match_fraction_oracles():
    for g in _oracle_corpus():
        if not g.is_connected():
            continue
        assert lambda2_enclosure(g) == lambda2_by_fraction_sturm(g), g
        cp = char_poly_laplacian(g)
        dmax = g.max_degree()
        for a, b in ((-1, 0), (0, 1), (Fraction(1, 3), Fraction(7, 2)),
                     (1, 2 * dmax), (Fraction(-5, 7), 2 * dmax + 1)):
            assert polys.sturm_count(cp, a, b) == \
                fraction_sturm_count(cp, a, b), (g, a, b)


def test_lambda2_matches_fraction_oracle_on_cycles_complete_and_cubic():
    # cycles: lambda2 = 2 - 2 cos(2 pi / n) has multiplicity 2, so the
    # bisection isolates it as a simple root of the squarefree part
    graphs = [CosetGraph.cycle(n) for n in range(3, 31)]
    graphs += [CosetGraph.complete(n) for n in range(4, 9)]
    rng = random.Random(29)
    graphs += [CosetGraph(v, random_connected_trivalent(v, rng).edges)
               for v in range(2, 21, 2) for _ in range(2)]
    for g in graphs:
        assert lambda2_enclosure(g) == lambda2_by_fraction_sturm(g), g


def test_family_requires_same_generator_count():
    g1 = CosetGraph.cycle(4)
    g2 = CosetGraph(4, CosetGraph.cycle(4).edges * 2, generator_set_size=2)
    with pytest.raises(ValueError):
        tau_family_report([g1, g2])
