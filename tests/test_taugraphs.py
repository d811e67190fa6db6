from fractions import Fraction

import pytest

from kll.fpgroups import Presentation, cyclic_quotient_table
from kll.taugraphs import (CosetGraph, cheeger_exact, cheeger_spectral_bounds,
                           lambda2_enclosure, char_poly_laplacian,
                           tau_family_report, TooLargeForExact, Disconnected)


def test_cycle_formula_3_to_24():
    for n in range(3, 25):
        assert cheeger_exact(CosetGraph.cycle(n)) == Fraction(2, n // 2), n


def test_named_exact_values():
    assert cheeger_exact(CosetGraph.complete(4)) == 2
    assert cheeger_exact(CosetGraph.cycle(4)) == 1
    assert cheeger_exact(CosetGraph.cycle(6)) == Fraction(2, 3)


def test_exact_budget():
    with pytest.raises(TooLargeForExact):
        cheeger_exact(CosetGraph.cycle(30))


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


def test_schreier_graph_regularity():
    # index-n cyclic quotient with k generators gives a 2k-regular graph
    pres = Presentation.free(2)
    for n in (3, 5, 8):
        table = cyclic_quotient_table(pres, [1, 0], n)
        g = CosetGraph.from_subgroup_table(table)
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


def test_family_requires_same_generator_count():
    g1 = CosetGraph.cycle(4)
    g2 = CosetGraph(4, CosetGraph.cycle(4).edges * 2, generator_set_size=2)
    with pytest.raises(ValueError):
        tau_family_report([g1, g2])
