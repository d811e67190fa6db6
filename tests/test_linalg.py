import random
from fractions import Fraction
from math import gcd

from kll.linalg import char_poly, integer_kernel, mat_mul, rank, rank_modp
from kll.numfield import NumberField
from kll.taugraphs import CosetGraph, _laplacian, char_poly_laplacian
from kll.trivalent import random_connected_trivalent

from oracles import (char_poly_by_interpolation, d_p_from_smith,
                     smith_normal_form)

# monic irreducible polynomials of degree 2..6, constant term first
FIELDS = [(1, 0, 1), (-2, 0, 0, 1), (1, 1, 1, 1, 1), (1, 0, -2, -1, 0, 1),
          (1, -1, -2, 2, -1, -1, 1)]


def _random_matrix(rng, nrows, ncols, bound=3):
    return [[rng.randint(-bound, bound) for _ in range(ncols)]
            for _ in range(nrows)]


def test_char_poly_laplacian_cycles_match_interpolation():
    for n in range(8, 23):
        lap = _laplacian(CosetGraph.cycle(n))
        cp = char_poly_laplacian(CosetGraph.cycle(n))
        assert cp == char_poly_by_interpolation(lap), n
        assert all(type(c) is int for c in cp)


def test_char_poly_laplacian_random_cubic_match_interpolation():
    rng = random.Random(20060117)
    for v in range(8, 19, 2):
        g = random_connected_trivalent(v, rng)
        graph = CosetGraph(v, g.edges)
        assert char_poly_laplacian(graph) == \
            char_poly_by_interpolation(_laplacian(graph)), g.edges


def test_char_poly_multiplication_matrices_match_interpolation():
    rng = random.Random(7)
    for poly in FIELDS:
        k = NumberField(poly)
        for _ in range(4):
            x = k.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           for _ in range(k.degree)])
            cp = x.char_poly()
            # rows are the images x * x^i of the power basis
            rows = [list((x * k.element([0] * i + [1])).coeffs)
                    for i in range(k.degree)]
            assert cp == char_poly_by_interpolation(rows)
            assert all(type(c) is Fraction for c in cp)
            assert x.trace() == -cp[-2]


def test_char_poly_of_empty_and_scalar_matrices():
    assert char_poly([]) == [1]
    assert char_poly([[5]]) == [-5, 1]
    assert char_poly([[2, 0], [0, 2]]) == [4, -4, 1]


def test_rank_matches_smith_form():
    rng = random.Random(11)
    for _ in range(40):
        rows = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ncols = len(rows[0])
        diag = smith_normal_form(rows)
        assert rank(rows, ncols) == sum(1 for d in diag if d)
        for p in (2, 3, 5):
            assert ncols - rank_modp(rows, ncols, p) == \
                d_p_from_smith(rows, ncols, p)


def test_integer_kernel_primitive_and_full():
    rng = random.Random(13)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        rows = _random_matrix(rng, rng.randint(1, 4), ncols, bound=2)
        if rng.random() < 0.3:
            rows.append([a + b for a, b in zip(rows[0], rows[-1])])
        kernel = integer_kernel(rows, ncols)
        assert len(kernel) == ncols - rank(rows, ncols)
        for v in kernel:
            assert all(type(x) is int for x in v)
            assert any(v)
            assert gcd(*v) == 1
            assert mat_mul(rows, [[x] for x in v]) == [[0]] * len(rows)
