import random
from fractions import Fraction
from math import gcd

from kll.linalg import char_poly, det, integer_kernel, mat_mul, rank, rank_modp
from kll.numfield import NumberField
from kll.taugraphs import CosetGraph, _laplacian, char_poly_laplacian
from kll.trivalent import random_connected_trivalent

from oracles import (_det_by_elimination, char_poly_by_interpolation,
                     d_p_from_smith, smith_normal_form)

# monic irreducible polynomials of degree 2..6, constant term first
FIELDS = [(1, 0, 1), (-2, 0, 0, 1), (1, 1, 1, 1, 1), (1, 0, -2, -1, 0, 1),
          (1, -1, -2, 2, -1, -1, 1)]


def _random_matrix(rng, nrows, ncols, bound=3):
    return [[rng.randint(-bound, bound) for _ in range(ncols)]
            for _ in range(nrows)]


def _random_sparse(rng, n, density, bound=4):
    return [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(n)] for _ in range(n)]


def test_det_matches_elimination():
    # sizes 0-9, dense and sparse; every third with a zero leading pivot,
    # every fourth made singular by a dependent last row
    rng = random.Random(17)
    singular = swapped = 0
    for t in range(400):
        n = t % 10
        rows = _random_sparse(rng, n, rng.choice((1, 0.5, 0.2)))
        if n > 1 and t % 3 == 0:
            rows[0][0] = 0
        if n > 2 and t % 4 == 1:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        d = det(rows)
        assert type(d) is int and d == _det_by_elimination(rows), rows
        singular += d == 0
        swapped += n > 1 and rows[0][0] == 0 and d != 0
    assert singular >= 100 and swapped >= 30


def test_char_poly_sparse_and_dense_match_interpolation():
    # int in, int out; Fraction in, Fraction out below the leading 1
    rng = random.Random(19)
    for t in range(90):
        n = rng.randint(0, 8)
        rows = _random_sparse(rng, n, (1, 0.4, 0.15)[t % 3])
        kind = Fraction if t % 2 else int
        if kind is Fraction:
            rows = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in rows]
        cp = char_poly(rows)
        assert cp == char_poly_by_interpolation(rows), rows
        assert cp[-1] == 1 and all(type(c) is kind for c in cp[:-1])


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
