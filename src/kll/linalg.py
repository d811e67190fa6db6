"""Exact linear algebra on matrices given as lists of rows.

Every matrix elimination and characteristic polynomial in the package
lives here.  `char_poly` is Berkowitz's division-free algorithm, so it
stays in the ring of its entries (int in, int out; Fraction in,
Fraction out).  `rref` is Gauss-Jordan over any exact field whose
elements are falsy exactly when zero and support `1 / x`: Fraction,
and number-field elements.  `integer_kernel` reads a primitive integer
kernel basis off the rref over Q, and `rank_modp` reduces integers
mod p.
"""

from fractions import Fraction
from math import lcm


def mat_mul(a, b):
    """Matrix product a * b."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def char_poly(matrix):
    """det(x I - M) for a square matrix M, monic, constant term first.

    Berkowitz (Inf. Proc. Lett. 18, 1984): the coefficient vector of
    the characteristic polynomial of the leading (r+1)-minor is a
    lower-triangular Toeplitz matrix, with first column 1, -a, -R S,
    -R A S, ..., -R A^(r-1) S, times that of the leading r-minor A,
    where the new row and column are [R a] and [S a].
    """
    coeffs = [1]  # highest degree first
    for r in range(len(matrix)):
        minor = [matrix[i][:r] for i in range(r)]
        row = matrix[r][:r]
        col = [matrix[i][r] for i in range(r)]
        toeplitz = [1, -matrix[r][r]]
        for _ in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(row, col)))
            col = [sum(x * y for x, y in zip(m, col)) for m in minor]
        coeffs = [sum(toeplitz[i - j] * coeffs[j]
                      for j in range(max(0, i - r - 1), min(i, r) + 1))
                  for i in range(r + 2)]
    return coeffs[::-1]


def rref(rows, ncols):
    """Reduced row echelon form over a field: (rows, pivot columns).

    Pivot rows are scaled to 1 and come first; the input is not
    modified.
    """
    mat = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        inv = 1 / mat[top][col]
        mat[top] = [v * inv for v in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots


def rank(rows, ncols):
    """Rank over Q of a rational or integer matrix."""
    return len(rref([[Fraction(x) for x in row] for row in rows], ncols)[1])


def integer_kernel(rows, ncols):
    """Primitive integer basis of {v : M v = 0} for an integer matrix,
    one vector per non-pivot column.

    Each rational kernel vector is scaled by the lcm L of its
    denominators.  The result is primitive: the free entry becomes L,
    and for each prime q | L some entry has the full power of q in its
    denominator, so it becomes an integer prime to q.
    """
    mat, pivots = rref([[Fraction(x) for x in row] for row in rows], ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        den = lcm(*(v.denominator for v in vec))
        basis.append([int(v * den) for v in vec])
    return basis


def rank_modp(rows, ncols, p):
    """Gaussian elimination rank over F_p."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(v - f * w) % p for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank
