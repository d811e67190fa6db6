"""Exact linear algebra on matrices given as lists of rows.

Every matrix elimination, determinant and characteristic polynomial in
the package lives here.  `char_poly` is Berkowitz's division-free
algorithm on the nonzero entries of each row, so it stays in the ring of
its entries (int in, int out; Fraction in, Fraction out) and a sparse
matrix, such as a graph Laplacian, costs its nonzeros per matrix-vector
step.  `det` is Bareiss' fraction-free elimination on an integer matrix.
`rref` is Gauss-Jordan over any exact field whose elements are falsy
exactly when zero and support `1 / x`: Fraction, and number-field
elements.  `integer_kernel` reads a primitive integer kernel basis off
the rref over Q, and `rank_modp` reduces integers mod p.
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
    where the new row and column are [R a] and [S a].  A is kept as
    the (column, value) pairs of each row's nonzero entries and grows
    by one column per step, so each product A^k S and R A^k S costs
    the nonzeros of A and R; with R = 0 every -R A^k S is 0.
    """
    minor = []  # minor[i]: (column, value) of row i's nonzeros left of r
    coeffs = [1]  # highest degree first
    for r, full in enumerate(matrix):
        row = [(j, x) for j, x in enumerate(full[:r]) if x]
        column = col = [m[r] for m in matrix[:r]]
        toeplitz = [1, -full[r]]
        if row:
            for k in range(r):
                toeplitz.append(-sum([x * col[j] for j, x in row]))
                if k + 1 < r:
                    col = [sum([x * col[j] for j, x in m]) for m in minor]
        else:
            toeplitz += [0] * r
        # new c_i = sum of toeplitz[i - j] c_j over j <= min(i, r)
        coeffs = [sum([t * c for t, c in zip(toeplitz[i::-1], coeffs)])
                  for i in range(r + 2)]
        for m, x in zip(minor, column):
            if x:
                m.append((r, x))
        minor.append(row + [(r, full[r])] if full[r] else row)
    return coeffs[::-1]


def det(matrix):
    """Determinant of a square integer matrix, an integer.

    Bareiss' fraction-free elimination (Math. Comp. 22, 1968): after
    step k every entry below and right of the pivots is a (k+1)-minor
    of the matrix, so dividing by the previous pivot is exact.  Each
    step drops the pivot row and column.  A zero pivot is swapped with
    the first row below it with a nonzero entry in its column, which
    flips the sign; with none the matrix is singular.
    """
    a = list(matrix)  # the rows of the active submatrix; none is modified
    sign, prev = 1, 1
    while len(a) > 1:
        if not a[0][0]:
            swap = next((i for i, row in enumerate(a) if row[0]), None)
            if swap is None:
                return 0
            a[0], a[swap] = a[swap], a[0]
            sign = -sign
        pivot, rest = a[0][0], a[0][1:]
        a = [[(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], rest)]
             for row in a[1:]]
        prev = pivot
    return sign * a[0][0] if a else 1


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
