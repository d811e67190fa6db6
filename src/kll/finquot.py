"""Finite matrix groups SL(2, Z/m) and PSL(2, Z/m), and product
quotients decided from per-factor data.

Matrices are flat tuples (a, b, c, d) of elements of Z/m (`ModRing`,
the integers 0..m-1); the projective canonical representative of M is
min(M, -M).  Orders come from closure enumeration under an explicit
budget, but no verdict on a product of PSL(2, p_i) enumerates a
PSL(2, p), and the Klein-four normalizer enumerates no group at all.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import gcd, prod

from .fpgroups import BudgetExceeded, orbit
from .linalg import rank_modp


class ModRing:
    """Z/m, the ring of every matrix group here (a field exactly when m
    is prime); elements are the integers 0..m-1, reduced `% m` inline."""

    def __init__(self, m):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m

    def __repr__(self):
        return f"Z/{self.m}"


DEFAULT_ORDER_BUDGET = 10 ** 7


def mat_mul(ring, x, y):
    m = ring.m
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m,
            (c * e + d * g) % m, (c * f + d * h) % m)


def mat_det(ring, x):
    a, b, c, d = x
    return (a * d - b * c) % ring.m


def mat_inv_sl(ring, x):
    """Inverse of a determinant-1 matrix (adjugate)."""
    a, b, c, d = x
    return (d, -b % ring.m, -c % ring.m, a)


def proj_canonical(ring, x):
    """The sign class min(M, -M) of x, its entries reduced mod m."""
    m = ring.m
    a, b, c, d = x
    return min((a % m, b % m, c % m, d % m), (-a % m, -b % m, -c % m, -d % m))


def _row_moves(ring, generators, projective, budget):
    """The row numbering behind `closure`: (rows, moves, start), where
    `rows` is the sorted row orbit, move k is the action of the k-th
    generator g_k on pairs of row numbers (`_move`), and `start` is the
    identity pair.  There are no moves for inverses: in a finite group
    g^-1 = g^(ord g - 1), so every orbit under the generators alone is
    already closed under their inverses."""
    m = ring.m
    gens = [tuple(g) for g in generators]
    if any(mat_det(ring, g) != 1 for g in gens):
        raise ValueError("generators must have determinant 1")

    def row_times(r, g):
        x, y = r
        a, b, c, d = g
        return (x * a + y * c) % m, (x * b + y * d) % m

    def row_sign(r):
        return min(r, (-r[0] % m, -r[1] % m)) if projective else r

    found = set()
    for start in ((1, 0), (0, 1)):
        if row_sign(start) not in found:
            found.update(orbit([row_sign(start)], gens,
                               lambda r, g: row_sign(row_times(r, g)), budget))
    if projective:
        found.update([(-x % m, -y % m) for x, y in found])
    rows = sorted(found)
    number = {r: i for i, r in enumerate(rows)}
    # a move sends (i, j) to (first[i], second[i][j]): the images of
    # both rows under g, both negated when that lessens the top row
    negate = [number[(-x % m, -y % m)] for x, y in rows] if projective \
        else range(len(rows))
    moves = []
    for g in gens:
        image = [number[row_times(r, g)] for r in rows]
        negated = [negate[k] for k in image]
        moves.append(([min(k, negate[k]) for k in image],
                      [negated if k > negate[k] else image for k in image]))
    top, bottom = number[(1, 0)], number[(0, 1)]
    return rows, moves, min((top, bottom), (negate[top], negate[bottom]))


def _move(pair, move):
    i, j = pair
    first, second = move
    return first[i], second[i][j]


def closure(ring, generators, projective=False, budget=None):
    """The group that determinant-1 generators span, as a frozenset of
    matrices (their sign classes min(M, -M) with `projective`);
    BudgetExceeded once it passes `budget` elements.

    Right multiplication by g acts on each row of a matrix separately,
    so every row of every element lies in the orbit of an identity row
    (1, 0) or (0, 1), or of its negative when `projective`.  Those row
    orbits are found first, each under `budget` (a row orbit, up to
    sign when `projective`, has at most |G| points), and numbered in
    sorted order, so that each generator becomes one integer map on
    rows (`_row_moves`).  The group is then the orbit of the identity
    pair of row numbers (top, bottom) under the generators alone: in a
    finite group the monoid they span is the group they span.  The
    numbering keeps the order of rows, so min(M, -M) is the sign of M
    with the lesser top row number: r and -r differ unless 2 = 0, and
    then M = -M.  Matrices are assembled only at the end, and the cost
    is O(|G|) for one move per generator, whatever the size of the
    ring.
    """
    if budget is None:
        budget = DEFAULT_ORDER_BUDGET
    rows, moves, start = _row_moves(ring, generators, projective, budget)
    return frozenset(rows[i] + rows[j]
                     for i, j in orbit([start], moves, _move, budget))


def sl2_elements(ring):
    """All of SL(2, Z/m) by direct determinant scan (tiny rings only)."""
    m = ring.m
    return [(a, b, c, d) for a in range(m) for b in range(m)
            for c in range(m) for d in range(m) if (a * d - b * c) % m == 1]


def psl2_elements(ring):
    return sorted({proj_canonical(ring, m) for m in sl2_elements(ring)})


def psl2_order_formula(p):
    return p * (p * p - 1) // gcd(2, p - 1)


# ---------------------------------------------------------------------------
# Products of PSL(2, p_i)

class ProductGroup:
    """Direct product of PSL(2, p_i); elements are tuples of per-factor
    canonical matrices."""

    def __init__(self, primes):
        self.primes = list(primes)
        self.rings = [ModRing(p) for p in self.primes]

    def order(self):
        return prod(psl2_order_formula(p) for p in self.primes)

    def closure(self, generators, budget=None):
        """The subgroup the generators span.  A state is one pair of row
        numbers per factor (`closure`), and each move, one per generator
        and none for its inverse, acts on every factor at once."""
        if budget is None:
            budget = DEFAULT_ORDER_BUDGET
        factors = [_row_moves(ring, [g[k] for g in generators], True, budget)
                   for k, ring in enumerate(self.rings)]
        rows, moves, start = zip(*factors)
        states = orbit([start], list(zip(*moves)),
                       lambda x, move: tuple(map(_move, x, move)), budget)
        return frozenset(tuple(r[i] + r[j] for r, (i, j) in zip(rows, state))
                         for state in states)

    def all_elements(self, budget=None):
        if budget is None:
            budget = DEFAULT_ORDER_BUDGET
        if self.order() > budget:
            raise BudgetExceeded("product order", budget, self.order())
        return list(product(*map(psl2_elements, self.rings)))


def _psl2_onto(p, generators, budget):
    """Do the generators span PSL(2, p), p >= 5?  A proper subgroup of
    PSL(2, p) fixes a point of P^1(F_p), lies in a dihedral group of
    order p - 1 or p + 1, or is A_4, S_4 or A_5 (Dickson, Linear Groups,
    1901; Huppert II.8.27).  So one with no fixed point has at most
    cap = max(p + 1, 60) elements, fewer than |PSL(2, p)| for p >= 7,
    and the generators span PSL(2, p) iff they fix no common point and
    their closure passes cap, or, at p = 5 where cap = |PSL(2, 5)|,
    reaches it.  The closure runs under min(budget, cap); BudgetExceeded
    propagates only when `budget` is the smaller."""
    # a common fixed point: infinity, when every c = 0, or a root z of
    # c z^2 + (d - a) z - b for every (a, b, c, d); all of P^1 for none
    if all(g[2] % p == 0 for g in generators) or any(all(
            (c * z * z + (d - a) * z - b) % p == 0
            for a, b, c, d in generators) for z in range(p)):
        return False
    cap = max(p + 1, 60)
    limit = cap if budget is None else min(budget, cap)
    try:
        image = closure(ModRing(p), generators, projective=True, budget=limit)
    except BudgetExceeded:
        if limit < cap:
            raise
        return True
    return len(image) == psl2_order_formula(p)


def _is_graph(p, pairs):
    """Is the subgroup H of S x S, S = PSL(2, p) with p >= 5, that the
    pairs (a, b) span the graph of an automorphism, given that H maps
    onto both factors?  By Goursat, H is S x S or a graph
    {(s, X s X^-1)}, as Aut(S) is PGL(2, p).  Take the maps Y with
    Y rho_1(h) = rho_2(h) Y, where rho_k(h) = h_k (x) h_k: the same for
    a generator and its sign class, since (-a) (x) (-a) = a (x) a, and
    for the generators and the group they span.  For odd p,
    V (x) V = Sym^2 V + Lambda^2 V, with Sym^2 V absolutely irreducible
    and Lambda^2 V trivial.  For a graph, X (x) X carries rho_1 to
    rho_2, so Schur's lemma leaves one scalar on each summand: dimension
    2.  For S x S, Sym^2 of the first factor is trivial on 1 x S and
    Sym^2 of the second is not, so only the trivial summands meet:
    dimension 1.  So H is a graph iff the 16 unknowns of Y meet
    equations of rank < 15 over F_p.
    """
    def square(g, u, v):  # (g (x) g)[u][v], u = 2i + j and v = 2k + l
        return g[u // 2 * 2 + v // 2] * g[u % 2 * 2 + v % 2]
    # coefficient of Y[u][v] in entry (r, s) of Y (a (x) a) - (b (x) b) Y
    rows = [[(u == r) * square(a, v, s) - (v == s) * square(b, r, u)
             for u in range(4) for v in range(4)]
            for a, b in pairs for r in range(4) for s in range(4)]
    return rank_modp(rows, 16, p) < 15


def hall_onto(primes, generator_tuples, budget=None):
    """True when Hall's lemma proves that the tuples generate all of
    prod PSL(2, p_i), p_i >= 5: a subgroup of a product of nonabelian
    simple groups is everything iff it maps onto each factor and pair of
    factors (P. Hall, The Eulerian functions of a group, 1936).  Each
    factor is decided by Dickson's list (`_psl2_onto`).  A pair of
    distinct p is then onto (Goursat), and a pair of equal p unless it
    is the graph of an automorphism (`_is_graph`).  No PSL(2, p) is
    enumerated.  False for a proper subgroup or when some p < 5.
    """
    if any(p < 5 for p in primes) or not all(
            _psl2_onto(p, [g[i] for g in generator_tuples], budget)
            for i, p in enumerate(primes)):
        return False
    return not any(
        p == q and _is_graph(p, [(g[i], g[j]) for g in generator_tuples])
        for (i, p), (j, q) in combinations(enumerate(primes), 2))


def product_surjectivity(primes, generator_tuples, budget=None):
    """Is the subgroup generated by the tuples the whole product?

    generator_tuples: one tuple of per-factor matrices per generator.
    Enumerates the closure only when `hall_onto` does not prove it onto.
    """
    if hall_onto(primes, generator_tuples, budget):
        return True
    grp = ProductGroup(primes)
    return len(grp.closure(generator_tuples, budget)) == grp.order()


@dataclass
class NormalizerReport:
    subgroup_order: int
    witness_order: int
    quotient_order: int       # |N(H)/H|
    bound: int                # 4^(n-1)
    holds: bool
    exact: bool


def normalizer_quotient_order(primes, a_tuple, b_tuple):
    """Exact |N(H)/H| for H = {1, A, B, AB} inside prod PSL(2, p_i),
    against the lower bound 4^(n-1); each slot must hold a Klein
    four-group V_i = <A_i, B_i>, so the witness prod V_i has order 4^n.

    No group is enumerated.  g normalizes H iff conjugation by g
    permutes {A, B, AB}, and then the permutation sigma is the same in
    every slot.  Slot i realizes sigma iff sigma lies in the image of
    N(V_i) in Sym(V_i - 1) = S_3.  That image is S_3 when N(V_i) = S_4,
    which happens for p = +-1 mod 8, and A_3 when N(V_i) = A_4, which
    happens for p = +-3 mod 8 and for p = 3, where PSL(2, 3) = A_4.
    Each sigma is realized by |C(V_i)| = |V_i| = 4 elements (Dickson
    1901; Huppert II.8.27).  So |N(H)| = 4^n |intersection of the
    images|: 6 * 4^n when every p_i = +-1 mod 8, else 3 * 4^n.
    """
    one = (1, 0, 0, 1)
    for i, (p, x, y) in enumerate(zip(primes, a_tuple, b_tuple, strict=True)):
        ring = ModRing(p)
        x, y = proj_canonical(ring, x), proj_canonical(ring, y)
        xx, yy, xy, yx = (proj_canonical(ring, mat_mul(ring, u, v))
                          for u, v in ((x, x), (y, y), (x, y), (y, x)))
        if one in (x, y, xy) or xx != one or yy != one or xy != yx:
            raise ValueError(f"slot {i + 1}: A_{i + 1}, B_{i + 1} are not "
                             "commuting involutions spanning a Klein "
                             f"four-group in PSL(2, {p})")
    n = len(primes)
    quotient = 4 ** (n - 1) * (6 if all(p % 8 in (1, 7) for p in primes)
                               else 3)
    return NormalizerReport(subgroup_order=4, witness_order=4 ** n,
                            quotient_order=quotient, bound=4 ** (n - 1),
                            holds=quotient >= 4 ** (n - 1), exact=True)
