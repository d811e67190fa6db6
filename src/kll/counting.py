"""Subgroup censuses of SL(2, Z/m): the subgroup counts s_n,
rank = sup d(H) and the essential subgroups.

The census finds every subgroup, one conjugacy class at a time.  Each
class is grown from its representative R by the one-generator
extensions <R, g>, one g per double coset RgR (`subgroup_census`), and
a new class is stored as its orbit under conjugation by the table's
generators, which gives its size and its members.  This is complete:
every subgroup K is reached from the trivial group by adding its
generators one at a time, and if K_i^x = R then <K_i, g>^x = <R, g^x>
is reached from R.  s_n and the essential subgroups weight each
representative by its class size, and d(H) is a conjugacy invariant,
so the rank runs over representatives.

The census also reads d(H) off its classes: the tuple stored with a
class is as short as any that generates its representative.  It
generates the representative, so it has at least d(H) elements.
Conversely, by induction on k, the class of K = <x_1, ..., x_k> is
stored with at most k elements.  Some conjugate R = <x_1, ...,
x_(k-1)>^c is a representative stored with at most k - 1.  R is
extended once per double coset RgR, and <R, a x_k^c b> = K^c for a, b
in R, so the class of K is stored when R is extended, if not before.
`grown` is worked through first in, first out, so before means from a
representative stored with no more elements than R, and either way
the stored tuple has at most k elements.

For an odd prime power m = p^k the census runs on PSL(2, Z/m), whose
table has a quarter of the entries, and is lifted to SL(2, Z/m)
(`sl2_census`).  -I is the only involution of SL(2, Z/m): g^2 = I and
Cayley-Hamilton g^2 - (tr g) g + I = 0 give (tr g) g = 2I; 2 is a
unit, so tr g is one too and g is a scalar c with c^2 = det g = 1, and
c = +-1 in the cyclic group (Z/m)^*.  So a subgroup of even order
holds an involution (Cauchy), which is -I, and is the preimage H~ of
its image H, while a subgroup of odd order meets {+-I} trivially and
is the odd-order subgroup of index 2 in the preimage of its image.  Hence s(SL) = s(PSL) + s_odd(PSL): each
subgroup H of PSL stands for H~, of order 2|H| and index [PSL : H],
and each H of odd order also for its odd-order lift, of order |H| and
index 2[PSL : H].  Both maps commute with conjugation, so class sizes
carry over.  Ranks carry over too.  If |H| is even, the lifts of
generators of H generate a subgroup L of H~ onto H; an involution of H
lifts to an element of L whose square is -I, so L = H~ and
d(H~) = d(H).  If |H| is odd, H~ = H x C_2, and d(H x C_2) = d(H)
for H != 1 (put -I on a generator of odd order), while d({+-I}) = 1.
The odd-order lift is isomorphic to H.  A congruence kernel M(m') lies
in a lifted subgroup exactly when its image lies in H: for m' > 1 it
is a p-group, so it sits in the odd-order part of any preimage holding
it, and M(1) = SL maps onto PSL, which has even order.

For a prime p >= 5 no census is needed (`dickson_census`): Dickson's
theorem (Linear Groups, 1901; Huppert, Endliche Gruppen I, II.8.27)
lists the subgroups of G = PSL(2, p), of order n = p(p^2 - 1)/2, up to
conjugacy.  Let t be (p - 1)/2 or (p + 1)/2, the order of a split or a
non-split torus T; N(T) is dihedral of order 2t, and the centraliser
of an element of order d > 2 in T is T.  The classes, with their sizes
[G : N(H)], are:
- 1 and G, one class each;
- C_d for each d > 1 dividing t: one class of n/2t, since N(C_d) =
  N(T), and for d = 2 the normaliser of an involution is the N(T) of
  the torus of even order that holds it;
- C_p: one class of p + 1, normalised by the Borel subgroup, of order
  p(p - 1)/2;
- C_p x| C_d for each d > 1 dividing (p - 1)/2: one class of p + 1, the
  Borel subgroup having one subgroup of each order pd;
- D_2d for each d > 2 dividing t: N(T) holds t/d of them over C_d,
  which form one class of n/2d when t/d is odd, and two classes of n/4d
  when t/d is even (then N(D_2d) = D_4d);
- the Klein four V and A_4: one class each of n/12 when p = +-3 mod 8,
  two of n/24 when p = +-1 mod 8, where N(V) = N(A_4) = S_4;
- S_4 when p = +-1 mod 8, and A_5 when p = +-1 mod 10: two
  self-normalising classes each, of n/24 and n/60.
A family of two classes is one class of PGL(2, p) split in two, so the
second is the first conjugated by diag(nu, 1), nu a non-square.

Each class carries a generating tuple, checked without enumerating G.
V, A_4, S_4 and A_5 are closed (`finquot.closure`, at most 60
elements).  Every other check reads element orders off traces and
tests the one relation of its family: a torus element r of order d > 2
and an involution w with w r w^-1 = r^-1 generate D_2d (w is not in
<r>, which would make r = r^-1), and a transvection u with a diagonal
h of order d such that h u h^-1 lies in <u> generate <u> x| <h>, of
order pd.  G is generated by the images of S = [[0, -1], [1, 0]] and
T = [[1, 1], [0, 1]], as SL(2, p) is by its elementary matrices.  A
tuple has one entry for a cyclic group and two for every other family,
none of which is cyclic, so each tuple has d(H) entries and the rank
is 2, reached by V.  G is simple, so it has no subgroup of index 2 and
d_2 = 0.  The classes lift to SL(2, p) by the rule above.
"""

from array import array
from dataclasses import dataclass, field as dc_field, replace
from operator import itemgetter

from .fpgroups import BudgetExceeded
from .finquot import (ModRing, closure, mat_inv_sl, mat_mul, proj_canonical,
                      psl2_elements, sl2_elements)
from .polys import _prime_factors_int, is_prime


CENSUS_ORDER_BUDGET = 10 ** 4
EXCEPTIONAL_MINIMAL_INDEX_Q = (2, 3, 5, 7, 11)  # PSL(2,q) acts on q points


class GroupTable:
    """Finite group via a flat multiplication table on element indices;
    `elements` must form a group under an associative `multiply`.

    Row x is left multiplication by x, so row(x s) = row(x) o row(s):
    each index not yet reached is a generator whose row costs n
    products, and every other row is gathered from a known one."""

    def __init__(self, elements, multiply):
        self.elements = list(elements)
        self.n = n = len(self.elements)
        self.index = index = {e: i for i, e in enumerate(self.elements)}
        # one allocation: growing the table fragments the heap by several MiB
        self.table = buf = array("i", [0]) * (n * n)
        reached = bytearray(n)
        self.generators = []
        gathers = []  # (s, itemgetter(*row(s))) per generator s
        with memoryview(buf) as rows:
            for g, a in enumerate(self.elements):
                if reached[g]:
                    continue
                reached[g] = 1
                buf[g * n:(g + 1) * n] = array(
                    "i", [index[multiply(a, b)] for b in self.elements])
                self.generators.append(g)
                gathers.append((g, itemgetter(*buf[g * n:(g + 1) * n])))
                queue = [x for x in range(n) if reached[x]]
                for x in queue:  # grows as new rows are gathered
                    row_x = rows[x * n:(x + 1) * n]
                    for s, gather in gathers:
                        y = row_x[s]
                        if not reached[y]:
                            reached[y] = 1
                            buf[y * n:(y + 1) * n] = array("i", gather(row_x))
                            queue.append(y)
        self.identity = identity = buf.index(0, 0, n)  # e_0 e = e_0
        self.inverse = [buf.index(identity, i * n, (i + 1) * n) - i * n
                        for i in range(n)]
        self.whole = frozenset(range(n))

    def mul(self, i, j):
        return self.table[i * self.n + j]

    def closure(self, gens, sub=None):
        """Subgroup generated by `gens`, grown from `sub`, a known
        subgroup of it (default trivial), one right coset sub r s at a
        time; in a finite group no inverses are needed.  By Lagrange a
        subgroup holding more than half the group is the whole group,
        so the growth stops there."""
        table, n = self.table, self.n
        sub = sub or (self.identity,)
        offsets = [h * n for h in sub]
        gens = tuple(set(gens))
        seen = set(sub)
        reps = [self.identity]
        for r in reps:  # grows as new cosets are found
            for s in gens:
                y = table[r * n + s]
                if y not in seen:
                    seen.update([table[o + y] for o in offsets])
                    if 2 * len(seen) > n:
                        return self.whole
                    reps.append(y)
        return frozenset(seen)

    def d2_quotient_rank(self):
        """log2 of [G : [G,G] G^2] (the mod-2 abelianization rank).

        G / <squares> is elementary abelian 2-group, so the squares
        alone generate [G,G] G^2; each closure grows from the last."""
        k = frozenset([self.identity])
        chosen = []
        for i in range(self.n):
            if self.mul(i, i) not in k:
                chosen.append(self.mul(i, i))
                k = self.closure(chosen, k)
        quotient = self.n // len(k)
        r = 0
        while quotient % 2 == 0:
            quotient //= 2
            r += 1
        if quotient != 1:
            raise ArithmeticError("mod-2 abelianization is not a 2-group")
        return r


def sl2_order(m):
    """|SL(2, Z/m)| = m^3 prod_{p | m} (1 - p^-2), without the elements."""
    n = m ** 3
    for p in set(_prime_factors_int(m)):
        n = n // (p * p) * (p * p - 1)
    return n


def check_census_order(n, budget=None):
    """BudgetExceeded for a census of a group of order n above `budget`
    (default CENSUS_ORDER_BUDGET)."""
    if budget is None:
        budget = CENSUS_ORDER_BUDGET
    if n > budget:
        raise BudgetExceeded("census order", budget, n)


def sl2_group_table(m):
    ring = ModRing(m)
    els = sl2_elements(ring)
    return GroupTable(els, lambda a, b: mat_mul(ring, a, b))


def psl2_group_table(m):
    """PSL(2, Z/m), each element the least of its matrices +-x."""
    ring = ModRing(m)
    return GroupTable(psl2_elements(ring),
                      lambda a, b: proj_canonical(ring, mat_mul(ring, a, b)))


def sl2_census(m, budget=None):
    """Every subgroup of SL(2, Z/m) up to conjugacy; BudgetExceeded when
    |SL(2, Z/m)| is above `budget` (default CENSUS_ORDER_BUDGET),
    before any table is built.

    For an odd prime power m the census runs on PSL(2, Z/m) and is
    lifted (module docstring); otherwise it runs on SL(2, Z/m)."""
    check_census_order(sl2_order(m), budget)
    primes = set(_prime_factors_int(m))
    if len(primes) != 1 or 2 in primes:
        return subgroup_census(sl2_group_table(m), budget)
    return LiftedCensus(subgroup_census(psl2_group_table(m), budget))


@dataclass
class SubgroupClass:
    """A conjugacy class of subgroups: its representative, its number of
    conjugates, d(H) elements that generate the representative (module
    docstring), and the order of its subgroups (for a lifted class, of
    the SL(2, Z/m) subgroups that the PSL(2, Z/m) representative stands
    for)."""
    representative: frozenset
    size: int
    generators: tuple
    order: int


@dataclass
class FiniteGroupCensus:
    table: GroupTable
    classes: list   # SubgroupClass, sorted by (order, sorted representative)
    class_of: dict  # every subgroup -> index of its class in `classes`
    projective = False  # the table is the censused group itself

    @property
    def order(self):
        return self.table.n

    @property
    def count(self):
        return len(self.class_of)

    def orders(self):
        return sorted(len(h) for h in self.class_of)

    def subgroups_of_index(self, idx):
        return [h for h in self.class_of if self.table.n == idx * len(h)]

    def rank(self):
        """sup d(H): each class's generators are as few as any
        generating tuple's (module docstring)."""
        return max(len(c.generators) for c in self.classes)


def subgroup_census(table, budget=None):
    """Every subgroup of the group, as conjugacy classes of frozensets
    of element indices; BudgetExceeded for a group of order above
    `budget` (default CENSUS_ORDER_BUDGET).

    Each class representative h is extended by one element g per
    double coset hgh: <h, xgy> = <h, g> for x, y in h.  The double
    coset is gathered as the right cosets h r reached from hg by right
    multiplication with the generators of h.  Its least element g is
    the least element of its least right coset, the one that one
    extension per right coset would try first, and the other right
    cosets give the same subgroup again; so the classes, their order,
    representatives and generators are those of that search."""
    check_census_order(table.n, budget)
    n, t = table.n, table.table
    # x -> s^-1 x s for each generator s
    rows = [[t[t[table.inverse[s] * n + x] * n + s] for x in range(n)]
            for s in table.generators]
    trivial = frozenset([table.identity])
    found = {trivial}
    grown = [(trivial, (), [trivial])]  # (representative, generators, orbit)
    for h, base, _ in grown:  # grows as new classes are found
        offsets = [x * n for x in h]
        covered = set(h)
        for g in range(n):
            if g in covered:
                continue
            coset_reps = [g]
            covered.update([t[o + g] for o in offsets])
            for r in coset_reps:  # grows as the double coset hgh fills
                for s in base:
                    y = t[r * n + s]
                    if y not in covered:
                        covered.update([t[o + y] for o in offsets])
                        coset_reps.append(y)
            k = table.closure(base + (g,), h)
            if k not in found:
                orbit = _conjugates(k, rows)
                found.update(orbit)
                grown.append((k, base + (g,), orbit))
    classes, class_of = [], {}
    for h, gens, orbit in sorted(grown, key=lambda c: (len(c[0]), sorted(c[0]))):
        class_of.update(dict.fromkeys(orbit, len(classes)))
        classes.append(SubgroupClass(h, len(orbit), gens, len(h)))
    return FiniteGroupCensus(table=table, classes=classes, class_of=class_of)


@dataclass
class LiftedCensus:
    """The census of SL(2, Z/p^k), p odd, read off `quotient`, a census
    of PSL(2, Z/p^k) (module docstring) or Dickson's classes of
    PSL(2, p).  Each class of `quotient` gives the class of its
    preimages, and an odd-order class also the class of its odd-order
    lifts; both keep its representative H (an image in `table`) or its
    generators, and differ in `order`: 2|H| against |H|."""
    quotient: FiniteGroupCensus
    classes: list = dc_field(init=False)
    projective = True  # the table is the censused group mod {+-I}

    def __post_init__(self):
        self.classes = []
        for c in self.quotient.classes:
            self.classes.append(replace(c, order=2 * c.order))
            if c.order % 2:
                self.classes.append(c)

    @property
    def table(self):
        return self.quotient.table

    @property
    def order(self):
        return 2 * self.quotient.order

    @property
    def count(self):
        return sum(c.size for c in self.classes)

    def orders(self):
        return sorted(c.order for c in self.classes for _ in range(c.size))

    def subgroups_of_index(self, idx):
        """The subgroups of index idx, each given by its image in
        `table`: preimages of the H of index idx, then odd-order lifts
        of the H of odd order and index idx / 2."""
        n, subs = self.table.n, self.quotient.class_of
        return ([h for h in subs if n == idx * len(h)]
                + [h for h in subs if len(h) % 2 and 2 * n == idx * len(h)])

    def rank(self):
        # a lift of H needs d(H) generators, but {+-I}, over H = 1, needs 1
        return max(1, self.quotient.rank())


def _conjugates(h, rows):
    """The conjugacy class of h, as its orbit under the conjugation
    `rows` of a generating set."""
    orbit = [h]
    seen = {h}
    for k in orbit:  # grows as new conjugates are found
        for row in rows:
            c = frozenset(map(row.__getitem__, k))
            if c not in seen:
                seen.add(c)
                orbit.append(c)
    return orbit


# ---------------------------------------------------------------------------
# PSL(2, p) from Dickson's list

@dataclass
class DicksonClass:
    """A conjugacy class of subgroups of PSL(2, p) in Dickson's list:
    its family, the order of its subgroups, its number of conjugates and
    d(H) matrices of SL(2, p) whose images generate one of them."""
    family: str
    order: int
    size: int
    generators: tuple


@dataclass
class DicksonCensus:
    """Every subgroup of PSL(2, p), p >= 5 prime, up to conjugacy, as
    Dickson's classes (module docstring)."""
    p: int
    classes: list

    @property
    def order(self):
        return self.p * (self.p * self.p - 1) // 2

    def rank(self):
        return max(len(c.generators) for c in self.classes)


def _psl_order(g, p):
    """The order of +-g in PSL(2, p), read off traces in O(p) steps.
    t_k = tr g^k obeys t_(k+1) = t_1 t_k - t_(k-1) (Cayley-Hamilton).  If
    t_1 != +-2, g has eigenvalues l != 1/l and g^k = +-I iff l^k = 1/l^k
    iff t_k = +-2; otherwise g is +-I or +-(a transvection), of order p."""
    a, b, c, d = g
    t = (a + d) % p
    if t in (2, p - 2):
        return 1 if b == c == 0 else p
    k, previous, current = 1, 2, t
    while current not in (2, p - 2):
        k, previous, current = k + 1, current, (t * current - previous) % p
    return k


def _power(ring, g, k):
    x = (1, 0, 0, 1)
    for _ in range(k):
        x = mat_mul(ring, x, g)
    return x


def dickson_census(p, budget=None):
    """The census of SL(2, p), p >= 5 prime: Dickson's classes of
    PSL(2, p) (module docstring), each with a checked witness, lifted
    through -I.  No step enumerates the group.  `budget` caps the
    closures that check the Klein four, A_4, S_4 and A_5 witnesses
    (BudgetExceeded "closure order"); ArithmeticError if a witness fails
    its check."""
    ring = ModRing(p)
    n = p * (p * p - 1) // 2
    half = (p - 1) // 2

    def is_square(v):  # Euler's criterion
        return pow(v, half, p) != p - 1

    def sqrt(v):
        return next(y for y in range(p) if (y * y - v) % p == 0)

    nu = next(x for x in range(2, p) if not is_square(x))
    w, u = (0, p - 1, 1, 0), (1, 1, 0, 1)

    def conj(x, g):
        return mat_mul(ring, mat_mul(ring, x, g), mat_inv_sl(ring, x))

    def outer(g):  # conjugation by diag(nu, 1), which is not in PSL(2, p)
        a, b, c, d = g
        return a, b * nu % p, c * pow(nu, -1, p) % p, d

    def symmetric(t):  # [[x, y], [y, t - x]] of determinant 1, inverted by w
        x = next(x for x in range(p) if is_square(x * (t - x) - 1))
        y = sqrt(x * (t - x) - 1)
        return x, y, y, (t - x) % p

    def scalar(x, c):
        return tuple(c * v % p for v in x)

    def add(*xs):
        return tuple(sum(v) % p for v in zip(*xs))

    classes = []

    def keep(family, order, size, gens, holds):
        if not holds:
            raise ArithmeticError(f"the {family} witness of order {order} "
                                  f"fails its check in PSL(2, {p})")
        classes.append(DicksonClass(family, order, size, gens))

    def dihedral(d, size, r, s):
        holds = _psl_order(r, p) == d and _psl_order(s, p) == 2 and \
            proj_canonical(ring, conj(s, r)) == \
            proj_canonical(ring, mat_inv_sl(ring, r))
        keep("dihedral", 2 * d, size, (r, s), holds)

    def closed(family, order, size, gens):
        keep(family, order, size, gens, len(closure(
            ring, gens, projective=True, budget=budget)) == order)

    # the tori: diag(a, 1/a) and a symmetric matrix, generating C_half
    # and C_(half + 1); w inverts both
    split = next(g for g in ((a, 0, 0, pow(a, -1, p)) for a in range(2, p))
                 if _psl_order(g, p) == half)
    nonsplit = symmetric(next(t for t in range(p)
                              if _psl_order((0, p - 1, 1, t), p) == half + 1))
    keep("trivial", 1, 1, (), True)
    for torus, t in ((split, half), (nonsplit, half + 1)):
        for d in _divisors(t)[1:]:
            r = _power(ring, torus, t // d)
            keep("cyclic", d, n // (2 * t), (r,), _psl_order(r, p) == d)
            if d > 2 and t // d % 2:
                dihedral(d, n // (2 * d), r, w)
            elif d > 2:
                dihedral(d, n // (4 * d), r, w)
                dihedral(d, n // (4 * d), outer(r), outer(w))
    keep("cyclic", p, p + 1, (u,), _psl_order(u, p) == p)
    for d in _divisors(half)[1:]:
        h = _power(ring, split, half // d)
        a, _, c, e = conj(h, u)
        keep("borel", p * d, p + 1, (u, h), _psl_order(u, p) == p
             and _psl_order(h, p) == d and (a, c, e) == (1, 0, 1))
    # quaternion units i = w, j, k = ij: i^2 = j^2 = -1 and ij = -ji
    one = (1, 0, 0, 1)
    j = symmetric(0)
    k = mat_mul(ring, w, j)
    inv2 = (p + 1) // 2
    omega = scalar(add(scalar(one, p - 1), w, j, k), inv2)  # order 3
    families = [("klein", 4, (w, j)), ("A4", 12, (w, omega))]
    twice = p % 8 in (1, 7)  # 2 is a square: S_4 exists and normalises V, A_4
    if twice:
        families.append(("S4", 24, (omega, scalar(  # (1 + i)/sqrt 2
            add(one, w), pow(sqrt(2), -1, p)))))
    if p % 10 in (1, 9):
        phi = (1 + sqrt(5)) * inv2 % p  # (i + j/phi + phi k)/2, of order 2
        families.append(("A5", 60, (omega, scalar(add(
            w, scalar(j, phi - 1), scalar(k, phi)), inv2))))
    for family, order, gens in families:
        size = n // max(order, 24 if twice else 12)
        closed(family, order, size, gens)
        if twice or order == 60:
            closed(family, order, size, tuple(map(outer, gens)))
    keep("whole", n, 1, (w, u), True)
    return LiftedCensus(DicksonCensus(p, classes))


@dataclass
class RankBoundReport:
    rank: int
    bound: int
    holds: bool


def rank_bound_check(census, field_degree=1):
    """rank(G) = sup d(H) against 3 * field degree."""
    rank = census.rank()
    bound = 3 * field_degree
    return RankBoundReport(rank=rank, bound=bound, holds=rank <= bound)


# ---------------------------------------------------------------------------
# Congruence levels over Z

def _divisors(m):
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


def congruence_kernel(table, m, m_prime, projective=False):
    """M(m') = ker(SL(2,Z/m) -> SL(2,Z/m')) as a frozenset of indices;
    with `projective`, its image in a PSL(2, Z/m) table, the +-x with
    x = +-I mod m'."""
    units = {(1 % m_prime, 0, 0, 1 % m_prime)}
    if projective:
        units.add((-1 % m_prime, 0, 0, -1 % m_prime))
    return frozenset(i for i, (a, b, c, d) in enumerate(table.elements)
                     if (a % m_prime, b % m_prime, c % m_prime, d % m_prime)
                     in units)


@dataclass
class EssentialReport:
    essential: list                # the essential classes
    count: int                     # essential subgroups, all conjugates counted
    minimal_index: int
    prime_field: bool
    expected_minimal: int = None   # q + 1 for prime fields
    exceptional: bool = False


def essential_subgroups(m, census):
    """Subgroups of SL(2, Z/m) containing no congruence kernel M(m')
    for a proper divisor level m' | m, m' != m.  Congruence kernels are
    normal, so being essential is a property of a conjugacy class.
    M(1) is the whole group; the other kernels are read in the census's
    table (a lifted census decides on the images in its PSL(2, Z/m)
    table).

    For a prime field F_q M(1) is the only such kernel, so the essential
    subgroups are exactly the proper ones and no table is needed; the
    classical minimal-index statement (at least q + 1, with finitely
    many exceptional q) is evaluated against the hard-coded exceptional
    set {2, 3, 5, 7, 11}.
    """
    kernels = [congruence_kernel(census.table, m, mp, census.projective)
               for mp in _divisors(m)[1:-1]]
    essential = [c for c in census.classes if c.order < census.order
                 and not any(k <= c.representative for k in kernels)]
    count = sum(c.size for c in essential)
    if not essential:
        return EssentialReport(essential=[], count=0, minimal_index=0,
                               prime_field=is_prime(m))
    min_index = min(census.order // c.order for c in essential)
    prime_field = is_prime(m)
    expected = m + 1 if prime_field else None
    exceptional = prime_field and m in EXCEPTIONAL_MINIMAL_INDEX_Q
    return EssentialReport(essential=essential, count=count,
                           minimal_index=min_index,
                           prime_field=prime_field,
                           expected_minimal=expected,
                           exceptional=exceptional)


def s_n(census, n):
    """Number of subgroups of index at most n."""
    return sum(c.size for c in census.classes if census.order <= n * c.order)

