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
"""

from array import array
from dataclasses import dataclass, field as dc_field, replace
from operator import itemgetter
import random

from .fpgroups import BudgetExceeded
from .finquot import ModRing, sl2_elements, psl2_elements, mat_mul, proj_canonical
from .polys import _prime_factors_int, is_prime


CENSUS_ORDER_BUDGET = 10 ** 4
GENERATOR_SEARCH_BUDGET = 512  # largest |H| searched exhaustively for d(H)
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

    def order_of(self, i):
        k = 1
        acc = i
        while acc != self.identity:
            acc = self.mul(acc, i)
            k += 1
        return k

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
    conjugates, elements that generate the representative, and the
    order of its subgroups (for a lifted class, of the SL(2, Z/m)
    subgroups that the PSL(2, Z/m) representative stands for)."""
    representative: frozenset
    size: int
    generators: tuple
    order: int


@dataclass
class FiniteGroupCensus:
    table: GroupTable
    classes: list   # SubgroupClass, sorted by (order, sorted representative)
    class_of: dict  # every subgroup -> index of its class in `classes`
    _d_cache: dict = dc_field(default_factory=dict)
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

    def min_generators(self, h):
        return _min_generators(self.table, h, self._d_cache)

    def rank(self):
        return max(self.min_generators(c.representative) for c in self.classes)


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
    of PSL(2, Z/p^k) (module docstring).  Each class of `quotient`
    gives the class of its preimages, and an odd-order class also the
    class of its odd-order lifts; both keep its representative H, an
    image in `table`, and differ in `order`: 2|H| against |H|."""
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
        return 2 * self.table.n

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


def _min_generators(table, h, cache):
    """Exact d(H) by incremental generation search.

    The cyclic test is exact, and seeded random pairs find most
    2-generated subgroups at once.  Otherwise, for |H| at most
    GENERATOR_SEARCH_BUDGET, the search is exhaustive: the subgroups
    generated by k elements of H are the <K, g> with K generated by
    k - 1 of them and g in H, and <K, g> depends only on the coset Kg,
    so k grows from 0 until H itself is reached."""
    if h in cache:
        return cache[h]
    size = len(h)
    if size == 1:
        cache[h] = 0
        return 0
    members = sorted(h)
    for g in members:
        if table.order_of(g) == size:
            cache[h] = 1
            return 1
    rng = random.Random(size * 1009 + members[0])
    tries = min(300, size * size)
    for _ in range(tries):
        a, b = rng.choice(members), rng.choice(members)
        if len(table.closure({a, b})) == size:
            cache[h] = 2
            return 2
    if size > GENERATOR_SEARCH_BUDGET:
        raise BudgetExceeded("generator search size", GENERATOR_SEARCH_BUDGET,
                             size)
    layer = {frozenset([table.identity]): ()}  # subgroup -> generators
    k = 0
    while True:
        k += 1
        grown = {}
        for sub, gens in layer.items():
            covered = set()
            for g in members:
                if g in covered:
                    continue
                covered.update(table.mul(x, g) for x in sub)
                sub_g = table.closure(gens + (g,), sub)
                if sub_g == h:
                    cache[h] = k
                    return k
                grown.setdefault(sub_g, gens + (g,))
        layer = grown


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
    essential: list                # class representatives (images if lifted)
    count: int                     # essential subgroups, all conjugates counted
    minimal_index: int
    prime_field: bool
    expected_minimal: int = None   # q + 1 for prime fields
    exceptional: bool = False


def essential_subgroups(m, census):
    """Subgroups of SL(2, Z/m) containing no congruence kernel M(m')
    for a proper divisor level m' | m, m' != m.  Congruence kernels are
    normal, so being essential is a property of a conjugacy class.  A
    lifted census decides it on the images in its PSL(2, Z/m) table.

    For a prime field F_q the essential subgroups are exactly the
    proper ones, and the classical minimal-index statement (at least
    q + 1, with finitely many exceptional q) is evaluated against the
    hard-coded exceptional set {2, 3, 5, 7, 11}.
    """
    kernels = [congruence_kernel(census.table, m, mp, census.projective)
               for mp in _divisors(m) if mp != m]
    classes = [c for c in census.classes
               if not any(k <= c.representative for k in kernels)]
    essential = [c.representative for c in classes]
    count = sum(c.size for c in classes)
    if not essential:
        return EssentialReport(essential=[], count=0, minimal_index=0,
                               prime_field=is_prime(m))
    min_index = min(census.order // c.order for c in classes)
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

