"""Subgroup growth bookkeeping over Z: censuses of SL(2, Z/m),
rank = sup d(H), essential subgroups and the level-versus-index bound,
and the subgroup-count lower bounds from homology towers.

The census finds every subgroup, one conjugacy class at a time.  Each
class is grown from its representative R by the one-generator
extensions <R, g>, and a new class is stored as its orbit under
conjugation by the table's generators, which gives its size and its
members.  This is complete: every subgroup K is reached from the
trivial group by adding its generators one at a time, and if
K_i^x = R then <K_i, g>^x = <R, g^x> is reached from R.  s_n and the
essential subgroups weight each representative by its class size, and
d(H) is a conjugacy invariant, so the rank runs over representatives.
"""

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import isqrt
from operator import itemgetter
import random

from .dyadic import Enclosure
from .fpgroups import BudgetExceeded
from .finquot import ModRing, sl2_elements, mat_mul
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


@dataclass
class SubgroupClass:
    """A conjugacy class of subgroups: its representative, its number of
    conjugates, and elements that generate the representative."""
    representative: frozenset
    size: int
    generators: tuple


@dataclass
class FiniteGroupCensus:
    table: GroupTable
    classes: list   # SubgroupClass, sorted by (order, sorted representative)
    class_of: dict  # every subgroup -> index of its class in `classes`
    _d_cache: dict = dc_field(default_factory=dict)

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

    Each class representative h is extended by one element g per right
    coset hg, since <h, g> depends only on the coset."""
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
            covered.update([t[o + g] for o in offsets])
            k = table.closure(base + (g,), h)
            if k not in found:
                orbit = _conjugates(k, rows)
                found.update(orbit)
                grown.append((k, base + (g,), orbit))
    classes, class_of = [], {}
    for h, gens, orbit in sorted(grown, key=lambda c: (len(c[0]), sorted(c[0]))):
        class_of.update(dict.fromkeys(orbit, len(classes)))
        classes.append(SubgroupClass(h, len(orbit), gens))
    return FiniteGroupCensus(table=table, classes=classes, class_of=class_of)


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


def congruence_kernel(table, m, m_prime):
    """M(m') = ker(SL(2,Z/m) -> SL(2,Z/m')) as a frozenset of indices."""
    out = set()
    for i, el in enumerate(table.elements):
        a, b, c, d = el
        if (a % m_prime, b % m_prime, c % m_prime, d % m_prime) == \
                (1 % m_prime, 0, 0, 1 % m_prime):
            out.add(i)
    return frozenset(out)


@dataclass
class EssentialReport:
    essential: list                # class representatives
    count: int                     # essential subgroups, all conjugates counted
    minimal_index: int
    prime_field: bool
    expected_minimal: int = None   # q + 1 for prime fields
    exceptional: bool = False


def essential_subgroups(m, census):
    """Subgroups of SL(2, Z/m) containing no congruence kernel M(m')
    for a proper divisor level m' | m, m' != m.  Congruence kernels are
    normal, so being essential is a property of a conjugacy class.

    For a prime field F_q the essential subgroups are exactly the
    proper ones, and the classical minimal-index statement (at least
    q + 1, with finitely many exceptional q) is evaluated against the
    hard-coded exceptional set {2, 3, 5, 7, 11}.
    """
    table = census.table
    kernels = [congruence_kernel(table, m, mp)
               for mp in _divisors(m) if mp != m]
    classes = [c for c in census.classes
               if not any(k <= c.representative for k in kernels)]
    essential = [c.representative for c in classes]
    count = sum(c.size for c in classes)
    if not essential:
        return EssentialReport(essential=[], count=0, minimal_index=0,
                               prime_field=is_prime(m))
    min_index = min(table.n // len(h) for h in essential)
    prime_field = is_prime(m)
    expected = m + 1 if prime_field else None
    exceptional = prime_field and m in EXCEPTIONAL_MINIMAL_INDEX_Q
    return EssentialReport(essential=essential, count=count,
                           minimal_index=min_index,
                           prime_field=prime_field,
                           expected_minimal=expected,
                           exceptional=exceptional)


@dataclass
class LevelIndexReport:
    level: int
    norm: int
    index: int
    holds: bool
    minimal_c: Fraction


def level_vs_index_check(h_elements, m, census=None, c=1):
    """Minimal divisor level m' | m with M(m') contained in H, and the
    comparison N(level) <= c * [SL(2,Z/m) : H]."""
    table = census.table if census else sl2_group_table(m)
    h = frozenset(h_elements)
    best = None
    for mp in sorted(_divisors(m)):
        k = congruence_kernel(table, m, mp)
        if k <= h:
            best = mp
            break
    if best is None:
        raise ValueError("H contains no congruence kernel; not a congruence subgroup")
    index = table.n // len(h)
    norm = best  # N(m' Z) = m'
    return LevelIndexReport(level=best, norm=norm, index=index,
                            holds=Fraction(norm) <= Fraction(c) * index,
                            minimal_c=Fraction(norm, index))


def s_n(census, n):
    """Number of subgroups of index at most n."""
    total = census.table.n
    return sum(c.size for c in census.classes
               if total <= n * len(c.representative))


# ---------------------------------------------------------------------------
# Subgroup-count lower bounds vs congruence-count upper bounds

@dataclass
class CountRow:
    n: int
    homology_lower: int        # 2^(lambda * n) - 1 style bound, floored
    census_cn: int = None      # sum over m <= c n of s_n(SL(2,Z/m))
    curve_lo: Fraction = None  # fitted n^(b log2 n / log2 log2 n) enclosure
    curve_hi: Fraction = None


@dataclass
class CountTable:
    rows: list
    lam: Fraction
    fitted_b_lo: Fraction = None
    fitted_b_hi: Fraction = None

    def to_csv(self):
        lines = ["n,homology_lower,census_cn"]
        for r in self.rows:
            lines.append(f"{r.n},{r.homology_lower},{r.census_cn if r.census_cn is not None else ''}")
        return "\n".join(lines) + "\n"


def sn_vs_cn_table(tower_record, m_range=(), c=1, censuses=None):
    """Homology-driven lower bounds on s_n next to census-driven
    congruence counts.

    lambda = inf d_2/degree over the tower prefix must be positive.
    Rows carry 2^(lambda n) - 1 at n = degree, the census sum
    Sigma_{m <= c n} s_n(SL(2,Z/m)) where censuses are available, and
    the minimal exponent constant b making n^(b log2 n / log2 log2 n)
    dominate the census counts on the sampled range.
    """
    from .towers import linear_growth_report
    growth = linear_growth_report(tower_record)
    if not growth.positive:
        raise ValueError("tower does not exhibit positive d_2/degree on prefix")
    lam = growth.infimum
    censuses = censuses or {}
    rows = []
    b_lo = b_hi = None
    for lv in tower_record.levels:
        n = lv["degree"]
        lower = _pow2_floor(lam * n) - 1
        row = CountRow(n=n, homology_lower=lower)
        if m_range:
            total = 0
            available = True
            for m in m_range:
                if m > c * n:
                    continue
                if m not in censuses:
                    available = False
                    break
                total += s_n(censuses[m], n)
            if available:
                row.census_cn = total
                if total > 1 and n >= 4:
                    enc = _b_fit(total, n)
                    row.curve_lo, row.curve_hi = enc.lo, enc.hi
                    b_lo = enc.lo if b_lo is None else max(b_lo, enc.lo)
                    b_hi = enc.hi if b_hi is None else max(b_hi, enc.hi)
        rows.append(row)
    return CountTable(rows=rows, lam=lam, fitted_b_lo=b_lo, fitted_b_hi=b_hi)


def _pow2_floor(x):
    """floor(2^x) for a nonnegative Fraction x, by exact binary search:
    v <= 2^(p/q) iff v^q <= 2^p."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("nonnegative exponent expected")
    p, q = x.numerator, x.denominator
    i = int(x)
    lo, hi = 2 ** i, 2 ** (i + 1)  # floor lies in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** q <= 2 ** p:
            lo = mid
        else:
            hi = mid
    return lo


def _b_fit(count, n):
    """b with count = n^(b log2 n / log2 log2 n), as an enclosure."""
    lc = Enclosure.log2(count)
    ln = Enclosure.log2(n)
    if ln.lo <= 1:
        raise ValueError("need n >= 4 for the double-log curve")
    lln = Enclosure(Enclosure.log2(ln.lo).lo, Enclosure.log2(ln.hi).hi)
    return lc * lln / (ln * ln)


def _log2_power_exceeds(m, l):
    """(log2 m)^l > m, decided exactly: by integers when m is a power of
    two, otherwise by a 64-bit enclosure of log2 m (equality needs
    log2 m = m^(1/l) algebraic, so by Gelfond-Schneider m is a power
    of two)."""
    if m & (m - 1) == 0:
        return (m.bit_length() - 1) ** l > m
    enc = Enclosure.log2(m)
    if enc.lo ** l > m:
        return True
    if enc.hi ** l <= m:
        return False
    raise ArithmeticError(f"(log2 {m})^{l} against {m} undecided at 64 bits")


def _violation_interval(l, limit):
    """(lo, hi) such that, for 4 <= m <= limit, l > log2 m / log2 log2 m
    exactly when lo <= m <= hi (lo > hi when no m qualifies).

    The condition is (log2 m)^l > m.  Since l log2 L - L is concave in
    L = log2 m, the m satisfying it form one interval; for l >= 2 it
    contains m0 = 2^(l+1), because (l+1)^l > 2^(l+1), and for l = 1 it
    is empty.  Both ends are found by binary search from m0.
    """
    if l < 2:
        return 1, 0
    m0 = 2 ** (l + 1)
    lo = 4 + bisect_left(range(4, m0), True,
                         key=lambda m: _log2_power_exceeds(m, l))
    hi = m0 + bisect_left(range(m0 + 1, limit + 1), True,
                          key=lambda m: not _log2_power_exceeds(m, l))
    return lo, hi


def _log2_log2(m):
    """Enclosures of log2 m and log2 log2 m."""
    ln = Enclosure.log2(m)
    return ln, Enclosure(Enclosure.log2(ln.lo).lo, Enclosure.log2(ln.hi).hi)


def distinct_prime_factor_sweep(limit):
    """Survey l(m) = number of distinct primes of m against
    log2(m)/log2(log2(m)) for 4 <= m <= limit.

    Returns (max ratio l(m) / (log2 m / log2 log2 m), argmax m,
    violation count), a violation being l(m) > log2(m)/log2(log2(m)).
    No float decides anything: violations are counted against the
    certified interval of m for each l (`_violation_interval`), and
    the argmax is certified among the candidates m = 4, 5, 6 and the
    least m >= 7 with each l, because log2(L)/L decreases for
    L = log2 m > e.  The returned ratio divides l by the midpoint of
    an enclosure of log2 m / log2 log2 m, for display.  The bound as
    literally stated fails at primorials; the measured constant is
    what matters downstream.
    """
    if limit < 4:
        raise ValueError("limit must be >= 4")
    spf = list(range(limit + 1))  # smallest prime factor sieve
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    intervals = {}
    candidates = {}  # m -> l(m) for m < 7 and the least m >= 7 with each l
    seen = set()
    violations = 0
    for m in range(4, limit + 1):
        x = m
        l = 0
        while x > 1:
            p = spf[x]
            l += 1
            while x % p == 0:
                x //= p
        if l not in intervals:
            intervals[l] = _violation_interval(l, limit)
        lo, hi = intervals[l]
        if lo <= m <= hi:
            violations += 1
        if m < 7:
            candidates[m] = l
        elif l not in seen:
            seen.add(l)
            candidates[m] = l
    best_m = best = None
    for m, l in candidates.items():
        ln, lln = _log2_log2(m)
        ratio = lln / ln * l
        if best is None or ratio.lo > best.hi:
            best_m, best = m, ratio
        elif ratio.hi >= best.lo:
            raise ArithmeticError(
                f"ratios at m = {m} and {best_m} undecided at 64 bits")
    enc_ln, enc_lln = _log2_log2(best_m)
    exact_ratio = Fraction(candidates[best_m]) / (enc_ln / enc_lln).midpoint()
    return exact_ratio, best_m, violations
