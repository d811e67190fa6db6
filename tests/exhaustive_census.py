"""Four census checks too slow for tier 1.

    PYTHONPATH=src python tests/exhaustive_census.py [M ...]
    PYTHONPATH=src python tests/exhaustive_census.py --oracle
    PYTHONPATH=src python tests/exhaustive_census.py --rank M [M ...]
    PYTHONPATH=src python tests/exhaustive_census.py --dickson P [P ...]

With moduli (default 17 19): the lifted SL(2, Z/m) census (a PSL(2, Z/m)
census lifted through -I) against the direct census on the SL(2, Z/m)
table, for each odd prime power m given.  Exits non-zero unless both
censuses give the same subgroup count, order multiset, s_n at every
divisor of |SL(2, Z/m)|, index-2 count, rank, and essential count and
minimal index.  The direct census takes several seconds at m = 17
and 19.

With --oracle: every subgroup the census stands for, against
`oracles.all_subgroups` (plain breadth-first closures from every
subgroup, one extension per right coset, no conjugacy classes), on the
tables that `kll count` censuses for m = 8, 9, 11 and 13: SL(2, Z/8) and
PSL(2, q) for q = 9, 11, 13.  Exits non-zero on the first table where
the two sets differ.  The oracle takes about two minutes on PSL(2, 13).

With --rank: the rank certificates of the census `kll count` runs for
each m given.  Every class's generators must close, by plain breadth-first
search, to its representative, so d(H) is at most their number; and
`oracles.burnside_lower_bound` must not exceed it.  Exits non-zero
unless the largest Burnside bound equals the census rank, so the rank
is certified exactly.  They meet at m = 12 and 20, but not at m = 2,
where SL(2, Z/2) = S_3 has rank 2 and Burnside bound 1.  Prints the rank and the largest Burnside bound.  The census takes about 20 s at m = 20.

With --dickson: Dickson's classes of PSL(2, p), which `kll count`
prints for each prime p >= 5 given, against the census of SL(2, p) with
no budget, class by class (`dickson_differences`).  The census takes
about 10 s at p = 23.
"""

import sys
import time

from kll.counting import (Census, SubgroupClass, dickson_census,
                          essential_subgroups, psl2_group_table, s_n,
                          sl2_census, sl2_group_table, sl2_order,
                          subgroup_census)
from kll.finquot import ModRing, proj_canonical
from kll.fpgroups import orbit

from oracles import _bfs_closure, all_subgroups, burnside_lower_bound

ORACLE_TABLES = (("SL(2, Z/8)", sl2_group_table, 8),
                 ("PSL(2, 9)", psl2_group_table, 9),
                 ("PSL(2, 11)", psl2_group_table, 11),
                 ("PSL(2, 13)", psl2_group_table, 13))


def report(m, census):
    """What `kll count` and the census sums read off a census's classes
    alone: no table, so Dickson's classes give it too."""
    order = census.order
    ess = essential_subgroups(m, census)
    return {"count": census.count, "orders": census.orders(),
            "classes": sorted((c.order, c.size) for c in census.classes),
            "s_n": [s_n(census, n) for n in range(1, order + 1)
                    if order % n == 0],
            "index2": census.of_index(2),
            "rank": census.rank(),
            "essential": (ess.count, ess.minimal_index)}


def per_element_census(table):
    """`counting.subgroup_census` as it was before it covered the double
    cosets h g^j h of every power g^j that generates <g>: each
    representative h is extended once per double coset hgh, one at a
    time.  The census must give the same classes, in the same order,
    with the same generators and representatives."""
    n, t = table.n, table.table
    rows = [[t[t[table.inverse[s] * n + x] * n + s] for x in range(n)]
            for s in table.generators]
    trivial = frozenset([table.identity])
    found = {trivial}
    grown = [(trivial, (), [trivial])]
    for h, base, _ in grown:
        offsets = [x * n for x in h]
        covered = set(h)
        for g in range(n):
            if g in covered:
                continue
            coset_reps = [g]
            covered.update([t[o + g] for o in offsets])
            for r in coset_reps:
                for s in base:
                    y = t[r * n + s]
                    if y not in covered:
                        covered.update([t[o + y] for o in offsets])
                        coset_reps.append(y)
            k = table.closure(base + (g,), h)
            if k not in found:
                conjugates = list(orbit([k], rows,
                                        lambda h, row: frozenset(map(row.__getitem__, h))))
                found.update(conjugates)
                grown.append((k, base + (g,), conjugates))
    return Census(n, [SubgroupClass(len(h), len(conjugates), gens, h)
                      for h, gens, conjugates in sorted(
                          grown, key=lambda c: (len(c[0]), sorted(c[0])))])


def dickson_differences(p, census):
    """What differs between Dickson's classes of PSL(2, p) and `census`,
    the lifted census of SL(2, p): the class reports, and each witness
    tuple, closed by plain breadth-first search in the census's
    PSL(2, p) table, against its stated order and class size.  The
    witnesses must reach each census class exactly once."""
    dickson = dickson_census(p)
    want, got = report(p, census), report(p, dickson)
    differ = [k for k in want if got[k] != want[k]]
    ring, table, quotient = ModRing(p), census.table, census.quotient
    reached = []
    for c in dickson.quotient.classes:
        gens = [table.index[proj_canonical(ring, g)] for g in c.generators]
        h = _bfs_closure(table, gens, (table.identity,))
        i = quotient.class_of[h]
        if (len(h), quotient.classes[i].size) != (c.order, c.size):
            differ.append(f"the witness {c.generators} of order {c.order} "
                          f"in a class of {c.size} closes to order {len(h)} "
                          f"in a class of {quotient.classes[i].size}")
        reached.append(i)
    if sorted(reached) != list(range(len(quotient.classes))):
        differ.append(f"witnesses reach census classes {sorted(reached)}")
    return differ


def main(moduli):
    for m in moduli:
        t0 = time.time()
        lifted = sl2_census(m)
        if not lifted.projective:
            raise SystemExit(f"m = {m} is not an odd prime power")
        got = report(m, lifted)
        t1 = time.time()
        want = report(m, subgroup_census(sl2_group_table(m)))
        t2 = time.time()
        differ = [k for k in want if got[k] != want[k]]
        if differ:
            raise SystemExit(f"m = {m}: lifted census differs in {differ}")
        print(f"m = {m}: {got['count']} subgroups, reports agree "
              f"(lifted {t1 - t0:.1f} s, direct {t2 - t1:.1f} s)")


def check_oracle():
    for name, build, m in ORACLE_TABLES:
        table = build(m)
        t0 = time.time()
        got = set(subgroup_census(table).class_of)
        t1 = time.time()
        want = all_subgroups(table)
        t2 = time.time()
        if got != want:
            raise SystemExit(f"{name}: census has {len(got)} subgroups, "
                             f"oracle {len(want)}")
        print(f"{name}: {len(got)} subgroups, census agrees with the oracle "
              f"(census {t1 - t0:.1f} s, oracle {t2 - t1:.1f} s)")


def check_rank(moduli):
    for m in moduli:
        t0 = time.time()
        census = sl2_census(m)
        t1 = time.time()
        table = census.table
        bound = 0
        for c in census.classes:
            if _bfs_closure(table, c.generators,
                            (table.identity,)) != c.representative:
                raise SystemExit(f"m = {m}: generators {c.generators} do not "
                                 f"close to their representative")
            b = burnside_lower_bound(table, c.representative, c.generators)
            if b > len(c.generators):
                raise SystemExit(f"m = {m}: Burnside bound {b} over "
                                 f"{len(c.generators)} generators")
            bound = max(bound, b)
        if bound != census.rank():
            raise SystemExit(f"m = {m}: largest Burnside bound {bound}, "
                             f"rank {census.rank()}")
        print(f"m = {m}: rank {census.rank()}, largest Burnside bound {bound}, "
              f"{len(census.classes)} classes certified "
              f"(census {t1 - t0:.1f} s, checks {time.time() - t1:.1f} s)")


def check_dickson(primes):
    for p in primes:
        t0 = time.time()
        census = sl2_census(p, budget=sl2_order(p))
        t1 = time.time()
        differ = dickson_differences(p, census)
        if differ:
            raise SystemExit(f"p = {p}: Dickson's classes differ from the "
                             f"census: {differ}")
        print(f"p = {p}: {len(census.quotient.classes)} classes of "
              f"PSL(2, {p}) agree with the census (census {t1 - t0:.1f} s, "
              f"checks {time.time() - t1:.1f} s)")


if __name__ == "__main__":
    if sys.argv[1:] == ["--oracle"]:
        check_oracle()
    elif sys.argv[1:2] == ["--rank"]:
        check_rank([int(a) for a in sys.argv[2:]])
    elif sys.argv[1:2] == ["--dickson"]:
        check_dickson([int(a) for a in sys.argv[2:]])
    else:
        main([int(a) for a in sys.argv[1:]] or [17, 19])
