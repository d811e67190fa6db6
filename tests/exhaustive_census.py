"""The lifted SL(2, Z/m) census (a PSL(2, Z/m) census lifted through -I)
against the direct census on the SL(2, Z/m) table, for each odd prime
power m given (default 17 19).

    PYTHONPATH=src python tests/exhaustive_census.py [M ...]

Exits non-zero unless both censuses give the same subgroup count, order
multiset, s_n at every divisor of |SL(2, Z/m)|, index-2 count, rank,
and essential count and minimal index.  Not collected by pytest: the
direct census takes several seconds at m = 17 and 19.
"""

import sys
import time

from kll.counting import (essential_subgroups, s_n, sl2_census,
                          sl2_group_table, subgroup_census)


def report(m, census):
    """What `kll count` and the census sums read off a census."""
    order = census.order
    ess = essential_subgroups(m, census)
    return {"count": census.count, "orders": census.orders(),
            "s_n": [s_n(census, n) for n in range(1, order + 1)
                    if order % n == 0],
            "index2": len(census.subgroups_of_index(2)),
            "rank": census.rank(),
            "essential": (ess.count, ess.minimal_index)}


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


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [17, 19])
