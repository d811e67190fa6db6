"""finquot.closure against the breadth-first products oracle
(oracles.closure_by_products, which also moves by every inverse) on
PAIRS random generator pairs in SL(2, Z/m) for every 2 <= m <= M
(default 40), in SL and PSL mode; then ProductGroup.closure against
oracles.product_closure on PAIRS random pairs in PSL(2, 5) x PSL(2, 7)
and in PSL(2, 7) x PSL(2, 7).

    PYTHONPATH=src python tests/exhaustive_closure.py [M [PAIRS]]

Exits non-zero on any mismatch.  Not collected by pytest: tier 1 checks
a few dozen closures; this checks every modulus up to M (about 20 s
at the defaults).
"""

import random
import sys
import time

from kll.finquot import ModRing, ProductGroup, closure
from oracles import closure_by_products, product_closure, psl2_by_scan


def random_sl2(m, rng):
    while True:
        x = tuple(rng.randrange(m) for _ in range(4))
        if (x[0] * x[3] - x[1] * x[2]) % m == 1:
            return x


def matrix_mismatches(max_modulus, pairs, rng):
    """(closures compared, their elements, the cases that differ)."""
    done, elements, bad = 0, 0, []
    for m in range(2, max_modulus + 1):
        ring = ModRing(m)
        for _ in range(pairs):
            gens = [random_sl2(m, rng) for _ in range(2)]
            for projective in (False, True):
                got = closure(ring, gens, projective)
                done, elements = done + 1, elements + len(got)
                if got != closure_by_products(ring, gens, projective):
                    bad.append((m, gens, projective))
    return done, elements, bad


def product_mismatches(pairs, rng):
    """(closures compared, their elements, the cases that differ)."""
    done, elements, bad = 0, 0, []
    for primes in ([5, 7], [7, 7]):
        factors = [psl2_by_scan(p) for p in primes]
        for _ in range(pairs):
            gens = [tuple(rng.choice(f) for f in factors) for _ in range(2)]
            got = ProductGroup(primes).closure(gens)
            done, elements = done + 1, elements + len(got)
            if got != product_closure(primes, gens):
                bad.append((primes, gens))
    return done, elements, bad


def main(max_modulus, pairs):
    rng = random.Random(27)
    t0 = time.time()
    done, elements, bad = matrix_mismatches(max_modulus, pairs, rng)
    print(f"closure, m <= {max_modulus}: {done} closures of {elements} "
          f"elements, {len(bad)} mismatches ({time.time() - t0:.1f} s)")
    for case in bad:
        print("  mismatch:", case)
    t0 = time.time()
    done, elements, product_bad = product_mismatches(pairs, rng)
    print(f"ProductGroup.closure, [5, 7] and [7, 7]: {done} closures of "
          f"{elements} elements, {len(product_bad)} mismatches "
          f"({time.time() - t0:.1f} s)")
    for case in product_bad:
        print("  mismatch:", case)
    if bad or product_bad:
        raise SystemExit("mismatch")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    main(*(args + [40, 5][len(args):]))
