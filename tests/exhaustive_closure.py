"""finquot.closure against the breadth-first products oracle
(oracles.closure_by_products, which also moves by every inverse) on
PAIRS random generator pairs in SL(2, Z/m) for every 2 <= m <= M
(default 40), in SL and PSL mode; then ProductGroup.closure against
oracles.product_closure on PAIRS random pairs in PSL(2, 5) x PSL(2, 7)
and in PSL(2, 7) x PSL(2, 7); then normalizer_quotient_order, the
closed form of Dickson's N(V), against oracles.product_normalizer_order,
which tests every element of the product, on KLEIN Klein fours of
PSL(2, p) for every prime 3 <= p <= 47 and on one Klein four per factor
for every pair of primes p <= q <= 13.

    PYTHONPATH=src python tests/exhaustive_closure.py [M [PAIRS [KLEIN]]]

Exits non-zero on any mismatch.  Not collected by pytest: tier 1 checks
a few dozen closures and single-factor normalizers up to p = 23; this
checks every modulus up to M and every normalizer above.
"""

import random
import sys
import time
from functools import cache

from kll.finquot import (ModRing, ProductGroup, closure,
                         mat_mul, normalizer_quotient_order, proj_canonical)
from kll.polys import is_prime
from oracles import (closure_by_products, product_closure,
                     product_normalizer_order, psl2_by_scan)


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


@cache
def involutions(p):
    return [x for x in psl2_by_scan(p) if (x[0] + x[3]) % p == 0]


def klein_four(p, rng):
    """Commuting involutions a != b of PSL(2, p), a random pair."""
    ring = ModRing(p)
    while True:
        a, b = rng.sample(involutions(p), 2)
        ab, ba = (proj_canonical(ring, mat_mul(ring, x, y))
                  for x, y in ((a, b), (b, a)))
        if ab == ba:
            return a, b


def normalizer_mismatches(klein, rng):
    """(normalizers compared, the cases that differ)."""
    cases = [[p] for p in range(3, 48) if is_prime(p) for _ in range(klein)]
    cases += [[p, q] for p in range(3, 14) for q in range(p, 14)
              if is_prime(p) and is_prime(q)]
    bad = []
    for primes in cases:
        a, b = zip(*(klein_four(p, rng) for p in primes))
        n_order, h_order = product_normalizer_order(primes, a, b)
        rep = normalizer_quotient_order(primes, a, b)
        if (rep.subgroup_order, rep.quotient_order) != \
                (h_order, n_order // h_order):
            bad.append((primes, a, b))
    return len(cases), bad


def main(max_modulus, pairs, klein):
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
    t0 = time.time()
    done, normalizer_bad = normalizer_mismatches(klein, rng)
    print(f"normalizer_quotient_order, 3 <= p <= 47 and pairs p <= q <= 13: "
          f"{done} Klein fours, {len(normalizer_bad)} mismatches "
          f"({time.time() - t0:.1f} s)")
    for case in normalizer_bad:
        print("  mismatch:", case)
    if bad or product_bad or normalizer_bad:
        raise SystemExit("mismatch")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    main(*(args + [40, 5, 4][len(args):]))
