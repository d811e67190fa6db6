"""finquot.closure against the breadth-first products oracle
(oracles.closure_by_products, which also moves by every inverse) on
PAIRS random generator pairs in SL(2, Z/m) for every 2 <= m <= M
(default 40), in SL and PSL mode; then ProductGroup.closure against
oracles.product_closure on PAIRS random pairs in PSL(2, 5) x PSL(2, 7)
and in PSL(2, 7) x PSL(2, 7); then normalizer_quotient_order, the
closed form of Dickson's N(V), against oracles.product_normalizer_order,
which tests every element of the product, on KLEIN Klein fours of
PSL(2, p) for every prime 3 <= p <= 47 and on one Klein four per factor
for every pair of primes p <= q <= 13; then hall_onto, which decides by
Dickson's list and Goursat's lemma, against len(product_closure) ==
order: on every prime 5 <= p <= 61 (HALL random lists of 1-3
generators, a Borel pair, a diagonal-with-swap pair, trace-zero
generators and every witness tuple of counting.dickson_census(p)), on
HALL equal pairs of each kind at p = 5, 7, 11, 13 (independent onto
pairs, inner twists, outer twists by diag(nu, 1), each generator of the
second slot negated at random) and on HALL random pairs for each pair
of primes 5 <= p < q <= 13.

    PYTHONPATH=src python tests/exhaustive_closure.py [M [PAIRS [KLEIN [HALL]]]]

Exits non-zero on any mismatch.  Not collected by pytest: tier 1 checks
a few dozen closures and single-factor normalizers up to p = 23, and
hall_onto on fewer lists up to p = 31; this checks every modulus up to
M and every normalizer and list above.
"""

import random
import sys
import time
from functools import cache
from math import prod

from kll.counting import dickson_census
from kll.finquot import (ModRing, ProductGroup, closure, hall_onto,
                         mat_mul, normalizer_quotient_order, proj_canonical,
                         psl2_order_formula)
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


def trace_zero(p, rng):
    """A random (x, y, z, -x) of determinant -x^2 - yz = 1."""
    x, y = rng.randrange(p), rng.randrange(1, p)
    return x, y, (-1 - x * x) * pow(y, -1, p) % p, -x % p


def single_factor_lists(p, rng, sets):
    """Generator lists of PSL(2, p): `sets` random lists of 1 to 3
    generators, a Borel (upper-triangular) pair, a diagonal matrix with
    the swap (0, -1, 1, 0), two and three trace-zero generators, and
    every witness tuple of counting.dickson_census(p)."""
    lists = [[random_sl2(p, rng) for _ in range(rng.randint(1, 3))]
             for _ in range(sets)]
    x = rng.randrange(2, p - 1)
    lists.append([(x, rng.randrange(p), 0, pow(x, -1, p)),
                  (1, rng.randrange(1, p), 0, 1)])
    lists.append([(x, 0, 0, pow(x, -1, p)), (0, p - 1, 1, 0)])
    lists += [[trace_zero(p, rng) for _ in range(k)] for k in (2, 3)]
    lists += sorted({c.generators for c in dickson_census(p).classes})
    return [list(gens) for gens in lists]


def _oracle_onto(p, gens):
    return len(product_closure([p], [(g,) for g in gens])) == \
        psl2_order_formula(p)


def _conjugate(x, g, p):
    """x g x^-1 mod p for an invertible x, by the adjugate of x."""
    ring, (a, b, c, d) = ModRing(p), x
    inv = pow(a * d - b * c, -1, p)
    return mat_mul(ring, mat_mul(ring, x, g),
                   (d * inv % p, -b * inv % p, -c * inv % p, a * inv % p))


def equal_pairs(p, rng, count):
    """Generator tuples of PSL(2, p)^2 with both slots onto, `count` of
    each kind: independent slots, the second slot an inner twist (by a
    random X in SL(2, p)) and an outer twist (by diag(nu, 1) X, nu a
    non-square) of the first; each generator of the second slot is
    negated at random."""
    nu = next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)

    def onto_list(k):
        while True:
            gens = [random_sl2(p, rng) for _ in range(k)]
            if _oracle_onto(p, gens):
                return gens

    def signed(gens):
        return [tuple(-v % p for v in g) if rng.random() < 0.5 else g
                for g in gens]

    out = []
    for _ in range(count):
        k = rng.randint(2, 3)
        out.append(list(zip(onto_list(k), signed(onto_list(k)))))
        for twist in ((1, 0, 0, 1), (nu, 0, 0, 1)):
            x = mat_mul(ModRing(p), twist, random_sl2(p, rng))
            first = onto_list(rng.randint(2, 3))
            out.append(list(zip(first, signed(
                [_conjugate(x, g, p) for g in first]))))
    return out


def hall_mismatches(hall, rng):
    """(generator lists compared, those onto, the cases where hall_onto
    differs from the closure oracle)."""
    cases = [([p], [(g,) for g in gens]) for p in range(5, 62) if is_prime(p)
             for gens in single_factor_lists(p, rng, hall)]
    cases += [([p, p], gens) for p in (5, 7, 11, 13)
              for gens in equal_pairs(p, rng, hall)]
    cases += [([p, q], [(random_sl2(p, rng), random_sl2(q, rng))
                        for _ in range(2)])
              for p in (5, 7, 11) for q in (7, 11, 13) if p < q
              for _ in range(hall)]
    onto, bad = 0, []
    for primes, gens in cases:
        verdict = hall_onto(primes, gens)
        onto += verdict
        if verdict != (len(product_closure(primes, gens))
                       == prod(map(psl2_order_formula, primes))):
            bad.append((primes, gens))
    return len(cases), onto, bad


def main(max_modulus, pairs, klein, hall):
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
    t0 = time.time()
    done, onto, hall_bad = hall_mismatches(hall, rng)
    print(f"hall_onto, 5 <= p <= 61, equal pairs p <= 13 and pairs p < q <= "
          f"13: {done} generator lists ({onto} onto), {len(hall_bad)} "
          f"mismatches "
          f"({time.time() - t0:.1f} s)")
    for case in hall_bad:
        print("  mismatch:", case)
    if bad or product_bad or normalizer_bad or hall_bad:
        raise SystemExit("mismatch")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    main(*(args + [40, 5, 4, 3][len(args):]))
