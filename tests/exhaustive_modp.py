"""polys.factor_modp and polys.is_irreducible_modp against the trial
division oracles (oracles.brute_factor_modp and
oracles._is_irreducible_by_trial) on every monic polynomial of degree 1
to D (default 5) mod 2, 3, 5 and 7, and on each one's multiple by -1;
then N (default 3000) random polynomials g^k h with forced repeated
factors, of degree at most 9 mod p <= 13, against the same oracles, with
each row of their Frobenius matrix Q against x^(ip) mod f by the
oracle's long division.

    PYTHONPATH=src python tests/exhaustive_modp.py [D] [N]

Exits non-zero on any mismatch.  Not collected by pytest: degree 5 makes
19,607 polynomials mod 7 alone; tier 1 sweeps degree <= 4 mod 2, 3 and 5
for irreducibility and a few hundred repeated-factor polynomials.
"""

import random
import sys
import time
from itertools import product

from kll import polys
from oracles import _is_irreducible_by_trial, _modp_divmod, brute_factor_modp

PRIMES = (2, 3, 5, 7)
REPEATED_PRIMES = (2, 3, 5, 7, 11, 13)


def monic_polynomials(p, low, high):
    """Every monic polynomial mod p of degree low to high."""
    for d in range(low, high + 1):
        for tail in product(range(p), repeat=d):
            yield list(tail) + [1]


def factor_mismatch(f, p):
    """None if factor_modp(f, p), flattened by multiplicity, is the
    trial-division factorization, else (f, p, got)."""
    got = polys.factor_modp(f, p)
    flat = sorted(g for g, e in got for _ in range(e))
    return None if flat == sorted(brute_factor_modp(f, p)) else (f, p, got)


def frobenius_mismatch(f, p):
    """None if row i of Q is x^(ip) mod f by long division, else (f, p)."""
    f = polys.modp(f, p)
    f = [c * pow(f[-1], -1, p) % p for c in f]
    n = len(f) - 1
    rows = polys.reduction_rows(f, p)
    q = polys._frobenius_matrix(polys._powmod([0, 1] + [0] * (n - 2), p, rows, p),
                                rows, p)
    want = [_modp_divmod([0] * (i * p) + [1], f, p)[1] for i in range(n)]
    return None if q == [w + [0] * (n - len(w)) for w in want] else (f, p)


def repeated_factor_polynomial(rng, max_degree):
    """(g^k h, p) of degree at most max_degree >= 6: g monic of degree
    1 to 3, k = 2 or 3, h of degree 0 to 3 with a random nonzero leading
    coefficient."""
    p = rng.choice(REPEATED_PRIMES)
    g = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
    k = rng.choice((2, 3))
    room = max_degree - k * (len(g) - 1)
    if room < 0:
        k, room = 2, max_degree - 2 * (len(g) - 1)
    f = [rng.randrange(p) for _ in range(rng.randint(0, min(3, room)))]
    f.append(rng.randrange(1, p))
    for _ in range(k):
        f = polys.mul(f, g)
    return f, p


def sweep_mismatches(max_degree, primes=PRIMES):
    """(number of checks, mismatches) over every monic polynomial of
    degree 1 to max_degree mod each prime, and its negative."""
    checks, bad = 0, []
    for p in primes:
        for f in monic_polynomials(p, 1, max_degree):
            irreducible = _is_irreducible_by_trial(f, p)
            for h in (f, [-c for c in f]):
                if polys.is_irreducible_modp(h, p) != irreducible:
                    bad.append(("irreducible", h, p, not irreducible))
                miss = factor_mismatch(h, p)
                if miss:
                    bad.append(("factor",) + miss)
                checks += 2
    return checks, bad


def repeated_mismatches(count, max_degree=9, seed=40):
    """(number of checks, mismatches) over `count` random g^k h of
    degree at most max_degree."""
    rng = random.Random(seed)
    checks, bad = 0, []
    for _ in range(count):
        f, p = repeated_factor_polynomial(rng, max_degree)
        for miss in (factor_mismatch(f, p), frobenius_mismatch(f, p)):
            if miss:
                bad.append(miss)
        if polys.is_irreducible_modp(f, p):
            bad.append(("irreducible", f, p, True))
        checks += 3
    return checks, bad


def main(max_degree, count):
    passes = [(f"monic sweep, degree <= {max_degree} mod {PRIMES}",
               sweep_mismatches, (max_degree,)),
              (f"{count} random g^k h, degree <= 9 mod p <= 13",
               repeated_mismatches, (count,))]
    for name, run, args in passes:
        t0 = time.time()
        checks, bad = run(*args)
        print(f"{name}: {len(bad)} of {checks} checks mismatched "
              f"({time.time() - t0:.1f} s)", flush=True)
        if bad:
            raise SystemExit(f"first mismatch: {bad[0]}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5,
         int(sys.argv[2]) if len(sys.argv) > 2 else 3000)
