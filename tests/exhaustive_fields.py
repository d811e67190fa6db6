"""numfield arithmetic against Fraction polynomial arithmetic
(oracles._mul_q, _divmod_q, fraction_resultant) in N random elements
per field, over three random squarefree monic integer polynomials of
each degree 1 to 6: sums of one to four products (`numfield.dot`),
single products, sums, differences and inverses, each result checked
in lowest terms with a positive denominator.  An element whose
resultant with the polynomial is zero is a zero divisor or zero, and
its inverse must raise ZeroDivisionError.

    PYTHONPATH=src python tests/exhaustive_fields.py [N]

Exits non-zero on any mismatch.  Not collected by pytest: N = 2000
(the default) makes 180,000 checks in about a minute; tier 1 runs 25
products and 25 sums of products in each of six fixed fields.
"""

import random
import sys
import time
from fractions import Fraction
from math import gcd

from kll.numfield import NumberField, ReduciblePolynomial, dot
from oracles import _divmod_q, _mul_q, fraction_resultant

FIELDS_PER_DEGREE = 3


def random_field(degree, rng):
    while True:
        try:
            return NumberField(tuple(rng.randint(-5, 5) for _ in range(degree)) + (1,))
        except ReduciblePolynomial:
            continue


def random_element(k, rng):
    """Zero one time in ten; otherwise random numerators over random
    denominators, some of them 1."""
    if rng.random() < 0.1:
        return k.zero()
    return k.element([Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3, 4, 6, 9, 12]))
                      for _ in range(rng.randint(1, k.degree))])


def reduced(k, f):
    """f mod min_poly, padded to [k:Q] Fractions."""
    r = _divmod_q(list(f), list(k.min_poly))[1]
    return r + [Fraction(0)] * (k.degree - len(r))


def mismatches(k, n, rng):
    """(number of checks, descriptions of the results that differ)."""
    checks, bad = 0, []
    one = reduced(k, [Fraction(1)])

    def check(what, got, want):
        nonlocal checks
        checks += 1
        if got.den <= 0 or gcd(got.den, *got.nums) != 1:
            bad.append(f"{k}: {what} = {got} is not in lowest terms")
        elif list(got.coeffs) != want:
            bad.append(f"{k}: {what} = {got}, want {want}")

    for _ in range(n):
        x, y = random_element(k, rng), random_element(k, rng)
        check(f"{x} * {y}", x * y, reduced(k, _mul_q(x.coeffs, y.coeffs)))
        check(f"{x} + {y}", x + y, [a + b for a, b in zip(x.coeffs, y.coeffs)])
        check(f"{x} - {y}", x - y, [a - b for a, b in zip(x.coeffs, y.coeffs)])
        pairs = [(random_element(k, rng), random_element(k, rng))
                 for _ in range(rng.randint(1, 4))]
        total = [Fraction(0)] * (2 * k.degree - 1)
        for a, b in pairs:
            for i, c in enumerate(_mul_q(a.coeffs, b.coeffs)):
                total[i] += c
        check(f"dot {pairs}", dot(k, pairs), reduced(k, total))
        if fraction_resultant(list(k.min_poly), list(x.coeffs)) == 0:
            checks += 1
            try:
                bad.append(f"{k}: zero divisor {x} has inverse {x.inverse()}")
            except ZeroDivisionError:
                pass
        else:
            # x y = 1 makes y the inverse; the oracle takes the product
            inv = x.inverse()
            check(f"{x}^-1", inv, list(inv.coeffs))
            if reduced(k, _mul_q(x.coeffs, inv.coeffs)) != one:
                bad.append(f"{k}: {x}^-1 = {inv} is not an inverse")
    return checks, bad


def main(n):
    rng = random.Random(26)
    t0 = time.time()
    checks, bad = 0, []
    for degree in range(1, 7):
        for _ in range(FIELDS_PER_DEGREE):
            c, b = mismatches(random_field(degree, rng), n, rng)
            checks += c
            bad += b
    print(f"degrees 1-6, {n} elements per field: {len(bad)} of {checks} checks "
          f"mismatched ({time.time() - t0:.1f} s)")
    if bad:
        raise SystemExit(f"first mismatch: {bad[0]}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000)
