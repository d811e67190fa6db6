"""quatalg.hilbert_symbol_qp against the exhaustive isotropy search
(oracles.exhaustive_hilbert_split) on every pair of square-class
representatives of Q_p^x at each prime P given: 8 classes at p = 2 and 4
at an odd p, so 64 or 16 pairs.  Each pair is checked twice, once with
integer entries u p^k and once with their reciprocals, which carry each
unit and each odd valuation in a denominator (1/r = r / r^2).

    PYTHONPATH=src python tests/exhaustive_symbols.py P...

Exits non-zero on any mismatch.  Not collected by pytest: the oracle
searches mod p^3, too slowly past p = 7 for tier 1, which runs
p = 2, 3, 5 and 7.
"""

import sys
import time
from fractions import Fraction
from itertools import product

from kll.quatalg import RAMIFIED, SPLIT, hilbert_symbol_qp
from oracles import exhaustive_hilbert_split


def square_classes(p):
    """Integer representatives of Q_p^x / (Q_p^x)^2, of valuation 0 or 1:
    the units 1, 3, 5, 7 at p = 2, else 1 and the least non-square mod p,
    each also times p."""
    if p == 2:
        units = [1, 3, 5, 7]
    else:
        squares = {x * x % p for x in range(1, p)}
        units = [1, min(set(range(1, p)) - squares)]
    return [u * p ** k for k in (0, 1) for u in units]


def mismatches(p):
    """(number of checks, the (a, b, got, want) that differ)."""
    checks, bad = 0, []
    for a, b in product(square_classes(p), repeat=2):
        want = SPLIT if exhaustive_hilbert_split(a, b, p) else RAMIFIED
        for x, y in ((a, b), (Fraction(1, a), Fraction(1, b))):
            got = hilbert_symbol_qp(x, y, p)
            checks += 1
            if got != want:
                bad.append((x, y, got, want))
    return checks, bad


def main(primes):
    for p in primes:
        t0 = time.time()
        checks, bad = mismatches(p)
        print(f"p = {p}: {len(bad)} of {checks} checks mismatched "
              f"({time.time() - t0:.1f} s)", flush=True)
        if bad:
            raise SystemExit(f"first mismatch at p = {p}: {bad[0]}")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]])
