"""polys.sturm_count against the Fraction Euclid oracle
(oracles.fraction_sturm_count) on every integer polynomial of degree 1
to D (default 5) whose leading coefficient is 1, -2 or 3 and whose other
coefficients lie in [-2, 2], over each interval between consecutive
points of -3, -1, 0, 1/2, 1, 2, 3.

    PYTHONPATH=src python tests/exhaustive_sturm.py [D]

Exits non-zero on any mismatch.  Not collected by pytest: degree 5
makes 70,290 checks; tier 1 runs the degree <= 3 slice.
"""

import sys
import time
from fractions import Fraction
from itertools import product

from kll.polys import sturm_count
from oracles import fraction_sturm_count

LEADS = (1, -2, 3)
POINTS = (-3, -1, 0, Fraction(1, 2), 1, 2, 3)


def mismatches(max_degree):
    """(number of checks, the (f, a, b, got, want) that differ)."""
    checks, bad = 0, []
    for d in range(1, max_degree + 1):
        for lower in product(range(-2, 3), repeat=d):
            for lead in LEADS:
                f = list(lower) + [lead]
                for a, b in zip(POINTS, POINTS[1:]):
                    got, want = sturm_count(f, a, b), fraction_sturm_count(f, a, b)
                    checks += 1
                    if got != want:
                        bad.append((f, a, b, got, want))
    return checks, bad


def main(max_degree):
    t0 = time.time()
    checks, bad = mismatches(max_degree)
    print(f"degree <= {max_degree}: {len(bad)} of {checks} checks mismatched "
          f"({time.time() - t0:.1f} s)")
    if bad:
        raise SystemExit(f"first mismatch (f, a, b, got, want): {bad[0]}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
