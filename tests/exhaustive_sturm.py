"""polys.sturm_count against the Fraction Euclid oracle
(oracles.fraction_sturm_count) on every integer polynomial of degree 1
to D (default 5) whose leading coefficient is 1, -2 or 3 and whose other
coefficients lie in [-2, 2], over each interval between consecutive
points of -3, -1, 0, 1/2, 1, 2, 3; then polys.resultant(f, f') against
oracles.fraction_resultant on each of those polynomials; then
taugraphs.lambda2_enclosure against oracles.lambda2_by_fraction_sturm on
every connected cubic multigraph with at most 10 vertices and on the
cycles of 3 to 40 vertices.

    PYTHONPATH=src python tests/exhaustive_sturm.py [D]

Exits non-zero on any mismatch.  Not collected by pytest: degree 5
makes 70,290 Sturm checks and 11,715 resultants; tier 1 runs the degree
<= 3 Sturm slice.
"""

import sys
import time
from fractions import Fraction
from itertools import product

from kll.polys import derivative, resultant, sturm_count
from kll.taugraphs import CosetGraph, lambda2_enclosure
from kll.trivalent import connected_trivalent
from oracles import fraction_resultant, fraction_sturm_count, lambda2_by_fraction_sturm

LEADS = (1, -2, 3)
POINTS = (-3, -1, 0, Fraction(1, 2), 1, 2, 3)


def polynomials(max_degree):
    for d in range(1, max_degree + 1):
        for lower in product(range(-2, 3), repeat=d):
            for lead in LEADS:
                yield list(lower) + [lead]


def mismatches(max_degree):
    """(number of checks, the (f, a, b, got, want) that differ)."""
    checks, bad = 0, []
    for f in polynomials(max_degree):
        for a, b in zip(POINTS, POINTS[1:]):
            got, want = sturm_count(f, a, b), fraction_sturm_count(f, a, b)
            checks += 1
            if got != want:
                bad.append((f, a, b, got, want))
    return checks, bad


def resultant_mismatches(max_degree):
    """(number of checks, the (f, got, want) whose Res(f, f') differs)."""
    checks, bad = 0, []
    for f in polynomials(max_degree):
        got, want = resultant(f, derivative(f)), fraction_resultant(f, derivative(f))
        checks += 1
        if got != want:
            bad.append((f, got, want))
    return checks, bad


def lambda2_mismatches(max_cubic, max_cycle):
    """(number of checks, the edge lists whose enclosures differ)."""
    graphs = [CosetGraph(g.num_vertices, g.edges)
              for g in connected_trivalent(max_cubic)]
    graphs += [CosetGraph.cycle(n) for n in range(3, max_cycle + 1)]
    bad = [g.edges for g in graphs
           if lambda2_enclosure(g) != lambda2_by_fraction_sturm(g)]
    return len(graphs), bad


def main(max_degree):
    passes = [(f"Sturm counts, degree <= {max_degree}", mismatches, (max_degree,)),
              (f"Res(f, f'), degree <= {max_degree}", resultant_mismatches,
               (max_degree,)),
              ("lambda2, cubic V <= 10 and cycles to 40", lambda2_mismatches,
               (10, 40))]
    for name, run, args in passes:
        t0 = time.time()
        checks, bad = run(*args)
        print(f"{name}: {len(bad)} of {checks} checks mismatched "
              f"({time.time() - t0:.1f} s)", flush=True)
        if bad:
            raise SystemExit(f"first mismatch: {bad[0]}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
