"""traceorders.build_order against a linear solve, and
jorgensen_involution against a * b - b * a, on N random unimodular pairs
over each field of the benchmark's ORDER_FIELDS.

`build_order` checks the six trace identities and derives its
Cayley-Hamilton table from them; here each of its 16 structure
constants must equal the coordinates of basis_i basis_j found by
`linalg.rref` over the field, its basis must end in a * b and its
discriminant must be tr(a b a^-1 b^-1) - 2.  A pair is a product of two
to six elementary matrices with integral entries, conjugated half the
time by diag(r, 1) for a random rational r, so that entries are not
integral while the traces are.

    PYTHONPATH=src python tests/exhaustive_orders.py N

Exits non-zero on any mismatch.  Not collected by pytest: tier 1 solves
10 pairs per field over three fields.
"""

import os
import random
import sys
import time
from fractions import Fraction

from kll.linalg import rref
from kll.numfield import NumberField
from kll.traceorders import (Mat2, build_order, jorgensen_involution,
                             CommutingGenerators, CommonFixedPoint)

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def solve_in_basis(basis, m):
    """Coordinates of m in the k-span of the basis (4x4 system over k)."""
    cols = [bm.flat() for bm in basis]
    aug = [[col[i] for col in cols] + [x] for i, x in enumerate(m.flat())]
    mat, pivots = rref(aug, 4)
    if len(pivots) < 4:
        return None
    return [row[4] for row in mat]


def random_pair(field, rng):
    def unimodular():
        m = Mat2.identity(field)
        for _ in range(rng.randint(2, 6)):
            x = field.element([rng.randint(-3, 3) for _ in range(field.degree)])
            rows = [[1, x], [0, 1]] if rng.random() < 0.5 else [[1, 0], [x, 1]]
            m = m * Mat2.from_rows(field, rows)
        return m

    a, b = unimodular(), unimodular()
    if rng.random() < 0.5:
        r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))
        g = Mat2.from_rows(field, [[r, 0], [0, 1]])
        a, b = g * a * g.inverse(), g * b * g.inverse()
    return a, b


def mismatches(field, count, rng):
    """(orders built, pairs refused, the (a, b, what) that differ)."""
    built, refused, bad = 0, 0, []
    for _ in range(count):
        a, b = random_pair(field, rng)
        ab, ba = a * b, b * a
        fricke = (ab * a.inverse() * b.inverse()).trace() - 2
        try:
            order = build_order(a, b)
        except CommutingGenerators:
            refused += 1
            if not fricke.is_zero():
                bad.append((a, b, "refused a spanning pair"))
        else:
            built += 1
            if order.basis[3] != ab or order.discriminant != fricke:
                bad.append((a, b, "basis or discriminant"))
            for (i, j), coords in order.structure_constants.items():
                want = solve_in_basis(order.basis, order.basis[i] * order.basis[j])
                if coords != want:
                    bad.append((a, b, f"structure constant ({i},{j})"))
        try:
            tau = jorgensen_involution(a, b)
        except CommonFixedPoint:
            if not (ab - ba).det().is_zero():
                bad.append((a, b, "refused a nonsingular ab - ba"))
        else:
            if tau != ab - ba:
                bad.append((a, b, "tau differs from ab - ba"))
    return built, refused, bad


def main(count):
    sys.path.insert(1, PERFBENCH)
    from workloads import ORDER_FIELDS
    rng = random.Random(113)
    for degree, polys in sorted(ORDER_FIELDS.items()):
        for poly in polys:
            t0 = time.time()
            built, refused, bad = mismatches(NumberField(poly), count, rng)
            print(f"{list(poly)}: {built} orders, {refused} refused, "
                  f"{len(bad)} mismatches ({time.time() - t0:.1f} s)", flush=True)
            if bad:
                raise SystemExit(f"first mismatch over {list(poly)}: {bad[0]}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
