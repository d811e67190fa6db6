"""fpgroups.gs_chained_threshold against a decimal evaluation of the
chained Golod-Shafarevich margin (d - 6 log2(d - 1) - 12)^2 / 4 - 3d + 2
for every 2 <= d <= N: log2(d - 1) as ln(d - 1) / ln 2 at 60 significant
digits must give a margin inside [margin_lo, margin_hi], each width must
be below 2^-40, and each decided verdict must be the sign of the decimal
margin.

    PYTHONPATH=src python tests/exhaustive_bounds.py N

Exits non-zero on any mismatch.  Not collected by pytest; tier 1 runs
N = 500.  Kept apart from tests/oracles.py, which the benchmark imports.
"""

import sys
import time
from decimal import Context
from fractions import Fraction

from kll.fpgroups import gs_chained_threshold

MAX_WIDTH = Fraction(1, 2 ** 40)


def mismatches(n):
    """(number of margins checked, the (d, reason) that fail)."""
    ctx = Context(prec=60)
    ln2 = ctx.ln(2)
    bad = []
    for d in range(2, n + 1):
        r = gs_chained_threshold(d)
        log2 = ctx.divide(ctx.ln(d - 1), ln2)
        base = ctx.subtract(d - 12, ctx.multiply(6, log2))
        margin = ctx.add(ctx.divide(ctx.multiply(base, base), 4), 2 - 3 * d)
        if not r.margin_lo <= margin <= r.margin_hi:
            bad.append((d, f"{margin} outside [{r.margin_lo}, {r.margin_hi}]"))
        elif r.margin_hi - r.margin_lo >= MAX_WIDTH:
            bad.append((d, f"width {float(r.margin_hi - r.margin_lo)}"))
        elif r.decided and r.holds != (margin > 0):
            bad.append((d, f"verdict {r.holds} against {margin}"))
    return n - 1, bad


def main(n):
    t0 = time.time()
    checks, bad = mismatches(n)
    print(f"d = 2..{n}: {len(bad)} of {checks} margins mismatched "
          f"({time.time() - t0:.1f} s)", flush=True)
    if bad:
        raise SystemExit(f"first mismatch: {bad[0]}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
