"""Certified log2 bounds against independent evaluations.

- fpgroups.gs_chained_threshold against a decimal evaluation of the
  chained Golod-Shafarevich margin (d - 6 log2(d - 1) - 12)^2 / 4 - 3d + 2
  for every 2 <= d <= N: log2(d - 1) as ln(d - 1) / ln 2 at 60
  significant digits must give a margin inside [margin_lo, margin_hi],
  each width must be below 2^-40, and each decided verdict must be the
  sign of the decimal margin.
- towers._minimal_next(n) against the 60-digit decimal
  max(0, ceil(2n - 4 (log2((n + 2)/3) + 1))) for every 1 <= n <= N but
  the exact ties n = 3 * 2^j - 2, where the decimal ceiling cannot be
  trusted (tests/test_towers.py checks those exactly).
- dyadic.log2_enclosure against reference_log2_enclosure, the
  Fraction-accumulator loop it replaced, on enclosure_sample(): equal
  (lo, hi) and every width below 2^-64.

    PYTHONPATH=src python tests/exhaustive_bounds.py N

Exits non-zero on any mismatch.  Not collected by pytest; tier 1 runs
N = 500 and the whole enclosure sample.  Kept apart from
tests/oracles.py, which the benchmark imports.
"""

import random
import sys
import time
from decimal import ROUND_CEILING, Context
from fractions import Fraction

from kll.dyadic import LOG2_BITS, floor_log2, log2_enclosure
from kll.fpgroups import gs_chained_threshold
from kll.towers import _minimal_next

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


def minimal_next_mismatches(n):
    """(number of n checked, the (n, reason) that fail)."""
    ctx = Context(prec=60)
    ln2 = ctx.ln(2)
    checks, bad = 0, []
    for k in range(1, n + 1):
        q, r = divmod(k + 2, 3)
        if r == 0 and q & (q - 1) == 0:
            continue  # log2((k + 2)/3) is an integer: an exact tie
        checks += 1
        log2 = ctx.divide(ctx.ln(ctx.divide(k + 2, 3)), ln2)
        rhs = ctx.subtract(2 * k, ctx.multiply(4, ctx.add(log2, 1)))
        want = max(0, int(rhs.to_integral_value(rounding=ROUND_CEILING)))
        if _minimal_next(k) != want:
            bad.append((k, f"{_minimal_next(k)} against ceil({rhs})"))
    return checks, bad


def reference_log2_enclosure(q):
    """The Fraction-accumulator enclosure that dyadic.log2_enclosure
    replaced: each fractional bit adds a halving Fraction s to its end."""
    q = Fraction(q)
    num, den = q.numerator, q.denominator
    m = floor_log2(num, den)
    work = LOG2_BITS + 10
    P = 1 << work
    if m >= 0:
        xlo = (num * P) // (den << m)
    else:
        xlo = ((num << -m) * P) // den
    xhi = xlo + 1
    acc_lo = Fraction(m)
    acc_hi = Fraction(m)
    s = Fraction(1)
    for _ in range(LOG2_BITS + 4):
        s /= 2
        xlo = (xlo * xlo) // P
        xhi = -((-xhi * xhi) // P)
        if xlo >= 2 * P:
            acc_lo += s
            xlo //= 2
        if xhi >= 2 * P:
            acc_hi += s
            xhi = -((-xhi) // 2)
    return acc_lo - s, acc_hi + 2 * s


def enclosure_sample(seed=0):
    """Distinct positive q: below 1, 1 itself, 2^+-k, the tower's
    (n + 2)/3 for n <= 2,000, the Golod-Shafarevich d - 1, and random
    large numerators and denominators."""
    rng = random.Random(seed)
    qs = {Fraction(1)}
    qs.update(Fraction(rng.randrange(1, 10 ** 6), 10 ** 6 + 1) for _ in range(100))
    qs.update(Fraction(1, k) for k in range(2, 100))
    qs.update(Fraction(2) ** k for k in range(-150, 151))
    qs.update(Fraction(n + 2, 3) for n in range(1, 2001))
    qs.update(Fraction(d - 1) for d in range(2, 501))
    qs.update(Fraction(rng.getrandbits(rng.randrange(64, 400)) | 1,
                       rng.getrandbits(rng.randrange(1, 400)) | 1)
              for _ in range(300))
    return sorted(qs)


def enclosure_mismatches(qs):
    """(number of q checked, the (q, reason) that fail)."""
    max_width = Fraction(1, 2 ** LOG2_BITS)
    bad = []
    for q in qs:
        lo, hi = log2_enclosure(q)
        if (lo, hi) != reference_log2_enclosure(q):
            bad.append((q, f"({lo}, {hi}) against the reference"))
        elif not 0 < hi - lo < max_width:
            bad.append((q, f"width {float(hi - lo)}"))
    return len(qs), bad


def main(n):
    for name, run in (("d = 2..%d: margins" % n, lambda: mismatches(n)),
                      ("n = 1..%d: minimal next terms" % n,
                       lambda: minimal_next_mismatches(n)),
                      ("enclosures", lambda: enclosure_mismatches(enclosure_sample()))):
        t0 = time.time()
        checks, bad = run()
        print(f"{name}: {len(bad)} of {checks} mismatched "
              f"({time.time() - t0:.1f} s)", flush=True)
        if bad:
            raise SystemExit(f"first mismatch: {bad[0]}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
