"""Certified dyadic enclosures for log2.

Every bound in this package that involves log2 is decided either by an
exact integer power comparison (preferred) or by an interval (lo, hi)
of dyadic rationals, a pair of Fractions with lo <= log2(q) <= hi and
width below 2^-LOG2_BITS; callers do the interval arithmetic they need
on the two ends directly.
"""

from fractions import Fraction
from functools import lru_cache

# fractional bits of every log2 enclosure: hi - lo < 2^-LOG2_BITS
LOG2_BITS = 64


def _floor_log2(num, den):
    """Largest m with 2^m <= num/den (num, den positive integers)."""
    m = num.bit_length() - den.bit_length()
    # candidate m or m-1/m+1; fix up exactly
    while not (den << m <= num if m >= 0 else den <= num << -m):
        m -= 1
    while (den << (m + 1) <= num if m + 1 >= 0 else den <= num << -(m + 1)):
        m += 1
    return m


@lru_cache(maxsize=1024)
def log2_enclosure(q):
    """Return (lo, hi) Fractions with lo <= log2(q) <= hi and
    hi - lo < 2^-LOG2_BITS.

    q is a positive Fraction or int.  The result depends only on q and
    is immutable, so repeated bounds are computed once.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log2 of non-positive value")
    num, den = q.numerator, q.denominator
    m = _floor_log2(num, den)
    # x = q / 2^m in [1, 2); track integer fixed-point bounds at P fractional bits
    work = LOG2_BITS + 10
    P = 1 << work
    if m >= 0:
        xlo = (num * P) // (den << m)
    else:
        xlo = ((num << -m) * P) // den
    xhi = xlo + 1  # floor and floor+1 bracket the real value

    acc_lo = Fraction(m)
    acc_hi = Fraction(m)
    s = Fraction(1)
    for _ in range(LOG2_BITS + 4):
        s /= 2
        xlo = (xlo * xlo) // P
        xhi = -((-xhi * xhi) // P)  # ceiling
        if xlo >= 2 * P:
            acc_lo += s
            xlo //= 2
        if xhi >= 2 * P:
            acc_hi += s
            xhi = -((-xhi) // 2)
    # residual: log2 of constants in [1/2, 4) bounded by [-1, 2] scaled by s
    lo = acc_lo - s
    hi = acc_hi + 2 * s
    return lo, hi
