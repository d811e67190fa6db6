"""Certified dyadic enclosures for log2.

Every bound in this package that involves log2 is decided either
exactly on integers (preferred: one floor_log2 call decides a tower
step) or by an interval (lo, hi) of dyadic rationals, a pair of
Fractions with lo <= log2(q) <= hi and width below 2^-LOG2_BITS;
callers do the interval arithmetic they need on the two ends directly.
The enclosure collects its bits in integers and builds its two
Fractions once, at the end.
"""

from fractions import Fraction
from functools import lru_cache

# fractional bits of every log2 enclosure: hi - lo < 2^-LOG2_BITS
LOG2_BITS = 64


def floor_log2(num, den):
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
    m = floor_log2(num, den)
    # x = q / 2^m in [1, 2); track integer fixed-point bounds at `work` fractional bits
    work = LOG2_BITS + 10
    if m >= 0:
        xlo = (num << work) // (den << m)
    else:
        xlo = (num << (work - m)) // den
    xhi = xlo + 1  # floor and floor+1 bracket the real value

    # squaring x in [1, 2) gives the next bit of log2(x): 1 iff x^2 >= 2
    frac, two = LOG2_BITS + 4, 2 << work
    bits_lo = bits_hi = 0
    for _ in range(frac):
        xlo = (xlo * xlo) >> work
        xhi = -((-xhi * xhi) >> work)  # ceiling
        bits_lo <<= 1
        bits_hi <<= 1
        if xlo >= two:
            bits_lo |= 1
            xlo >>= 1
        if xhi >= two:
            bits_hi |= 1
            xhi = (xhi + 1) >> 1
    # residual: log2 of constants in [1/2, 4) bounded by [-1, 2] in the last bit
    return (Fraction((m << frac) + bits_lo - 1, 1 << frac),
            Fraction((m << frac) + bits_hi + 2, 1 << frac))
