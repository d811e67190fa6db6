"""Certified dyadic enclosures for log2, plus exact inequality helpers.

Every bound in this package that involves log2 is decided either by an
exact integer power comparison (preferred) or by an interval [lo, hi]
of dyadic rationals with lo <= log2(q) <= hi and width below 2^-60.
"""

from fractions import Fraction
from functools import lru_cache


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
def log2_enclosure(q, bits=64):
    """Return (lo, hi) Fractions with lo <= log2(q) <= hi, hi - lo < 2^-bits.

    q is a positive Fraction or int.  The result depends only on the
    arguments and is immutable, so repeated bounds are computed once.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log2 of non-positive value")
    num, den = q.numerator, q.denominator
    m = _floor_log2(num, den)
    # x = q / 2^m in [1, 2); track integer fixed-point bounds at P fractional bits
    work = bits + 10
    P = 1 << work
    if m >= 0:
        xlo = (num * P) // (den << m)
    else:
        xlo = ((num << -m) * P) // den
    xhi = xlo + 1  # floor and floor+1 bracket the real value

    acc_lo = Fraction(m)
    acc_hi = Fraction(m)
    s = Fraction(1)
    for _ in range(bits + 4):
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


class Enclosure:
    """Closed interval of Fractions with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo = Fraction(lo)
        self.hi = Fraction(lo if hi is None else hi)
        if self.lo > self.hi:
            raise ValueError("empty enclosure")

    @classmethod
    def log2(cls, q, bits=64):
        return cls(*log2_enclosure(q, bits))

    def __add__(self, other):
        other = _as_enc(other)
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_enc(other))

    def __rsub__(self, other):
        return _as_enc(other) + (-self)

    def __mul__(self, other):
        other = _as_enc(other)
        prods = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
        return Enclosure(min(prods), max(prods))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_enc(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("enclosure straddles zero")
        quots = [self.lo / other.lo, self.lo / other.hi,
                 self.hi / other.lo, self.hi / other.hi]
        return Enclosure(min(quots), max(quots))

    def square(self):
        if self.lo >= 0:
            return Enclosure(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Enclosure(self.hi * self.hi, self.lo * self.lo)
        return Enclosure(0, max(self.lo * self.lo, self.hi * self.hi))

    def definitely_positive(self):
        return self.lo > 0

    def definitely_nonpositive(self):
        return self.hi <= 0

    def __repr__(self):
        return f"Enclosure({self.lo}, {self.hi})"


def _as_enc(x):
    return x if isinstance(x, Enclosure) else Enclosure(x)
