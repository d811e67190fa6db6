from fractions import Fraction

from kll.dyadic import log2_enclosure


def test_log2_enclosure_repeated_call():
    for q in (8, Fraction(14, 3)):
        lo, hi = log2_enclosure(q)
        assert (lo, hi) == log2_enclosure(q) == log2_enclosure(Fraction(q))
        assert 0 < hi - lo < Fraction(1, 2 ** 64)
    lo, hi = log2_enclosure(8)
    assert lo <= 3 <= hi
