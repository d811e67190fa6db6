from fractions import Fraction

from kll.dyadic import log2_enclosure

from exhaustive_bounds import enclosure_mismatches, enclosure_sample


def test_log2_enclosure_repeated_call():
    for q in (8, Fraction(14, 3)):
        lo, hi = log2_enclosure(q)
        assert (lo, hi) == log2_enclosure(q) == log2_enclosure(Fraction(q))
        assert 0 < hi - lo < Fraction(1, 2 ** 64)
    lo, hi = log2_enclosure(8)
    assert lo <= 3 <= hi


def test_log2_enclosure_matches_fraction_reference():
    # equal (lo, hi) and width below 2^-64 on every q of the sample
    checks, bad = enclosure_mismatches(enclosure_sample())
    assert checks >= 2000
    assert bad == []
