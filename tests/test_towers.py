import math
from fractions import Fraction

import pytest

from kll.towers import (recurrence_check, tower_lower_bound, TowerRecord,
                        linear_growth_report, euler_multiplicativity_check,
                        auxiliary_inequality_holds, doubling_monotone_at,
                        HypothesisViolated, _minimal_next, _step_holds)


def test_recurrence_examples():
    steps = recurrence_check([50, 80, 140])
    assert all(s.holds for s in steps)
    steps = recurrence_check([50, 60])
    assert not steps[0].holds
    steps = recurrence_check([50, 100, 200])
    assert all(s.holds for s in steps)


def test_recurrence_small_n_warning():
    steps = recurrence_check([2, 4])
    assert steps[0].small_n_warning


def test_step_matches_float_computation():
    for n in range(4, 400, 7):
        rhs = 2 * n - 4 * (math.log2((n + 2) / 3) + 1)
        for cand in (int(rhs) - 1, int(rhs), int(rhs) + 1, int(rhs) + 2):
            expected = cand >= rhs - 1e-9
            # near-tie floats are unreliable; trust only clear cases
            if abs(cand - rhs) > 1e-6:
                assert _step_holds(n, cand) == expected, (n, cand)


def test_minimal_next_values():
    # ceil(2*50 - 4(log2(52/3)+1)) = ceil(79.538) = 80
    assert _minimal_next(50) == 80
    assert _minimal_next(80) == 137
    for n in (50, 73, 129):
        t = _minimal_next(n)
        assert _step_holds(n, t)
        assert not _step_holds(n, t - 1)


def test_tower_lower_bound_depth1_equality():
    rep = tower_lower_bound(50, 1)
    lv = rep.levels[0]
    assert Fraction(lv.bound_num, lv.bound_den) == 50
    assert lv.holds


def test_tower_lower_bound_depth10():
    rep = tower_lower_bound(50, 10)
    assert rep.all_hold()
    assert rep.inf_quotient >= 1


def test_tower_lower_bound_depth30_exhaustive_range():
    for n1 in (50, 75, 120, 200):
        rep = tower_lower_bound(n1, 30)
        assert rep.all_hold(), n1


def test_tower_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        tower_lower_bound(49, 5)
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth"):
            tower_lower_bound(50, depth)


def test_auxiliary_inequality_up_to_64():
    for i in range(1, 65):
        assert auxiliary_inequality_holds(i), i


def test_doubling_monotonicity_integer_samples():
    # 2x - 4 log2 x increasing for x > 2/log 2 ~ 2.885
    for x in range(3, 200):
        assert doubling_monotone_at(x), x


def test_linear_growth_report():
    rec = TowerRecord()
    for i in (1, 2, 4, 8):
        rec.add(degree=i, d_p=i)
    rep = linear_growth_report(rec)
    assert rep.infimum == 1 and rep.positive

    rec2 = TowerRecord()
    for i in (1, 2, 4, 8, 16):
        rec2.add(degree=i, d_p=2)
    rep2 = linear_growth_report(rec2)
    assert rep2.infimum == Fraction(2, 16)
    assert rep2.positive  # positive on the prefix; the trend is the caller's call


def test_tower_record_validation():
    rec = TowerRecord()
    rec.add(degree=2, d_p=3)
    with pytest.raises(ValueError):
        rec.add(degree=3, d_p=3)  # 2 does not divide 3
    with pytest.raises(ValueError):
        rec.add(degree=2, d_p=4)  # not increasing


def test_euler_multiplicativity():
    ok, bad = euler_multiplicativity_check(-1, [(2, -2), (4, -4), (8, -8)])
    assert ok and bad is None
    ok, bad = euler_multiplicativity_check(-1, [(2, -2), (4, -5)])
    assert not ok and bad == 2


def test_csv_export():
    rec = TowerRecord()
    rec.add(degree=2, d_p=3)
    rec.add(degree=4, d_p=5)
    csv_text = rec.to_csv()
    assert "level,degree,d_p,quotient" in csv_text
    assert "5/4" in csv_text
