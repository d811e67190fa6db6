import math
from fractions import Fraction

import pytest

from kll.towers import (recurrence_check, tower_lower_bound,
                        auxiliary_inequality_holds,
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

