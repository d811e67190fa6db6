import math
from fractions import Fraction

import pytest

from kll.dyadic import log2_enclosure
from kll.towers import (recurrence_check, tower_lower_bound,
                        auxiliary_inequality_holds,
                        HypothesisViolated, _minimal_next, _step_holds)

from exhaustive_bounds import minimal_next_mismatches


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


@pytest.mark.parametrize("seq, message", [
    ([], "need at least two terms n_1, n_2; got 0"),
    ([7], "need at least two terms n_1, n_2; got 1"),
    ([0, 5], "n_1 = 0 < 1"),
    ([50, -5, 7], "n_2 = -5 < 1"),
    ([50, 80, 0], "n_3 = 0 < 1"),
])
def test_recurrence_rejects_short_or_nonpositive(seq, message):
    with pytest.raises(ValueError) as err:
        recurrence_check(seq)
    assert str(err.value) == message


def test_step_matches_float_computation():
    for n in range(4, 400, 7):
        rhs = 2 * n - 4 * (math.log2((n + 2) / 3) + 1)
        for cand in (int(rhs) - 1, int(rhs), int(rhs) + 1, int(rhs) + 2):
            expected = cand >= rhs - 1e-9
            # near-tie floats are unreliable; trust only clear cases
            if abs(cand - rhs) > 1e-6:
                assert _step_holds(n, cand) == expected, (n, cand)


def _minimal_next_by_search(n_i):
    """The search that _minimal_next replaced: start below the minimum
    from a log2 enclosure, then step to it with the exact test."""
    lo, hi = log2_enclosure(Fraction(n_i + 2, 3))
    t = max(2 * n_i - 4 - int(4 * hi) - 2, 0)
    while not _step_holds(n_i, t):
        t += 1
    while t > 0 and _step_holds(n_i, t - 1):
        t -= 1
    return t


def test_minimal_next_values():
    # ceil(2*50 - 4(log2(52/3)+1)) = ceil(79.538) = 80
    assert _minimal_next(50) == 80
    assert _minimal_next(80) == 137
    # n = 3 * 2^j - 2 are the exact ties: (n + 2)^4 = 81 * 2^(4j)
    ties = [3 * 2 ** j - 2 for j in range(201)]
    assert all((n + 2) ** 4 == 81 * 2 ** (4 * j) for j, n in enumerate(ties))
    powers = [2 ** k + e for k in range(1, 201) for e in (-1, 1)]
    for n in [*range(1, 20001), *powers, *ties]:
        t = _minimal_next(n)
        assert _step_holds(n, t), n
        # the least t >= 0; below n = 5 the step holds even at t = 0
        assert (t == 0 and n < 5) or not _step_holds(n, t - 1), n
        assert t == _minimal_next_by_search(n), n


def test_minimal_next_matches_decimal_ceiling():
    checks, bad = minimal_next_mismatches(500)
    assert (checks, bad) == (492, [])  # 500 less the 8 ties n <= 382


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

