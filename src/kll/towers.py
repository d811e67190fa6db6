"""Tower bookkeeping: the vertex-count recurrence for 2-fold cover
towers and its 2^i (1 + 24/i) lower bound.

The recurrence n_{i+1} >= 2 n_i - 4 (log2((n_i+2)/3) + 1) is decided
exactly: with K = 2 n_i - 4 - n_{i+1}, the step holds iff
(n_i + 2)^4 >= 81 * 2^K, an integer comparison.
"""

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import floor_log2


class HypothesisViolated(ValueError):
    """Base-level hypothesis (n_1 >= 50) fails."""


def _step_holds(n_i, n_next):
    """Exact test of n_next >= 2 n_i - 4 (log2((n_i+2)/3) + 1)."""
    k = 2 * n_i - 4 - n_next
    if k <= 0:
        return True
    return (n_i + 2) ** 4 >= 81 * (2 ** k)


def _minimal_next(n_i):
    """max(0, ceil(2 n_i - 4 (log2((n_i+2)/3) + 1))) for n_i >= 1, the
    least t >= 0 with _step_holds(n_i, t): the step holds iff
    2 n_i - 4 - t <= floor(log2((n_i + 2)^4 / 81)), one exact floor-log."""
    return max(0, 2 * n_i - 4 - floor_log2((n_i + 2) ** 4, 81))


@dataclass
class RecurrenceStep:
    level: int
    n: int
    n_next: int
    holds: bool
    small_n_warning: bool  # the chained estimate needs n_i >= 4


def recurrence_check(n_sequence):
    """Per-step verdicts for the cover-tower recurrence.  Needs at least
    two terms, each a vertex count n_i >= 1."""
    if len(n_sequence) < 2:
        raise ValueError(f"need at least two terms n_1, n_2; got {len(n_sequence)}")
    for i, n_i in enumerate(n_sequence, start=1):
        if n_i < 1:
            raise ValueError(f"n_{i} = {n_i} < 1")
    return [RecurrenceStep(level=i, n=n_i, n_next=n_next,
                           holds=_step_holds(n_i, n_next),
                           small_n_warning=n_i < 4)
            for i, (n_i, n_next) in enumerate(zip(n_sequence, n_sequence[1:]), start=1)]


@dataclass
class TowerBoundLevel:
    level: int
    minimal_n: int
    bound_num: int   # bound = 2^i (1 + 24/i) as an exact fraction num/den
    bound_den: int
    holds: bool


@dataclass
class TowerBoundReport:
    levels: list
    inf_quotient: Fraction  # inf n_i / 2^i over the computed prefix

    def all_hold(self):
        return all(lv.holds for lv in self.levels)


def tower_lower_bound(n1, depth):
    """Iterate the minimal recurrence sequence from n1 and compare each
    level against 2^i (1 + 24/i).  Requires n1 >= 50 and depth >= 1."""
    if n1 < 50:
        raise HypothesisViolated(f"n1 = {n1} < 50")
    if depth < 1:
        raise ValueError(f"depth = {depth} < 1")
    levels = []
    n = n1
    for i in range(1, depth + 1):
        scaled = 2 ** i * (i + 24)  # i * 2^i (1 + 24/i)
        bound = Fraction(scaled, i)
        levels.append(TowerBoundLevel(
            level=i, minimal_n=n,
            bound_num=bound.numerator, bound_den=bound.denominator,
            holds=n * i >= scaled))
        n = _minimal_next(n)
    inf_q = min(Fraction(lv.minimal_n, 2 ** lv.level) for lv in levels)
    return TowerBoundReport(levels=levels, inf_quotient=inf_q)


def auxiliary_inequality_holds(i):
    """24/i - (i+5)/2^(i-1) >= 24/(i+1), exactly."""
    lhs = Fraction(24, i) - Fraction(i + 5, 2 ** (i - 1))
    return lhs >= Fraction(24, i + 1)
