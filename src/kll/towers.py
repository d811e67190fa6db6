"""Tower bookkeeping: the vertex-count recurrence for 2-fold cover
towers, its 2^i (1 + 24/i) lower bound, linear-growth-of-homology
quotients, and Euler-characteristic multiplicativity along covers.

The recurrence n_{i+1} >= 2 n_i - 4 (log2((n_i+2)/3) + 1) is decided
exactly: with K = 2 n_i - 4 - n_{i+1}, the step holds iff
(n_i + 2)^4 >= 81 * 2^K, an integer comparison.
"""

import csv
import io
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .dyadic import log2_enclosure


class HypothesisViolated(ValueError):
    """Base-level hypothesis (n_1 >= 50) fails."""


def _step_holds(n_i, n_next):
    """Exact test of n_next >= 2 n_i - 4 (log2((n_i+2)/3) + 1)."""
    k = 2 * n_i - 4 - n_next
    if k <= 0:
        return True
    return (n_i + 2) ** 4 >= 81 * (2 ** k)


def _minimal_next(n_i):
    """ceil(2 n_i - 4 (log2((n_i+2)/3) + 1)), exactly."""
    lo, hi = log2_enclosure(Fraction(n_i + 2, 3))
    approx = 2 * n_i - 4 - int(4 * hi) - 2
    t = max(approx, 0)
    while not _step_holds(n_i, t):
        t += 1
    while t > 0 and _step_holds(n_i, t - 1):
        t -= 1
    return t


@dataclass
class RecurrenceStep:
    level: int
    n: int
    n_next: int
    holds: bool
    small_n_warning: bool  # the chained estimate needs n_i >= 4


def recurrence_check(n_sequence):
    """Per-step verdicts for the cover-tower recurrence."""
    if not n_sequence or n_sequence[0] < 1:
        raise ValueError("need a sequence starting at n_1 >= 1")
    out = []
    for i in range(len(n_sequence) - 1):
        n_i, n_next = n_sequence[i], n_sequence[i + 1]
        out.append(RecurrenceStep(
            level=i + 1, n=n_i, n_next=n_next,
            holds=_step_holds(n_i, n_next),
            small_n_warning=n_i < 4))
    return out


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
        bound = Fraction(2 ** i) * (1 + Fraction(24, i))
        holds = Fraction(n) >= bound
        levels.append(TowerBoundLevel(
            level=i, minimal_n=n,
            bound_num=bound.numerator, bound_den=bound.denominator,
            holds=holds))
        n = _minimal_next(n)
    inf_q = min(Fraction(lv.minimal_n, 2 ** lv.level) for lv in levels)
    return TowerBoundReport(levels=levels, inf_quotient=inf_q)


def auxiliary_inequality_holds(i):
    """24/i - (i+5)/2^(i-1) >= 24/(i+1), exactly."""
    lhs = Fraction(24, i) - Fraction(i + 5, 2 ** (i - 1))
    return lhs >= Fraction(24, i + 1)


def doubling_monotone_at(x):
    """2(x+1) - 4 log2(x+1) >= 2x - 4 log2(x) iff (x+1)^2 <= 2 x^2."""
    return (x + 1) ** 2 <= 2 * x * x


@dataclass
class TowerRecord:
    """Measured data along a tower of finite covers/subgroups."""

    levels: list = dc_field(default_factory=list)
    # each level: dict with keys degree, d_p, and optionally
    # vertex_count, chi_sing_minus

    def add(self, degree, d_p, vertex_count=None, chi_sing_minus=None):
        if self.levels and degree % self.levels[-1]["degree"] != 0:
            raise ValueError("degrees in a nested tower must divide each other")
        if self.levels and degree <= self.levels[-1]["degree"]:
            raise ValueError("degrees must strictly increase")
        self.levels.append({"degree": degree, "d_p": d_p,
                            "vertex_count": vertex_count,
                            "chi_sing_minus": chi_sing_minus})

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["level", "degree", "d_p", "quotient"])
        for i, lv in enumerate(self.levels, start=1):
            w.writerow([i, lv["degree"], lv["d_p"],
                        str(Fraction(lv["d_p"], lv["degree"]))])
        return buf.getvalue()


@dataclass
class GrowthReport:
    quotients: list
    infimum: Fraction
    positive: bool


def linear_growth_report(record):
    """d_p / degree over the prefix; the infimum claim is prefix-only."""
    if not record.levels:
        raise ValueError("empty tower record")
    quots = [Fraction(lv["d_p"], lv["degree"]) for lv in record.levels]
    inf_q = min(quots)
    return GrowthReport(quotients=quots, infimum=inf_q, positive=inf_q > 0)


def euler_multiplicativity_check(base_chi, levels):
    """chi at each level must equal base_chi * degree; returns
    (ok, first bad level or None).  With b1 >= |chi| this certifies
    linear homology growth for the tower."""
    for idx, (degree, chi) in enumerate(levels, start=1):
        if chi != base_chi * degree:
            return False, idx
    return True, None
