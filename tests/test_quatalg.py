import random
import tracemalloc
from fractions import Fraction

import pytest

from kll import polys, quatalg
from kll.numfield import NumberField, split_prime
from kll.quatalg import (hilbert_symbol_qp, tau_n,
                         tau_n_norm, two_cos_minpoly, clozel_hypothesis,
                         dihedral_ramification_analysis,
                         RAMIFIED, SPLIT, SATISFIED, VIOLATED,
                         INFINITE_PLACE)

from exhaustive_symbols import mismatches, square_classes
from oracles import exhaustive_hilbert_split, two_cos_minpoly_by_square_root


def test_hilbert_symbol_named_cases():
    assert hilbert_symbol_qp(-1, -1, 2) == RAMIFIED
    assert hilbert_symbol_qp(-1, -1, 7) == SPLIT
    assert hilbert_symbol_qp(1, 17, 5) == SPLIT
    assert hilbert_symbol_qp(-1, -1, INFINITE_PLACE) == RAMIFIED
    assert hilbert_symbol_qp(-1, 3, INFINITE_PLACE) == SPLIT


def test_hilbert_symbol_against_exhaustive_oracle():
    rng = random.Random(41)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        a = rng.choice([1, -1, 2, -2, 3, 5, -5, 6, 7, -7, 10, 15])
        b = rng.choice([1, -1, 2, -2, 3, 5, -5, 6, 7, -7, 10, 15])
        # every entry has val_p <= 1, as the oracle requires
        oracle = exhaustive_hilbert_split(a, b, p)
        mine = hilbert_symbol_qp(a, b, p)
        assert (mine == SPLIT) == oracle, (a, b, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hilbert_symbol_square_class_sweep(p):
    # every pair of square classes, with integer entries and again as
    # reciprocals, whose units and valuations sit in the denominator;
    # CI runs p = 11 and 13
    checks, bad = mismatches(p)
    assert (checks, bad) == (2 * len(square_classes(p)) ** 2, [])


def test_hilbert_symbol_at_a_large_prime_needs_no_table():
    # a unit pair at an odd p is split; deciding it allocates nothing
    # that grows with p
    tracemalloc.start()
    try:
        assert hilbert_symbol_qp(3, 5, 1_000_003) == SPLIT
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_hilbert_symbol_rational_entries():
    # square-class invariance also covers denominators
    assert hilbert_symbol_qp(Fraction(-1, 4), -1, 2) == RAMIFIED
    assert hilbert_symbol_qp(Fraction(-1, 9), Fraction(-9), 2) == RAMIFIED


def test_unramified_criterion():
    # split at every p not dividing 2ab
    for a, b in [(3, 5), (-3, 7), (15, -7)]:
        for p in [11, 13, 17, 19, 101, 211, 499]:
            if (2 * a * b) % p:
                assert hilbert_symbol_qp(a, b, p) == SPLIT


def test_square_class_invariance():
    rng = random.Random(43)
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7, 11])
        a = rng.choice([-1, 2, 3, 5, -6, 7, 10])
        b = rng.choice([-1, 2, 3, 5, -6, 7, 10])
        t = rng.choice([2, 3, 5, Fraction(1, 2), Fraction(3, 4)])
        s = rng.choice([2, 3, 7, Fraction(1, 3)])
        assert hilbert_symbol_qp(a, b, p) == \
            hilbert_symbol_qp(a * t * t, b * s * s, p)


def test_parity_of_ramification():
    # entries supported on small primes ramify only at p | 2ab; total count
    # of ramified places (including the real one) is even
    rng = random.Random(47)
    for _ in range(50):
        a = rng.choice([-1, -2, 2, 3, -3, 5, -5, 7, -7, 6, 10, -15])
        b = rng.choice([-1, -2, 2, 3, -3, 5, -5, 7, -7, 6, 10, -15])
        support = {2}
        for val in (a, b):
            for q in polys._prime_factors_int(abs(val)):
                support.add(q)
        count = sum(1 for p in sorted(support)
                    if hilbert_symbol_qp(a, b, p) == RAMIFIED)
        if hilbert_symbol_qp(a, b, INFINITE_PLACE) == RAMIFIED:
            count += 1
        assert count % 2 == 0, (a, b)
        # spot-check a few primes outside the support
        for p in [101, 211]:
            assert hilbert_symbol_qp(a, b, p) == SPLIT


# ---------------------------------------------------------------------------
# tau_n

TWO_COS_MINPOLYS = {
    3: [1, 1],             # x + 1
    4: [0, 1],             # x
    5: [-1, 1, 1],         # x^2 + x - 1
    6: [-1, 1],            # x - 1
    7: [-1, -2, 1, 1],
    8: [-2, 0, 1],
    9: [1, -3, 0, 1],
    12: [-3, 0, 1],
}


def test_two_cos_minpolys():
    for n, expected in TWO_COS_MINPOLYS.items():
        assert two_cos_minpoly(n) == expected, n


def test_tau_values():
    assert tau_n(4).rational_value() == -4
    assert tau_n(3).rational_value() == -3
    t5 = tau_n(5)
    # tau_5 = c^2 - 4 = -3 - c in Q(c), c^2 + c - 1 = 0
    assert list(t5.coeffs) == [Fraction(-3), Fraction(-1)]


def test_tau_norms_prime_powers():
    # |N(tau_n)| is a power of p for n = p^t, exactly p for odd prime powers
    for n, p in [(3, 3), (5, 5), (7, 7), (9, 3)]:
        assert abs(tau_n_norm(n)) == p
    for n in (4, 8):
        nm = abs(tau_n_norm(n))
        while nm % 2 == 0:
            nm //= 2
        assert nm == 1


def test_tau_norm_units():
    for n in (12, 15, 20):
        assert abs(tau_n_norm(n)) == 1


def test_two_cos_minpoly_matches_square_root_oracle():
    for n in range(1, 61):
        assert two_cos_minpoly(n) == two_cos_minpoly_by_square_root(n), n


def test_tau_norm_resultant_vs_evaluation_oracle():
    # N(c^2 - 4) = Res(psi, x^2 - 4) for monic psi
    for n in range(3, 31):
        psi = two_cos_minpoly(n)
        assert tau_n_norm(n) == polys.resultant(psi, [-4, 0, 1]), n


def test_tau_norm_dichotomy_discrepancies():
    # the stated norm dichotomy fails at n = 6 and n = 10
    assert abs(tau_n_norm(6)) == 3
    assert abs(tau_n_norm(10)) == 5
    assert dihedral_ramification_analysis(6).lemma_discrepancy
    assert dihedral_ramification_analysis(10).lemma_discrepancy


def test_dihedral_analysis_cases():
    rep15 = dihedral_ramification_analysis(15)
    assert rep15.is_unit and rep15.case == "unit" and rep15.candidate_primes == ()
    rep4 = dihedral_ramification_analysis(4)
    assert rep4.case == "dyadic" and rep4.candidate_primes == (2,)
    rep9 = dihedral_ramification_analysis(9)
    assert rep9.case == "prime-power" and rep9.candidate_primes == (3,)
    assert not rep9.lemma_discrepancy
    rep6 = dihedral_ramification_analysis(6)
    assert rep6.case == "discrepancy" and rep6.candidate_primes == (3,)


# ---------------------------------------------------------------------------
# hypothesis checker

def test_clozel_quintic_violated():
    k = NumberField((1, 0, -2, -1, 0, 1))
    ram = [p for p in split_prime(k, 11) if p.residue_degree == 2]
    res = clozel_hypothesis(k, ram)
    assert res.status == VIOLATED
    assert res.witness.norm == 121


def test_clozel_empty_ramification():
    k = NumberField((1, 0, 1))
    assert clozel_hypothesis(k, []).status == SATISFIED


def test_clozel_satisfied_at_split_prime():
    # primes above 5 in Q(i) have local degree 1
    k = NumberField((1, 0, 1))
    ram = split_prime(k, 5)[:1]
    assert clozel_hypothesis(k, ram).status == SATISFIED

