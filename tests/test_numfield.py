import random
from fractions import Fraction
from math import gcd

import pytest

from kll import polys
from kll.numfield import (NumberField, PrimeIdeal, ReduciblePolynomial, dot,
                          NonMonogenicPrime, signature, split_prime,
                          poly_discriminant, local_quadratic_subextension,
                          certify_irreducible, dedekind_criterion_ok,
                          CONTAINS, DOES_NOT_CONTAIN, UNDECIDED)

from oracles import _divmod_q, _mul_q, brute_factor_modp, grid_real_root_count

QUINTIC = (1, 0, -2, -1, 0, 1)          # x^5 - x^3 - 2x^2 + 1
SEXTIC = (1, -1, -2, 2, -1, -1, 1)      # x^6 - x^5 - x^4 + 2x^3 - 2x^2 - x + 1


def test_signature_quintic():
    assert signature(NumberField(QUINTIC)) == (3, 1)


def test_signature_sextic():
    assert signature(NumberField(SEXTIC)) == (4, 1)


def test_signature_gaussian():
    assert signature(NumberField((1, 0, 1))) == (0, 1)


def test_signature_rejects_reducible():
    with pytest.raises(ReduciblePolynomial):
        signature(NumberField((-1, 0, 1)))  # x^2 - 1 has rational roots


@pytest.mark.parametrize("coeffs", [(1.5, 0, 1), (True, 0, 1), (Fraction(1), 0, 1)])
def test_number_field_rejects_non_integer_coefficients(coeffs):
    with pytest.raises(ValueError, match="integer coefficients"):
        NumberField(coeffs)


def test_repeated_factor_rejected():
    with pytest.raises(ReduciblePolynomial):
        NumberField((1, 2, 1))  # (x+1)^2


def test_split_prime_quintic_at_11():
    primes = split_prime(NumberField(QUINTIC), 11)
    norm_121 = [p for p in primes if p.residue_degree == 2]
    assert len(norm_121) == 1
    assert norm_121[0].norm == 121
    assert norm_121[0].ramification_index == 1
    # cross-check against the brute-force factorization
    brute = brute_factor_modp(list(QUINTIC), 11)
    assert sorted(len(g) - 1 for g in brute) == \
        sorted(p.residue_degree for p in primes for _ in range(p.ramification_index))


def test_split_gaussian_at_5_and_2():
    k = NumberField((1, 0, 1))
    at5 = split_prime(k, 5)
    assert sorted((p.ramification_index, p.residue_degree) for p in at5) == \
        [(1, 1), (1, 1)]
    at2 = split_prime(k, 2)
    assert [(p.ramification_index, p.residue_degree) for p in at2] == [(2, 1)]


def test_split_prime_sum_ef_equals_degree():
    rng = random.Random(17)
    tried = 0
    while tried < 50:
        d = rng.randint(2, 5)
        coeffs = [rng.randint(-4, 4) for _ in range(d)] + [1]
        try:
            k = NumberField(tuple(coeffs))
        except (ReduciblePolynomial, ValueError):
            continue
        p = rng.choice([2, 3, 5, 7, 11])
        try:
            primes = split_prime(k, p)
        except NonMonogenicPrime:
            continue
        assert sum(q.ramification_index * q.residue_degree for q in primes) == d
        tried += 1


def test_dedekind_criterion_example():
    # Z[sqrt 2] is maximal: criterion holds at 2 despite 4 | disc = 8
    assert dedekind_criterion_ok([-2, 0, 1], 2)
    # Z[i] is maximal: criterion holds at 2 despite 4 | disc = -4
    assert dedekind_criterion_ok([1, 0, 1], 2)
    # (1 + sqrt(-3))/2 is integral, so Z[sqrt(-3)] has index 2
    assert not dedekind_criterion_ok([3, 0, 1], 2)
    # theta = 2 sqrt(3): index divisible by 2
    assert not dedekind_criterion_ok([-12, 0, 1], 2)


def test_split_prime_nonmonogenic_raises():
    with pytest.raises(NonMonogenicPrime):
        split_prime(NumberField((-12, 0, 1)), 2)


def test_poly_discriminants():
    assert poly_discriminant(NumberField((1, 0, 1))) == -4
    assert poly_discriminant(NumberField((-5, 0, 1))) == 20
    disc = poly_discriminant(NumberField(SEXTIC))
    quot = Fraction(disc, -104483)
    assert quot.denominator == 1 and quot.numerator > 0
    assert polys.is_perfect_square(quot.numerator)


def test_local_quadratic_subextension_cases():
    assert local_quadratic_subextension(PrimeIdeal(11, 2, 1)) == CONTAINS
    assert local_quadratic_subextension(PrimeIdeal(3, 1, 1)) == DOES_NOT_CONTAIN
    assert local_quadratic_subextension(PrimeIdeal(2, 1, 2)) == UNDECIDED
    assert local_quadratic_subextension(PrimeIdeal(3, 1, 2)) == CONTAINS  # tame ramified
    assert local_quadratic_subextension(PrimeIdeal(2, 2, 1)) == CONTAINS  # unramified quad


def test_signature_parity_invariant():
    rng = random.Random(23)
    done = 0
    while done < 100:
        d = rng.randint(2, 6)
        coeffs = [rng.randint(-6, 6) for _ in range(d)] + [1]
        if not polys.is_squarefree(coeffs):
            continue
        try:
            k = NumberField(tuple(coeffs))
            r1, r2 = signature(k)
        except (ReduciblePolynomial, ValueError):
            continue
        assert r1 + 2 * r2 == d
        assert (r1 - d) % 2 == 0
        done += 1


def test_sturm_against_grid_on_random_sextics():
    rng = random.Random(29)
    done = 0
    while done < 100:
        d = rng.randint(2, 6)
        f = [rng.randint(-6, 6) for _ in range(d)] + [1]
        if not polys.is_squarefree(f):
            continue
        c1 = grid_real_root_count(f, steps_per_unit=64)
        c2 = grid_real_root_count(f, steps_per_unit=128)
        if c1 != c2:
            continue
        assert polys.count_real_roots(f) == c1
        done += 1


def test_field_element_arithmetic():
    k = NumberField((-2, 0, 1))  # Q(sqrt 2)
    s = k.generator()
    assert (s * s).rational_value() == 2
    inv = s.inverse()
    assert (s * inv).rational_value() == 1
    assert (s / 2 * s).rational_value() == 1
    half = k.element([Fraction(1, 2)])
    assert not half.is_integral()
    assert s.is_integral()
    assert (s + 1).is_integral()
    assert s.norm() == -2
    assert s.trace() == 0
    assert (s + 1).norm() == -1   # (1+sqrt2)(1-sqrt2)


def test_scalar_over_element_is_scaled_inverse():
    k = NumberField((1, 0, -2, -1, 0, 1))  # the quintic
    x = k.element([2, -1, 0, Fraction(1, 3), 1])
    assert 1 / x == x.inverse()
    assert Fraction(3, 2) / x == x.inverse() * Fraction(3, 2)


def test_irreducibility_certificates():
    verdict, method = certify_irreducible([1, 0, -2, -1, 0, 1])
    assert verdict is True
    verdict, _ = certify_irreducible([-1, 0, 1])
    assert verdict is False
    verdict, _ = certify_irreducible([2, 0, 1])  # x^2 + 2
    assert verdict is True


def _random_element(k, rng):
    return k.element([Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                      for _ in range(rng.randint(0, k.degree))])


def _padded(k, coeffs):
    return coeffs + [0] * (k.degree - len(coeffs))


def test_products_and_inverses_match_fraction_reduction():
    rng = random.Random(37)
    for poly in [(3, 1), (-2, 0, 1), (-2, 0, 0, 1), (1, 0, 0, 0, 1),
                 QUINTIC, SEXTIC]:
        k = NumberField(poly)
        for _ in range(25):
            x, y = _random_element(k, rng), _random_element(k, rng)
            want = _divmod_q(_mul_q(x.coeffs, y.coeffs), poly)[1]
            assert list((x * y).coeffs) == _padded(k, want)
            assert x.den > 0 and gcd(x.den, *x.nums) == 1
            if x.is_zero():
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
            else:
                inv = x.inverse()
                assert _divmod_q(_mul_q(x.coeffs, inv.coeffs), poly)[1] == [1]
                assert inv.den > 0 and gcd(inv.den, *inv.nums) == 1
        # sums of 1 to 4 products over mixed denominators, zeros among them
        for _ in range(25):
            pairs = [tuple(k.zero() if rng.random() < 0.2 else _random_element(k, rng)
                           for _ in range(2)) for _ in range(rng.randint(1, 4))]
            total = [Fraction(0)] * (2 * k.degree - 1)
            for x, y in pairs:
                for i, c in enumerate(_mul_q(x.coeffs, y.coeffs)):
                    total[i] += c
            z = dot(k, pairs)
            assert list(z.coeffs) == _padded(k, _divmod_q(total, poly)[1])
            assert z.den > 0 and gcd(z.den, *z.nums) == 1
        # each reduction row is x^(d+i) mod f, as pseudo-division finds it
        for i, row in enumerate(k.reduction_rows):
            power = [0] * (k.degree + i) + [1]
            assert list(row) == _padded(k, polys.pseudo_divmod(power, list(poly))[1])
        assert len(k.reduction_rows) == k.degree - 1
        # an equal field built apart multiplies; a different field does not
        x = _random_element(k, rng)
        twin = NumberField(poly).element(list(x.coeffs))
        assert twin.field is not k and x * twin == x * x
        other = NumberField((1, 0, 1))
        with pytest.raises(ValueError, match="different fields"):
            x * other.one()
        with pytest.raises(ValueError, match="different fields"):
            dot(k, [(x, x), (x, other.one())])


def test_zero_divisor_has_no_inverse():
    # x - 1 divides zero in Q[x]/(x^2 - 1), which is not a field
    with pytest.raises(ZeroDivisionError):
        NumberField((-1, 0, 1)).element([-1, 1]).inverse()
