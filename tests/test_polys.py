import random

from kll import polys
from kll.numfield import _next_prime
from kll.quatalg import _euler_phi

from exhaustive_modp import frobenius_mismatch, monic_polynomials, repeated_mismatches
from exhaustive_sturm import mismatches
from oracles import (_divmod_q, _is_irreducible_by_trial, brute_factor_modp,
                     fraction_resultant, grid_real_root_count)


def test_mul_divmod_roundtrip():
    # lc(g)^e f = q g + r with deg r < deg g, e = max(deg f - deg g + 1, 0)
    rng = random.Random(5)
    for _ in range(200):
        f = polys.normalize([rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
        g = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))] + [rng.choice([1, -1, 2, -3])]
        q, r = polys.pseudo_divmod(f, g)
        e = max(len(f) - len(g) + 1, 0)
        assert polys.add(polys.mul(q, g), r) == polys.scale(f, g[-1] ** e)
        assert polys.degree(r) < polys.degree(g)
        if g[-1] == 1:
            assert (q, r) == _divmod_q(f, g)


def test_discriminants_known():
    assert polys.discriminant([1, 0, 1]) == -4        # x^2 + 1
    assert polys.discriminant([-5, 0, 1]) == 20       # x^2 - 5
    assert polys.discriminant([1, 1, 1]) == -3        # x^2 + x + 1
    assert polys.discriminant([-2, 0, 0, 1]) == -108  # x^3 - 2


def test_resultant_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        f = [rng.randint(-3, 3) for _ in range(3)] + [1]
        g = [rng.randint(-3, 3) for _ in range(2)] + [1]
        h = [rng.randint(-3, 3) for _ in range(2)] + [1]
        lhs = polys.resultant(f, polys.mul(g, h))
        rhs = polys.resultant(f, g) * polys.resultant(f, h)
        assert lhs == rhs


def test_resultant_and_discriminant_match_fraction_oracle():
    rng = random.Random(13)
    for _ in range(300):
        f, g = ([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))]
                for _ in range(2))
        assert polys.resultant(f, g) == fraction_resultant(f, g), (f, g)
        f = polys.normalize(f)
        if polys.degree(f) >= 1:
            d = polys.degree(f)
            sign = -1 if (d * (d - 1) // 2) % 2 else 1
            want = sign * fraction_resultant(f, polys.derivative(f)) / f[-1]
            assert polys.discriminant(f) == want, f


def test_resultant_matches_fraction_oracle_with_common_factors():
    # Sylvester matrices up to 22 x 22; a shared factor makes Res zero
    rng = random.Random(23)
    zeros = 0
    for t in range(150):
        f, g = ([rng.randint(-5, 5) for _ in range(rng.randint(1, 9))]
                for _ in range(2))
        if t % 2:
            h = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [rng.choice((1, -2))]
            f, g = polys.mul(f, h), polys.mul(g, h)
        res = polys.resultant(f, g)
        assert type(res) is int and res == fraction_resultant(f, g), (f, g)
        zeros += res == 0
    assert zeros >= 75


def test_sturm_vs_grid_oracle():
    rng = random.Random(7)
    done = 0
    while done < 100:
        d = rng.randint(2, 6)
        f = [rng.randint(-6, 6) for _ in range(d)] + [1]
        if not polys.is_squarefree(f):
            continue
        # grid oracle is reliable only when roots are separated; widen the
        # grid until two refinements agree
        c1 = grid_real_root_count(f, steps_per_unit=64)
        c2 = grid_real_root_count(f, steps_per_unit=128)
        if c1 != c2:
            continue
        assert polys.count_real_roots(f) == c1, f
        done += 1


def test_sturm_count_sweep_to_degree_3():
    # tests/exhaustive_sturm.py runs the same sweep to degree 5
    assert mismatches(3) == (2790, [])


def test_factor_modp_matches_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(2, 5)
        f = [rng.randrange(p) for _ in range(d)] + [1]
        mine = polys.factor_modp(f, p)
        prod = [1]
        flat = []
        for g, e in mine:
            for _ in range(e):
                prod = polys.modp(polys.mul(prod, g), p)
                flat.append(tuple(g))
        assert prod == polys.modp(f, p)
        assert sorted(flat) == sorted(brute_factor_modp(f, p))


def test_factor_modp_multiplicities():
    # x^2 + 1 = (x+1)^2 mod 2
    assert polys.factor_modp([1, 0, 1], 2) == [((1, 1), 2)]
    # x^2 + 1 = (x-2)(x+2) mod 5
    fs = polys.factor_modp([1, 0, 1], 5)
    assert [e for _, e in fs] == [1, 1]
    assert len(fs) == 2


def test_irreducibility_modp():
    assert polys.is_irreducible_modp([1, 1, 1], 2)        # x^2+x+1
    assert not polys.is_irreducible_modp([1, 0, 1], 2)    # (x+1)^2
    # every monic polynomial of degree 1-4 mod 2, 3 and 5 and of degree
    # 5-6 mod 2, against trial division
    cases = [(p, 1, 4) for p in (2, 3, 5)] + [(2, 5, 6)]
    checks = 0
    for p, low, high in cases:
        for f in monic_polynomials(p, low, high):
            assert polys.is_irreducible_modp(f, p) == _is_irreducible_by_trial(f, p), (f, p)
            checks += 1
    assert checks == 30 + 120 + 780 + 96


def test_factor_modp_repeated_factors():
    # g^2 h and g^3 up to degree 7 at p <= 13: multiplicities against
    # trial division, and never irreducible
    assert repeated_mismatches(300, max_degree=7) == (900, [])


def test_frobenius_matrix_rows():
    # row i of Q is x^(ip) mod f, by the oracle's long division
    rng = random.Random(40)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7, 11, 13, 31, 97])
        f = [rng.randrange(p) for _ in range(rng.randint(2, 9))] + [rng.randrange(1, p)]
        assert frobenius_mismatch(f, p) is None


def test_cauchy_bound_contains_roots():
    f = [-6, 1, 1]  # roots 2, -3
    b = polys.cauchy_bound(f)
    assert b > 3
    assert polys.count_real_roots(f) == 2


def test_trial_division_helpers_match_sieve():
    n_max = 10 ** 4
    sieve = [False, False] + [True] * (n_max - 1)
    phi = list(range(n_max + 1))
    for p in range(2, n_max + 1):
        if sieve[p]:
            for m in range(2 * p, n_max + 1, p):
                sieve[m] = False
            for m in range(p, n_max + 1, p):
                phi[m] -= phi[m] // p
    primes = [p for p in range(n_max + 1) if sieve[p]]
    assert [n for n in range(-3, n_max + 1) if polys.is_prime(n)] == primes
    assert [_euler_phi(n) for n in range(1, n_max + 1)] == phi[1:]
    for p, q in zip(primes, primes[1:]):
        assert _next_prime(p) == q and _next_prime(q - 1) == q
    m31 = 2 ** 31 - 1
    assert polys.is_prime(m31) and _next_prime(m31 - 1) == m31
    assert not polys.is_prime(65521 ** 2)
    assert _euler_phi(65521 ** 2) == 65521 * 65520
    # past the float range, where n ** 0.5 overflows
    assert not polys.is_prime(2 ** 1100) and _euler_phi(2 ** 1100) == 2 ** 1099
