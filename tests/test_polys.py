import random
from fractions import Fraction

from kll import polys
from kll.counting import _is_prime
from kll.numfield import _next_prime
from kll.quatalg import _euler_phi

from oracles import brute_factor_modp, grid_real_root_count


def test_mul_divmod_roundtrip():
    rng = random.Random(5)
    for _ in range(60):
        f = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [1]
        g = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1]
        q, r = polys.divmod_exact(f, g)
        assert polys.add(polys.mul(q, g), r) == [Fraction(c) for c in polys.normalize(f)]


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
                prod = polys.modp_mul(prod, list(g), p)
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
    assert polys.is_irreducible_modp([1, 2, 0, 1], 3) in (True, False)


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
    assert [n for n in range(-3, n_max + 1) if _is_prime(n)] == primes
    assert [_euler_phi(n) for n in range(1, n_max + 1)] == phi[1:]
    for p, q in zip(primes, primes[1:]):
        assert _next_prime(p) == q and _next_prime(q - 1) == q
    m31 = 2 ** 31 - 1
    assert _is_prime(m31) and _next_prime(m31 - 1) == m31
    assert not _is_prime(65521 ** 2)
    assert _euler_phi(65521 ** 2) == 65521 * 65520
    # past the float range, where n ** 0.5 overflows
    assert not _is_prime(2 ** 1100) and _euler_phi(2 ** 1100) == 2 ** 1099
