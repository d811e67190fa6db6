"""Exact univariate polynomial arithmetic over Q, Z and F_p.

Polynomials are coefficient lists with the constant term first
(little-endian), trailing zeros stripped.  The zero polynomial is [].
All rational arithmetic uses Fraction; nothing here touches floats.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
import random


def normalize(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(f):
    return len(f) - 1


def is_zero(f):
    return len(f) == 0


def leading(f):
    return f[-1]


def constant(c):
    return [] if c == 0 else [c]


def add(f, g):
    n = max(len(f), len(g))
    out = [0] * n
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] += b
    return normalize(out)


def neg(f):
    return [-a for a in f]


def sub(f, g):
    return add(f, neg(g))


def mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return normalize(out)


def scale(f, c):
    if c == 0:
        return []
    return normalize([a * c for a in f])


def shift(f, k):
    """Multiply by x^k."""
    if not f:
        return []
    return [0] * k + list(f)


def evaluate(f, x):
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


def derivative(f):
    return normalize([i * a for i, a in enumerate(f)][1:])


def divmod_exact(f, g):
    """Quotient and remainder over a field (coefficients must divide exactly)."""
    if is_zero(g):
        raise ZeroDivisionError("polynomial division by zero")
    f = [Fraction(a) for a in f]
    g = [Fraction(a) for a in g]
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    r = list(f)
    inv_lead = 1 / g[-1]
    while len(r) >= len(g) and r:
        c = r[-1] * inv_lead
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[i + d] -= c * b
        r = normalize(r)
    return normalize(q), r


def poly_mod(f, g):
    return divmod_exact(f, g)[1]


def monic(f):
    if is_zero(f):
        return []
    lead = Fraction(f[-1])
    return [Fraction(a) / lead for a in f]


def poly_gcd(f, g):
    """Monic gcd over Q."""
    a = [Fraction(x) for x in f]
    b = [Fraction(x) for x in g]
    while not is_zero(b):
        a, b = b, poly_mod(a, b)
    return monic(a)


def resultant(f, g):
    """Res(f, g), by the Euclidean recursion.  Exact over Fraction."""
    f = normalize([Fraction(a) for a in f])
    g = normalize([Fraction(a) for a in g])
    if is_zero(f) or is_zero(g):
        return Fraction(0)
    a, b = degree(f), degree(g)
    if a == 0:
        return f[0] ** b
    if b == 0:
        return g[0] ** a
    r = poly_mod(f, g)
    if is_zero(r):
        return Fraction(0)
    sign = -1 if (a * b) % 2 else 1
    return sign * leading(g) ** (a - degree(r)) * resultant(g, r)


def discriminant(f):
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f)."""
    d = degree(f)
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    res = resultant(f, derivative(f))
    val = sign * res / Fraction(f[-1])
    if val.denominator == 1:
        return val.numerator
    return val


# ---------------------------------------------------------------------------
# Real root counting (Sturm)

def sturm_sequence(f):
    f = [Fraction(a) for a in f]
    seq = [normalize(f), derivative(f)]
    while not is_zero(seq[-1]) and degree(seq[-1]) > 0:
        r = neg(poly_mod(seq[-2], seq[-1]))
        seq.append(r)
        if is_zero(r):
            seq.pop()
            break
    return [s for s in seq if not is_zero(s)]


def sturm_chain(f):
    """Sturm chain of the squarefree part of f, each member multiplied by
    the positive lcm of its denominators and divided by the positive gcd
    of the result: integer polynomials with the signs of the chain."""
    g = poly_gcd(f, derivative(f))
    if degree(g) > 0:
        f = divmod_exact(f, g)[0]
    chain = []
    for s in sturm_sequence(f):
        den = lcm(*(a.denominator for a in s))
        ints = [int(a * den) for a in s]
        content = gcd(*ints)
        chain.append([a // content for a in ints])
    return chain


def sign_changes_at(chain, num, den=1):
    """Sign changes of an integer Sturm chain at num/den, den > 0.

    Homogeneous Horner gives den^deg(s) * s(num/den), an integer with
    the sign of s(num/den); zeros are skipped."""
    changes, last = 0, 0
    for s in chain:
        acc, power = 0, 1
        for a in reversed(s):
            acc = acc * num + a * power
            power *= den
        if acc:
            if last and (acc > 0) != (last > 0):
                changes += 1
            last = acc
    return changes


def sturm_count(f, a, b):
    """Number of distinct real roots of f in (a, b].  f need not be squarefree."""
    chain = sturm_chain(f)
    a, b = Fraction(a), Fraction(b)
    return (sign_changes_at(chain, a.numerator, a.denominator)
            - sign_changes_at(chain, b.numerator, b.denominator))


def cauchy_bound(f):
    """All real roots of f lie in (-B, B)."""
    lead = abs(Fraction(f[-1]))
    return 1 + max((abs(Fraction(a)) / lead for a in f[:-1]), default=Fraction(0))


def count_real_roots(f):
    if degree(f) < 1:
        return 0
    b = cauchy_bound(f)
    return sturm_count(f, -b, b)


def is_squarefree(f):
    return degree(poly_gcd(f, derivative(f))) == 0


def is_perfect_square(n):
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


# ---------------------------------------------------------------------------
# Arithmetic in F_p[x]

def modp(f, p):
    return normalize([a % p for a in f])


def modp_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return normalize(out)


def modp_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("mod-p division by zero polynomial")
    inv = pow(g[-1], -1, p)
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    while len(r) >= len(g) and r:
        c = (r[-1] * inv) % p
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[i + d] = (r[i + d] - c * b) % p
        r = normalize(r)
    return normalize(q), r


def modp_gcd(f, g, p):
    a, b = modp(f, p), modp(g, p)
    while b:
        a, b = b, modp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def modp_pow_mod(base, e, mod, p):
    result = [1]
    base = modp_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = modp_divmod(modp_mul(result, base, p), mod, p)[1]
        base = modp_divmod(modp_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def modp_derivative(f, p):
    return normalize([(i * a) % p for i, a in enumerate(f)][1:])


def is_irreducible_modp(f, p):
    """Rabin's test."""
    f = modp(f, p)
    n = degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [0, 1]
    # x^(p^n) == x mod f
    xp = modp_pow_mod(x, p ** n, f, p)
    if xp != modp_divmod(x, f, p)[1]:
        return False
    for q in sorted({q for q in _prime_factors_int(n)}):
        m = n // q
        xq = modp_pow_mod(x, p ** m, f, p)
        g = modp_gcd(sub_modp(xq, x, p), f, p)
        if degree(g) != 0:
            return False
    return True


def sub_modp(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, a in enumerate(f):
        out[i] = a % p
    for i, b in enumerate(g):
        out[i] = (out[i] - b) % p
    return normalize(out)


def is_prime(n):
    """Trial division up to isqrt(n); False for every n < 2."""
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _prime_factors_int(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _squarefree_decomposition_modp(f, p):
    """Yield (factor, multiplicity) with factor squarefree, product = f."""
    out = []

    def rec(g, mult):
        g = modp(g, p)
        if degree(g) < 1:
            return
        d = modp_derivative(g, p)
        if not d:
            # g = h(x^p) = h(x)^p
            h = normalize([g[i] for i in range(0, len(g), p)])
            rec(h, mult * p)
            return
        w = modp_gcd(g, d, p)
        v = modp_divmod(g, w, p)[0]  # squarefree part
        k = 1
        while degree(v) > 0:
            u = modp_gcd(v, w, p)
            piece = modp_divmod(v, u, p)[0]
            if degree(piece) > 0:
                out.append((piece, mult * k))
            v = u
            w = modp_divmod(w, u, p)[0]
            k += 1
        if degree(w) > 0:
            rec(w, mult)

    rec(f, 1)
    return out


def _distinct_degree_split(f, p):
    """f squarefree monic; yield (product-of-deg-d-irreducibles, d)."""
    out = []
    x = [0, 1]
    h = x
    g = list(f)
    d = 0
    while degree(g) >= 2 * (d + 1):
        d += 1
        h = modp_pow_mod(h, p, g, p)
        gd = modp_gcd(sub_modp(h, x, p), g, p)
        if degree(gd) > 0:
            out.append((gd, d))
            g = modp_divmod(g, gd, p)[0]
            h = modp_divmod(h, g, p)[1]
    if degree(g) > 0:
        out.append((g, degree(g)))
    return out


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus: f = product of irreducibles of degree d."""
    n = degree(f)
    if n == d:
        return [f]
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = normalize(a)
        if degree(a) < 1:
            continue
        g = modp_gcd(a, f, p)
        if 0 < degree(g) < n:
            pass
        elif p == 2:
            # trace map sum a^(2^i)
            t = list(a)
            acc = list(a)
            for _ in range(d - 1):
                t = modp_pow_mod(t, 2, f, 2)
                acc = sub_modp(acc, [-c for c in t], 2)
            g = modp_gcd(acc, f, 2)
        else:
            e = (p ** d - 1) // 2
            b = modp_pow_mod(a, e, f, p)
            g = modp_gcd(sub_modp(b, [1], p), f, p)
        if 0 < degree(g) < n:
            h = modp_divmod(f, g, p)[0]
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(h, d, p, rng)


def factor_modp(f, p):
    """Full factorization of f over F_p.

    Returns a sorted list of (irreducible monic factor, multiplicity).
    Randomized splitting is seeded from (f, p), so output is deterministic.
    """
    f = modp(f, p)
    if degree(f) < 1:
        return []
    lead_inv = pow(f[-1], -1, p)
    f = [(c * lead_inv) % p for c in f]
    rng = random.Random(hash((tuple(f), p)) & 0xFFFFFFFF)
    factors = []
    for sqf, mult in _squarefree_decomposition_modp(f, p):
        inv = pow(sqf[-1], -1, p)
        sqf = [(c * inv) % p for c in sqf]
        for block, d in _distinct_degree_split(sqf, p):
            for irr in _equal_degree_split(block, d, p, rng):
                factors.append((tuple(irr), mult))
    factors.sort(key=lambda t: (len(t[0]), t[0]))
    return factors
