"""Exact univariate polynomial arithmetic over Z, Q and F_p.

Polynomials are coefficient lists with the constant term first
(little-endian), trailing zeros stripped.  The zero polynomial is [].
A polynomial over Q is handled through an integer multiple of it:
division is pseudo-division, gcds and Sturm chains are primitive
pseudo-remainder sequences, and resultants are Sylvester determinants
by Bareiss elimination.  No rational arithmetic is done (`sturm_count`
reads its rational endpoints as numerator and denominator, and
`scaled_value` evaluates at them by homogeneous Horner), and nothing
touches floats.  Modulo a monic f of degree n over F_p, a product is a
convolution plus c times x^(n+k) mod f (a `reduction_rows` row) for each
coefficient c of x^(n+k).  As h -> h^p is F_p-linear, x^p mod f and the
Frobenius matrix Q (row i = x^(ip) mod f) give each x^(p^d) mod f by one
vector-matrix product, for irreducibility and distinct-degree splits.
"""

from math import gcd, isqrt
import random

from . import linalg


def normalize(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(f):
    return len(f) - 1


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


def reduction_rows(f, p=0):
    """x^n, ..., x^(2n-2) mod a monic f of degree n as rows of length n,
    over Z or, when p > 0, over F_p: x^n = -(f_0 + ... + f_(n-1) x^(n-1)),
    and each next row is x times the last, its x^n replaced by the first."""
    row, rows = [-c for c in f[:-1]], []
    for _ in range(len(f) - 2):
        rows.append([c % p for c in row] if p else row)
        row = [a + rows[-1][-1] * r for a, r in zip([0] + rows[-1][:-1], rows[0])]
    return rows


def pseudo_divmod(f, g):
    """(q, r) with lc(g)^e f = q g + r, deg r < deg g and
    e = max(deg f - deg g + 1, 0).  Never divides, so integer
    polynomials stay integer; for monic g, q and r are the quotient and
    remainder."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    lead, m = g[-1], len(g) - 1
    q = [0] * max(len(f) - m, 0)
    r = list(f)
    for d in reversed(range(len(q))):
        c = r.pop()
        if lead != 1:
            q = [lead * a for a in q]
            r = [lead * a for a in r]
        q[d] = c
        for i in range(m):
            r[d + i] -= c * g[i]
    return normalize(q), normalize(r)


def _primitive(f):
    """f divided by its positive content."""
    c = gcd(*f)
    return [a // c for a in f] if c > 1 else list(f)


def _prs(f, g):
    """Signed primitive pseudo-remainder sequence of integer polynomials:
    the nonzero ones of f, g, then each pseudo-remainder of the two
    before it, negated unless lc(b) < 0 and deg a - deg b is even (so
    that it has the sign of -rem(a, b)), divided by its positive
    content.  The last member is gcd(f, g) up to a constant.

    Collins' primitive PRS (Brown and Traub, J. ACM 18, 1971); with
    g = f' it is a Sturm chain."""
    seq = [_primitive(h) for h in (f, g) if h]
    while len(seq) > 1:
        a, b = seq[-2], seq[-1]
        r = pseudo_divmod(a, b)[1]
        if not r:
            break
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = neg(r)
        seq.append(_primitive(r))
    return seq


def poly_gcd(f, g):
    """gcd(f, g) over Q, up to sign, as a primitive integer polynomial;
    [] when both are zero."""
    seq = _prs(f, g)
    return seq[-1] if seq else []


def resultant(f, g):
    """Res(f, g) = det of the Sylvester matrix, by Bareiss' fraction-free
    `linalg.det`: integer in, integer out."""
    f, g = normalize(f), normalize(g)
    if not f or not g:
        return 0
    m, n = degree(f), degree(g)
    return linalg.det([[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
                      + [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)])


def discriminant(f):
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f), an integer."""
    d = degree(f)
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, derivative(f)) // f[-1]


# ---------------------------------------------------------------------------
# Real root counting (Sturm)

def sturm_chain(f):
    """Sturm chain of the squarefree part of f as primitive integer
    polynomials, each a positive multiple of the classical member (or
    each a negative one, which changes no sign-change count)."""
    g = poly_gcd(f, derivative(f))
    if degree(g) > 0:
        f = pseudo_divmod(f, g)[0]
    return _prs(f, derivative(f))


def scaled_value(f, num, den=1):
    """den^deg(f) * f(num/den) for an integer polynomial f, by
    homogeneous Horner: an integer with the sign of f(num/den) when
    den > 0."""
    acc, power = 0, 1
    for a in reversed(f):
        acc = acc * num + a * power
        power *= den
    return acc


def sign_changes_at(chain, num, den=1):
    """Sign changes of an integer Sturm chain at num/den, den > 0, read
    off each member's `scaled_value`; zeros are skipped."""
    changes, last = 0, 0
    for s in chain:
        acc = scaled_value(s, num, den)
        if acc:
            if last and (acc > 0) != (last > 0):
                changes += 1
            last = acc
    return changes


def sturm_count(f, a, b):
    """Number of distinct real roots of f in (a, b] for rational a, b
    (int or Fraction).  f need not be squarefree."""
    chain = sturm_chain(f)
    return (sign_changes_at(chain, a.numerator, a.denominator)
            - sign_changes_at(chain, b.numerator, b.denominator))


def cauchy_bound(f):
    """An integer B with every real root of f in (-B, B):
    B >= 1 + max |a_i| / |lc(f)|."""
    top = max(map(abs, f[:-1]), default=0)
    return 1 - (-top // abs(f[-1]))


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

def _combine(coeffs, rows, acc, p):
    """acc + sum c * row over the coefficients and rows, reduced mod p;
    the list acc is overwritten."""
    for c, row in zip(coeffs, rows):
        c %= p
        if c:
            for i, r in enumerate(row):
                acc[i] += c * r
    return [c % p for c in acc]


def _mulmod(a, b, rows, p):
    """a b mod f over F_p for a, b of length n = deg f and f's rows."""
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b, i):
                prod[j] += c * e
    return _combine(prod[n:], rows, prod[:n], p)


def _powmod(a, e, rows, p):
    """a^e mod f for e >= 1, by left-to-right square and multiply."""
    out = a
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, rows, p)
        if bit == "1":
            out = _mulmod(out, a, rows, p)
    return out


def _frobenius_matrix(xp, rows, p):
    """Berlekamp's Q: row i is x^(ip) mod f, from x^p mod f."""
    q = [[1] + [0] * (len(xp) - 1), xp]
    while len(q) < len(xp):
        q.append(_mulmod(q[-1], xp, rows, p))
    return q


def _frobenius_powers(f, p):
    """x^p, x^(p^2), ... mod a monic f of degree n >= 2 over F_p, as
    vectors of length n; Q is built only once x^(p^2) is asked for."""
    rows = reduction_rows(f, p)
    h = _powmod([0, 1] + [0] * (len(f) - 3), p, rows, p)
    yield h
    q = _frobenius_matrix(h, rows, p)
    while True:
        h = _combine(h, q, [0] * len(h), p)
        yield h


def modp(f, p):
    return normalize([a % p for a in f])


def _monic(f, p):
    inv = pow(f[-1], -1, p)
    return [(c * inv) % p for c in f]


def modp_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("mod-p division by zero polynomial")
    inv, m = pow(g[-1], -1, p), len(g) - 1
    r = modp(f, p)
    q = [0] * max(len(r) - m, 0)
    for d in reversed(range(len(q))):
        c = q[d] = (r.pop() * inv) % p
        if c:
            for i in range(m):
                r[d + i] = (r[d + i] - c * g[i]) % p
    return normalize(q), normalize(r)


def modp_gcd(f, g, p):
    """Monic gcd over F_p; [] when both are zero."""
    a, b = modp(f, p), modp(g, p)
    while b:
        a, b = b, modp_divmod(a, b, p)[1]
    return _monic(a, p) if a else a


def is_irreducible_modp(f, p):
    """f mod p of degree n is irreducible iff gcd(x^(p^d) - x, f) = 1 for
    every d <= n/2; stops at the first d where it is not."""
    f = modp(f, p)
    n = degree(f)
    if n <= 1:
        return n == 1
    f = _monic(f, p)
    return all(degree(modp_gcd(sub(h, [0, 1]), f, p)) == 0
               for _, h in zip(range(n // 2), _frobenius_powers(f, p)))


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
        d = modp(derivative(g), p)
        if not d:
            # g = h(x^p) = h(x)^p
            h = normalize([g[i] for i in range(0, len(g), p)])
            rec(h, mult * p)
            return
        w = modp_gcd(g, d, p)
        if len(w) == 1:
            out.append((g, mult))
            return
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
    """f squarefree monic; [(product of the degree-d irreducibles, d)].
    For g | f, gcd(x^(p^d) - x, g) may take x^(p^d) reduced mod f."""
    out, g, d = [], f, 1
    powers = _frobenius_powers(f, p)
    while degree(g) >= 2 * d:
        gd = modp_gcd(sub(next(powers), [0, 1]), g, p)
        if degree(gd) > 0:
            out.append((gd, d))
            g = modp_divmod(g, gd, p)[0]
        d += 1
    if degree(g) > 0:
        out.append((g, degree(g)))
    return out


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus: f = product of irreducibles of degree d."""
    n = degree(f)
    if n == d:
        return [f]
    rows = reduction_rows(f, p)
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        if p == 2:
            # trace map sum a^(2^i)
            b = t = a
            for _ in range(d - 1):
                t = _mulmod(t, t, rows, 2)
                b = [u ^ v for u, v in zip(b, t)]
        else:
            b = _powmod(a, (p ** d - 1) // 2, rows, p)
            b[0] -= 1
        g = modp_gcd(b, f, p)
        if 0 < degree(g) < n:
            return (_equal_degree_split(g, d, p, rng)
                    + _equal_degree_split(modp_divmod(f, g, p)[0], d, p, rng))


def factor_modp(f, p):
    """Full factorization of f over F_p.

    Returns a sorted list of (irreducible monic factor, multiplicity).
    Randomized splitting is seeded from (f, p), so output is deterministic.
    """
    f = modp(f, p)
    if degree(f) < 1:
        return []
    f = _monic(f, p)
    rng = random.Random(hash((tuple(f), p)) & 0xFFFFFFFF)
    factors = []
    for sqf, mult in _squarefree_decomposition_modp(f, p):
        for block, d in _distinct_degree_split(_monic(sqf, p), p):
            for irr in _equal_degree_split(block, d, p, rng):
                factors.append((tuple(irr), mult))
    factors.sort(key=lambda t: (len(t[0]), t[0]))
    return factors
