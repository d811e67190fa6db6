"""Number fields presented by a monic integer minimal polynomial.

A field k = Q[x]/(f) carries its signature, prime splitting data at
monogenic primes, and the local tests needed by the quaternion-algebra
ramification analysis.  The maximal order is never computed: splitting
is obtained from the factorization of f mod p whenever Dedekind's
criterion certifies that p does not divide the index [R_k : Z[theta]].
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import linalg, polys


class ReduciblePolynomial(ValueError):
    """The defining polynomial factors over Q."""


class NonMonogenicPrime(ValueError):
    """p^2 | disc(f) and Dedekind's criterion fails; supply splitting data manually."""


@dataclass(frozen=True)
class NumberField:
    """k = Q[x]/(min_poly); min_poly monic with integer coefficients, constant term first."""

    min_poly: tuple

    def __post_init__(self):
        mp = tuple(self.min_poly)
        if any(type(c) is not int for c in mp):
            raise ValueError("defining polynomial needs integer coefficients")
        object.__setattr__(self, "min_poly", mp)
        if len(mp) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if mp[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if not polys.is_squarefree(list(mp)):
            raise ReduciblePolynomial("defining polynomial has a repeated factor")

    @property
    def degree(self):
        return len(self.min_poly) - 1

    def element(self, coeffs):
        return FieldElement(self, _pad(coeffs, self.degree))

    def zero(self):
        return self.element([0] * self.degree)

    def one(self):
        return self.element([1] + [0] * (self.degree - 1))

    def generator(self):
        if self.degree == 1:
            # Q itself: x is congruent to -constant term
            return self.element([-self.min_poly[0]])
        return self.element([0, 1] + [0] * (self.degree - 2))

    def __repr__(self):
        return f"NumberField({list(self.min_poly)})"


def _pad(coeffs, d):
    c = [Fraction(a) for a in coeffs]
    if len(c) > d:
        raise ValueError(f"coefficient vector longer than degree {d}")
    return tuple(c + [Fraction(0)] * (d - len(c)))


@dataclass(frozen=True)
class FieldElement:
    """Power-basis vector of length [k:Q] with exact rational entries."""

    field: NumberField
    coeffs: tuple

    def _check(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.element([Fraction(other)])

    def __add__(self, other):
        o = self._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        o = self._check(other)
        prod = polys.mul(list(self.coeffs), list(o.coeffs))
        red = polys.poly_mod(prod, list(self.field.min_poly))
        return self.field.element(red)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid in Q[x] against the minimal polynomial
        f = [Fraction(c) for c in self.field.min_poly]
        g = polys.normalize(list(self.coeffs))
        r0, r1 = f, g
        s0, s1 = [], [Fraction(1)]
        while polys.degree(r1) > 0:
            q, r = polys.divmod_exact(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, polys.sub(s0, polys.mul(q, s1))
        inv = polys.scale(s1, 1 / Fraction(r1[0]))
        return self.field.element(polys.poly_mod(inv, f))

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        # other is a scalar: FieldElement / FieldElement is __truediv__
        c = Fraction(other)
        return FieldElement(self.field,
                            tuple(a * c for a in self.inverse().coeffs))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_zero(self):
        return all(a == 0 for a in self.coeffs)

    def __bool__(self):
        # false exactly at zero, as for Fraction, so linalg.rref can pivot on k
        return not self.is_zero()

    def is_rational(self):
        return all(a == 0 for a in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def multiplication_matrix(self):
        """Matrix of y -> self*y on the power basis; rows are images."""
        d = self.field.degree
        rows = []
        for i in range(d):
            basis = self.field.element([0] * i + [1])
            rows.append((self * basis).coeffs)
        return rows

    def char_poly(self):
        """Characteristic polynomial of multiplication by self, monic, constant first."""
        return [Fraction(c) for c in linalg.char_poly(self.multiplication_matrix())]

    def norm(self):
        cp = self.char_poly()
        d = self.field.degree
        return (-1) ** d * cp[0]

    def trace(self):
        m = self.multiplication_matrix()
        return sum(m[i][i] for i in range(self.field.degree))

    def is_integral(self):
        """Algebraic integer test: every char-poly coefficient lies in Z."""
        return all(Fraction(c).denominator == 1 for c in self.char_poly())

    def __repr__(self):
        return f"FieldElement({[str(c) for c in self.coeffs]})"


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime above p with residue degree f and ramification index e.

    local_factor is the irreducible factor of min_poly mod p the prime
    corresponds to (monic, coefficients in [0, p)).
    """

    rational_prime: int
    residue_degree: int
    ramification_index: int
    local_factor: tuple = dc_field(default=())

    @property
    def norm(self):
        return self.rational_prime ** self.residue_degree

    @property
    def local_degree(self):
        return self.residue_degree * self.ramification_index


def certify_irreducible(f, prime_bound=100):
    """Opportunistic irreducibility certificate over Q.

    Returns (verdict, method) with verdict in {True, False, None}:
    True with a witness method, False if a factorization was found,
    None if neither (recorded as unverified).
    """
    f = [int(c) for c in f]
    d = polys.degree(f)
    if d == 1:
        return True, "degree 1"
    # rational-root test disposes of degree <= 3 completely
    roots = _rational_roots(f)
    if roots:
        return False, f"rational root {roots[0]}"
    if d <= 3:
        return True, "no rational root, degree <= 3"
    p = 2
    while p <= prime_bound:
        if f[-1] % p != 0 and polys.is_irreducible_modp(f, p):
            return True, f"irreducible mod {p}"
        p = _next_prime(p)
    return None, "unverified"


def _rational_roots(f):
    # monic integer polynomial: rational roots are integer divisors of f[0]
    c0 = f[0]
    if c0 == 0:
        return [Fraction(0)]
    out = []
    n = abs(c0)
    d = 1
    while d * d <= n:
        if n % d == 0:
            for cand in {d, -d, n // d, -(n // d)}:
                if polys.evaluate(f, cand) == 0:
                    out.append(Fraction(cand))
        d += 1
    return sorted(set(out))


def _next_prime(p):
    q = p + 1
    while not polys.is_prime(q):
        q += 1
    return q


def signature(field):
    """(r1, r2): real root count by Sturm, complex pairs from the degree."""
    f = list(field.min_poly)
    verdict, method = certify_irreducible(f)
    if verdict is False:
        raise ReduciblePolynomial(f"polynomial is reducible: {method}")
    r1 = polys.count_real_roots(f)
    d = field.degree
    if (d - r1) % 2 != 0:
        raise ArithmeticError("real root count has wrong parity")
    return r1, (d - r1) // 2


def poly_discriminant(field):
    """Discriminant of the defining polynomial (not of the field)."""
    return polys.discriminant(list(field.min_poly))


def dedekind_criterion_ok(f, p):
    """True iff p does not divide the index [R_k : Z[theta]] (Dedekind).

    With f-bar = prod g_i^{e_i} mod p, set g* = prod g_i, h* = f-bar/g*
    (lifted), F = (g*h* - f)/p; the criterion holds iff
    gcd(F-bar, g*-bar, h*-bar) = 1.
    """
    fbar_factors = polys.factor_modp(f, p)
    gstar = [1]
    for g, _e in fbar_factors:
        gstar = polys.modp_mul(gstar, g, p)
    fbar = polys.modp(f, p)
    hstar = polys.modp_divmod(fbar, gstar, p)[0]
    lifted = polys.mul([int(c) for c in gstar], [int(c) for c in hstar])
    diff = polys.sub(lifted, f)
    if any(c % p for c in diff):
        raise ArithmeticError("lift mismatch in Dedekind criterion")
    big_f = polys.modp([c // p for c in diff], p)
    g1 = polys.modp_gcd(big_f, gstar, p)
    g2 = polys.modp_gcd(g1, hstar, p)
    return polys.degree(g2) <= 0


def split_prime(field, p):
    """Primes above p as (e, f, local factor) triples, monogenic case only.

    If p^2 divides disc(min_poly), Dedekind's criterion is applied; when it
    fails, NonMonogenicPrime is raised and the caller must supply data.
    """
    if not polys.is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    f = list(field.min_poly)
    disc = polys.discriminant(f)
    if disc % p == 0 and disc % (p * p) == 0:
        if not dedekind_criterion_ok(f, p):
            raise NonMonogenicPrime(
                f"p={p}: p^2 | disc and Dedekind's criterion fails")
    factors = polys.factor_modp(f, p)
    out = []
    for g, e in factors:
        out.append(PrimeIdeal(rational_prime=p,
                              residue_degree=polys.degree(g),
                              ramification_index=e,
                              local_factor=tuple(g)))
    total = sum(pr.ramification_index * pr.residue_degree for pr in out)
    if total != field.degree:
        raise ArithmeticError("sum e_i f_i != degree")
    return out


CONTAINS = "Contains"
DOES_NOT_CONTAIN = "DoesNotContain"
UNDECIDED = "Undecided"


def local_quadratic_subextension(prime):
    """Does k_nu contain a quadratic extension of Q_p?

    Even residue degree gives the unramified quadratic subfield; even
    ramification index at odd p gives a tame totally ramified one; odd
    local degree rules both out.  The wild case p = 2 with e even and f
    odd is left undecided.
    """
    e = prime.ramification_index
    f = prime.residue_degree
    p = prime.rational_prime
    if f % 2 == 0:
        return CONTAINS
    if e % 2 == 0 and p % 2 == 1:
        return CONTAINS
    if (e * f) % 2 == 1:
        return DOES_NOT_CONTAIN
    return UNDECIDED
