"""Number fields presented by a monic integer minimal polynomial.

A field k = Q[x]/(f) carries its signature, prime splitting data at
monogenic primes, and the local tests needed by the quaternion-algebra
ramification analysis.  The maximal order is never computed: splitting
is obtained from the factorization of f mod p whenever Dedekind's
criterion certifies that p does not divide the index [R_k : Z[theta]].

An element is an integer numerator vector over one positive denominator,
always in lowest terms, so equal elements have equal (nums, den).  As f
is monic over Z, x^d, ..., x^(2d-2) mod f are integer rows
(`NumberField.reduction_rows`, kept once per field): a product is a
schoolbook convolution plus c times a row for each high coefficient c,
with no pseudo-division.  `dot` sums several products over one common
denominator with one reduction and one lowest-terms step; a single
product is `dot` of one pair.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational

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

    @cached_property
    def degree(self):
        return len(self.min_poly) - 1

    @cached_property
    def discriminant(self):
        """disc(min_poly), computed once per field."""
        return polys.discriminant(list(self.min_poly))

    @cached_property
    def reduction_rows(self):
        """x^d, ..., x^(2d-2) mod min_poly as integer rows of length d."""
        return polys.reduction_rows(self.min_poly)

    @cached_property
    def irreducibility(self):
        """certify_irreducible(min_poly), computed once per field."""
        return certify_irreducible(self.min_poly)

    def element(self, coeffs):
        """sum c_i x^i for at most `degree` rationals c_i (anything
        Fraction accepts)."""
        c = [a if isinstance(a, Rational) else Fraction(a) for a in coeffs]
        if len(c) > self.degree:
            raise ValueError(f"coefficient vector longer than degree {self.degree}")
        den = lcm(*(a.denominator for a in c))
        return _element(self, [a.numerator * (den // a.denominator) for a in c], den)

    def zero(self):
        return _element(self, [], 1)

    def one(self):
        return _element(self, [1], 1)

    def generator(self):
        # for Q itself, x reduces to minus the constant term
        if self.degree == 1:
            return _element(self, [-self.min_poly[0]], 1)
        return _element(self, [0, 1], 1)

    def __repr__(self):
        return f"NumberField({list(self.min_poly)})"


def _element(field, nums, den):
    """nums / den in lowest terms with den > 0, for at most [k:Q]
    integers nums, padded to length [k:Q]."""
    if den != 1:
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            nums, den = [a // g for a in nums], den // g
    return FieldElement(field, tuple(nums) + (0,) * (field.degree - len(nums)), den)


def _same_field(field, x):
    if x.field is not field and x.field != field:
        raise ValueError("elements of different fields")


def dot(field, pairs):
    """sum of x * y over the pairs of elements of `field`: every product
    is taken over one common denominator, the sum reduced once through
    `field.reduction_rows` and brought to lowest terms once."""
    d = field.degree
    acc = [0] * (2 * d - 1)
    den = 1
    for x, y in pairs:
        if x.field is not field or y.field is not field:
            _same_field(field, x)
            _same_field(field, y)
        factor, pair_den = 1, x.den * y.den
        if pair_den != den:
            common = lcm(den, pair_den)
            if common != den:
                acc = [a * (common // den) for a in acc]
                den = common
            factor = den // pair_den
        ys = y.nums
        for i, a in enumerate(x.nums):
            if a:
                a *= factor
                for j, b in enumerate(ys, i):
                    acc[j] += a * b
    for c, row in zip(acc[d:], field.reduction_rows):
        if c:
            for i, r in enumerate(row):
                acc[i] += c * r
    del acc[d:]
    return _element(field, acc, den)


@dataclass(frozen=True)
class FieldElement:
    """Power-basis vector nums / den of length [k:Q]: integer numerators
    over one denominator.  Every element is kept in lowest terms with
    den > 0, so two elements are equal exactly when their (nums, den)
    are, which the generated __eq__ and __hash__ rely on.  Build
    elements with `NumberField.element`."""

    field: NumberField
    nums: tuple
    den: int

    @property
    def coeffs(self):
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    def _check(self, other):
        if isinstance(other, FieldElement):
            _same_field(self.field, other)
            return other
        return self.field.element([other])

    def __add__(self, other):
        o = self._check(other)
        if self.den == o.den == 1:
            return FieldElement(self.field, tuple(x + y for x, y in zip(self.nums, o.nums)), 1)
        den = lcm(self.den, o.den)
        a, b = den // self.den, den // o.den
        return _element(self.field, [a * x + b * y for x, y in zip(self.nums, o.nums)], den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        o = self._check(other)
        if self.den == o.den == 1:
            return FieldElement(self.field, tuple(x - y for x, y in zip(self.nums, o.nums)), 1)
        den = lcm(self.den, o.den)
        a, b = den // self.den, den // o.den
        return _element(self.field, [a * x - b * y for x, y in zip(self.nums, o.nums)], den)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        return dot(self.field, ((self, self._check(other)),))

    __rmul__ = __mul__

    def inverse(self):
        """Cayley-Hamilton on the numerator b = den * self, whose
        characteristic polynomial x^d + c_(d-1) x^(d-1) + ... + c_0 has
        integer coefficients: b^-1 = -(b^(d-1) + c_(d-1) b^(d-2) + ... + c_1) / c_0.
        c_0 = 0 exactly when self is zero or a zero divisor (min_poly
        reducible)."""
        cp = linalg.char_poly(self._int_matrix())
        if cp[0] == 0:
            raise ZeroDivisionError("inverse of zero or of a zero divisor")
        b = FieldElement(self.field, self.nums, 1)
        acc = self.field.one()
        for c in reversed(cp[1:-1]):
            acc = acc * b + c
        return _element(self.field, [-self.den * a for a in acc.nums], cp[0])

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        # other is a scalar: FieldElement / FieldElement is __truediv__
        return self.inverse() * other

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
        return not any(self.nums)

    def __bool__(self):
        # false exactly at zero, as for Fraction, so linalg.rref can pivot on k
        return not self.is_zero()

    def is_rational(self):
        return not any(self.nums[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def _int_matrix(self):
        """Matrix of y -> den*self*y on the power basis; rows are images
        of 1, x, ..., x^(d-1).  Row i+1 is x times row i, reduced by
        x^d = -(f_0 + ... + f_(d-1) x^(d-1))."""
        f = self.field.min_poly
        rows = [list(self.nums)]
        for _ in range(1, self.field.degree):
            row = rows[-1]
            rows.append([a - row[-1] * c for a, c in zip([0] + row[:-1], f)])
        return rows

    def char_poly(self):
        """Characteristic polynomial of multiplication by self, monic,
        constant first: Berkowitz on the integer matrix, whose
        coefficient c_i becomes c_i den^(i-d)."""
        d = self.field.degree
        return [Fraction(c, self.den ** (d - i))
                for i, c in enumerate(linalg.char_poly(self._int_matrix()))]

    def norm(self):
        return (-1) ** self.field.degree * self.char_poly()[0]

    def trace(self):
        return -self.char_poly()[-2]

    def is_integral(self):
        """Algebraic integer test: every char-poly coefficient lies in Z.
        With den = 1 the element lies in Z[x], integral as min_poly is monic."""
        d = self.field.degree
        return self.den == 1 or all(
            c % self.den ** (d - i) == 0
            for i, c in enumerate(linalg.char_poly(self._int_matrix())))

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


# certify_irreducible tries the primes p <= IRREDUCIBLE_PRIME_BOUND
IRREDUCIBLE_PRIME_BOUND = 100


def certify_irreducible(f):
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
    while p <= IRREDUCIBLE_PRIME_BOUND:
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
    verdict, method = field.irreducibility
    if verdict is False:
        raise ReduciblePolynomial(f"polynomial is reducible: {method}")
    r1 = polys.count_real_roots(f)
    d = field.degree
    if (d - r1) % 2 != 0:
        raise ArithmeticError("real root count has wrong parity")
    return r1, (d - r1) // 2


def poly_discriminant(field):
    """Discriminant of the defining polynomial (not of the field)."""
    return field.discriminant


def dedekind_criterion_ok(f, p):
    """True iff p does not divide the index [R_k : Z[theta]] (Dedekind).

    With f-bar = prod g_i^{e_i} mod p, set g* = prod g_i, h* = f-bar/g*
    (lifted), F = (g*h* - f)/p; the criterion holds iff
    gcd(F-bar, g*-bar, h*-bar) = 1.
    """
    fbar_factors = polys.factor_modp(f, p)
    gstar = [1]
    for g, _e in fbar_factors:
        gstar = polys.modp(polys.mul(gstar, g), p)
    fbar = polys.modp(f, p)
    hstar = polys.modp_divmod(fbar, gstar, p)[0]
    lifted = polys.mul(gstar, hstar)
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
    disc = field.discriminant
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
