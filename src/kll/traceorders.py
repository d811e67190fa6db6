"""2x2 matrices over a number field: trace identities, the order
R_k[1, a, b, ab] with its closure certificate, and the trace-zero
involution ab - ba with its conjugation relations.

Each trace identity is one relation sum c_i M_i + sum X_j Y_j = 0 over
the field, the products folded into its one `numfield.dot` per entry
(`_entries`).  `build_order` checks the six once, then derives every
Cayley-Hamilton product of its basis from them unchecked, and keeps the
Fricke value tr[a, b] - 2 it tests for spanning as the order's
discriminant generator.  Projective statements (order two, conjugation
to inverses, Klein four) are decided by exact proportionality, so each
inverse in them is an adjugate det(m) m^-1 and no field element is
inverted; a zero-divisor determinant is found from its norm.  Each
entry of a product, a determinant, a linear combination of matrices or
a cross-multiplication is one `numfield.dot`: one common denominator,
one reduction, one lowest-terms step.
"""

from dataclasses import dataclass
from fractions import Fraction

from .numfield import NumberField, FieldElement, dot


class NonUnimodular(ValueError):
    """Matrix determinant is not 1."""


class CommutingGenerators(ValueError):
    """a and b commute; {1, a, b, ab} does not span."""


class NonIntegralTraces(ValueError):
    """tr(a), tr(b) or tr(ab) is not an algebraic integer."""


class CommonFixedPoint(ValueError):
    """ab - ba is singular, so a and b share a fixed point."""


class RelationFailure(ValueError):
    """A required projective relation does not hold."""


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix with FieldElement entries over a common NumberField."""

    field: NumberField
    entries: tuple  # ((a, b), (c, d))

    @classmethod
    def from_rows(cls, field, rows):
        ent = tuple(tuple(_coerce(field, x) for x in row) for row in rows)
        if len(ent) != 2 or any(len(r) != 2 for r in ent):
            raise ValueError("need a 2x2 matrix")
        return cls(field, ent)

    @classmethod
    def identity(cls, field):
        one, zero = field.one(), field.zero()
        return cls(field, ((one, zero), (zero, one)))

    def __mul__(self, other):
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        k = self.field
        return Mat2(k, (
            (dot(k, ((a, e), (b, g))), dot(k, ((a, f), (b, h)))),
            (dot(k, ((c, e), (d, g))), dot(k, ((c, f), (d, h))))))

    @classmethod
    def combination(cls, field, coeffs, mats):
        """sum c m over the pairs, one `dot` per entry."""
        return cls(field, tuple(
            tuple(dot(field, [(c, m.entries[r][s]) for c, m in zip(coeffs, mats)])
                  for s in range(2))
            for r in range(2)))

    def __sub__(self, other):
        return Mat2(self.field, tuple(
            tuple(x - y for x, y in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def det(self):
        (a, b), (c, d) = self.entries
        return dot(self.field, ((a, d), (-b, c)))

    def trace(self):
        return self.entries[0][0] + self.entries[1][1]

    def adjugate(self):
        """[[d, -b], [-c, a]], so m adj(m) = det(m) 1: the inverse of a
        unimodular matrix, with no field inversion."""
        (a, b), (c, d) = self.entries
        return Mat2(self.field, ((d, -b), (-c, a)))

    def inverse(self):
        """adj(m) det(m)^-1; ZeroDivisionError when det(m) is zero or a
        zero divisor of k."""
        det = self.det()
        if det.is_zero():
            raise ZeroDivisionError("singular matrix")
        return Mat2.combination(self.field, (det.inverse(),), (self.adjugate(),))

    def projective_inverse(self, det=None):
        """adj(m) = det(m) m^-1, raising ZeroDivisionError as `inverse`
        does when det(m) is zero or a zero divisor (norm 0) of k; a
        caller that has det(m) passes it."""
        det = self.det() if det is None else det
        if det.is_zero():
            raise ZeroDivisionError("singular matrix")
        if not det.is_rational() and det.norm() == 0:
            raise ZeroDivisionError("inverse of zero or of a zero divisor")
        return self.adjugate()

    def is_zero(self):
        return all(x.is_zero() for r in self.entries for x in r)

    def is_scalar(self):
        (a, b), (c, d) = self.entries
        return b.is_zero() and c.is_zero() and (a - d).is_zero()

    def __eq__(self, other):
        # entries are in lowest terms, so equal values are equal tuples
        return isinstance(other, Mat2) and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def flat(self):
        return [self.entries[0][0], self.entries[0][1],
                self.entries[1][0], self.entries[1][1]]

    def to_json(self):
        return [[_coeff_strings(x) for x in row] for row in self.entries]


def _coerce(field, x):
    if isinstance(x, FieldElement):
        if x.field != field:
            raise ValueError("entry from a different field")
        return x
    if isinstance(x, (int, Fraction)):
        return field.element([Fraction(x)])
    return field.element(x)


def _coeff_strings(elt):
    return [str(c) for c in elt.coeffs]


def proportional(m1, m2):
    """Projective equality: m1 = lambda * m2 for some nonzero lambda in k,
    that is, every cross-multiplication f1_i f2_j - f1_j f2_i vanishes
    and m1 and m2 are both zero or both nonzero."""
    f1, f2, k = m1.flat(), m2.flat(), m1.field
    if any(dot(k, ((f1[i], f2[j]), (-f1[j], f2[i])))
           for i in range(4) for j in range(i + 1, 4)):
        return False
    return any(f1) == any(f2)


def _entries(k, scaled, products):
    """The entries of sum c M + sum X Y over (c, M) in `scaled` and (X, Y)
    in `products`, one `dot` each; `any` stops at the first nonzero."""
    for r in (0, 1):
        for s in (0, 1):
            yield dot(k, [(c, m.entries[r][s]) for c, m in scaled]
                      + [(x.entries[r][t], y.entries[t][s])
                         for x, y in products for t in (0, 1)])


def _certified_product(a, b):
    """(ab, tr a, tr b, tr ab) once the six trace identities hold for
    unimodular a, b, or None if one fails:

    (1) a + a^-1 = tr(a) 1               (2) a^2 = tr(a) a - 1
    (3) a^2 b = tr(a) ab - b             (4) aba = -tr(b) 1 + tr(ab) a + b
    (5) b^-1 a^-1 = tr(b) a^-1 - b a^-1
    (6) ba + ab = (tr(ab) - tr(a)tr(b)) 1 + tr(b) a + tr(a) b

    Each is checked as sum c_i M_i + sum X_j Y_j = 0, one `dot` per entry;
    a^-1, b^-1 are the adjugates of the unimodular a, b and a^2 b is a (ab).
    """
    k = a.field
    eye, one = Mat2.identity(k), k.one()
    if not (a.det() - one).is_zero() or not (b.det() - one).is_zero():
        raise NonUnimodular("both determinants must equal 1")
    ab = a * b
    ta, tb, tab = a.trace(), b.trace(), ab.trace()
    ainv, binv = a.adjugate(), b.adjugate()
    identities = [
        (((one, a), (one, ainv), (-ta, eye)), ()),
        (((-ta, a), (one, eye)), ((a, a),)),
        (((-ta, ab), (one, b)), ((a, ab),)),
        (((tb, eye), (-tab, a), (-one, b)), ((ab, a),)),
        (((-tb, ainv),), ((binv, ainv), (b, ainv))),
        (((one, ab), (ta * tb - tab, eye), (-tb, a), (-ta, b)), ((b, a),)),
    ]
    if any(any(_entries(k, scaled, products)) for scaled, products in identities):
        return None
    return ab, ta, tb, tab


def verify_trace_identities(a, b):
    """All six trace identities of `_certified_product`, checked exactly."""
    return _certified_product(a, b) is not None


@dataclass
class ElementaryOrder:
    """The order with basis {1, a, b, ab} and its closure certificate.

    structure_constants[(i, j)] is the coefficient vector expressing
    basis_i * basis_j in the basis; all entries are algebraic integers.
    """

    field: NumberField
    basis: tuple
    structure_constants: dict
    discriminant: FieldElement  # tr[a, b] - 2, generating the discriminant ideal


def build_order(a, b):
    """R_k[1, a, b, ab] with the full 16-product closure certificate.

    Requires non-commuting unimodular a, b with integral tr(a), tr(b),
    tr(ab); raises ArithmeticError unless the six trace identities of
    `_certified_product` hold, and takes ab and the traces from that
    check.  The nine products without 1 follow from the identities:
    (1,1), (1,3), (3,1) and (2,1) are identities 2, 3, 4 and 6, and (1,2)
    is ab itself; (2,2) is identity 5 times a (b^-1 = tb - b) times b;
    (3,2) is a times (2,2); (3,3) is identity 4 times b plus (2,2); (2,3)
    is a^-1 times (3,3) plus identity 1.  So the structure constants are
    integer polynomials in the traces.  The basis spans exactly when
    tr[a, b] - 2 is nonzero.
    """
    field = a.field
    certified = _certified_product(a, b)
    if certified is None:
        raise ArithmeticError("a trace identity fails")
    ab, ta, tb, tab = certified
    one, zero = field.one(), field.zero()
    if not any(_entries(field, [(-one, ab)], [(b, a)])):
        raise CommutingGenerators("generators commute")
    for t in (ta, tb, tab):
        if not t.is_integral():
            raise NonIntegralTraces(
                f"trace [{', '.join(map(str, t.coeffs))}] is not an "
                "algebraic integer")
    discriminant = _fricke_discriminant(ta, tb, tab)
    if discriminant.is_zero():
        raise CommutingGenerators("basis does not span the algebra")
    e = [[one if k == i else zero for k in range(4)] for i in range(4)]
    constants = {(i, 0): e[i] for i in range(4)} | {(0, j): e[j] for j in range(4)} | {
        (1, 1): [-one, ta, zero, zero],           # a^2 = ta a - 1
        (1, 2): e[3],
        (1, 3): [zero, zero, -one, ta],           # a ab = ta ab - b
        (2, 1): [tab - ta * tb, tb, ta, -one],    # ba = tab - ta tb + tb a + ta b - ab
        (2, 2): [-one, zero, tb, zero],           # b^2 = tb b - 1
        (2, 3): [-ta, one, tab, zero],            # bab = -ta + a + tab b
        (3, 1): [-tb, tab, one, zero],            # aba = -tb + tab a + b
        (3, 2): [zero, -one, zero, tb],           # ab b = tb ab - a
        (3, 3): [-one, zero, zero, tab],          # (ab)^2 = tab ab - 1
    }
    return ElementaryOrder(field=field, basis=(Mat2.identity(field), a, b, ab),
                           structure_constants=constants, discriminant=discriminant)


def _fricke_discriminant(ta, tb, tab):
    """tr[a, b] - 2 = ta^2 + tb^2 + tab^2 - ta tb tab - 4 (Fricke)."""
    return ta * ta + tb * tb + tab * tab - ta * tb * tab - 4


def jorgensen_involution(a, b):
    """tau = ab - ba: trace zero, projectively of order two, and
    conjugates a and b to their inverses.  All four properties are
    certified exactly before returning.  Each entry of tau is one `dot`
    over the four products of a row and a column of ab and of ba."""
    k, p, q = a.field, a.entries, b.entries
    tau = Mat2(k, tuple(tuple(
        dot(k, [(p[r][t], q[t][s]) for t in (0, 1)]
            + [(-q[r][t], p[t][s]) for t in (0, 1)])
        for s in (0, 1)) for r in (0, 1)))
    det = tau.det()
    if det.is_zero():
        raise CommonFixedPoint("ab - ba is singular")
    if not tau.trace().is_zero():
        raise RelationFailure("trace of ab - ba is nonzero")
    if not (tau * tau).is_scalar():
        raise RelationFailure("square of the involution is not scalar")
    tadj = tau.projective_inverse(det)
    if not proportional(tau * a * tadj, a.projective_inverse()):
        raise RelationFailure("involution does not conjugate a to a^-1")
    if not proportional(tau * b * tadj, b.projective_inverse()):
        raise RelationFailure("involution does not conjugate b to b^-1")
    return tau


def klein_four_relations(a, alpha, tau1, tau2):
    """The four conjugation relations and the projective Klein-four check.

    tau1 a tau1 = a^-1,  tau1 alpha tau1 = alpha,
    tau2 a tau2 = a,     tau2 alpha tau2 = alpha^-1,
    with <tau1, tau2> projectively Z/2 x Z/2.
    """
    for name, t in (("tau1", tau1), ("tau2", tau2)):
        if t.det().is_zero():
            raise RelationFailure(f"{name} is singular")
        if not (t * t).is_scalar():
            raise RelationFailure(f"{name}^2 is not scalar")
    t1a, t2a = tau1.projective_inverse(), tau2.projective_inverse()
    relations = [
        ("tau1 a tau1 = a^-1", tau1 * a * t1a, a.projective_inverse()),
        ("tau1 alpha tau1 = alpha", tau1 * alpha * t1a, alpha),
        ("tau2 a tau2 = a", tau2 * a * t2a, a),
        ("tau2 alpha tau2 = alpha^-1", tau2 * alpha * t2a, alpha.projective_inverse()),
    ]
    for name, lhs, rhs in relations:
        if not proportional(lhs, rhs):
            raise RelationFailure(name)
    t12 = tau1 * tau2
    if not proportional(t12, tau2 * tau1):
        raise RelationFailure("tau1 tau2 != tau2 tau1 projectively")
    if proportional(tau1, tau2):
        return False  # the group is Z/2, not Klein four
    if proportional(t12, Mat2.identity(a.field)):
        return False
    return True
