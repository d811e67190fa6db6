"""Finite matrix groups SL(2, q) and PSL(2, q), reduction of number-field
matrices modulo a prime, product surjectivity by closure enumeration,
the Klein-four normalizer bound, and pullback coset tables for covers.

Matrices are flat tuples (a, b, c, d) of ring-element encodings; the
projective canonical representative of M is min(M, -M).  All orders
are computed by exact closure enumeration under an explicit budget.
"""

from dataclasses import dataclass
from math import gcd

from .gf import GF, ModRing
from .fpgroups import SubgroupTable, BudgetExceeded, _budget


class DenominatorNotCoprime(ValueError):
    """An entry's denominator vanishes modulo the prime."""


class RelatorViolated(ValueError):
    """Generator images do not satisfy a presentation relator."""


DEFAULT_ORDER_BUDGET = 10 ** 7


def _orbit(start, moves, act, budget=None):
    """Breadth-first orbit of `start` under act(x, move), in discovery
    order; BudgetExceeded once it holds more than `budget` points."""
    seen = {start}
    orbit = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for m in moves:
                y = act(x, m)
                if y not in seen:
                    seen.add(y)
                    if budget is not None and len(seen) > budget:
                        raise BudgetExceeded(
                            f"closure exceeded budget {budget}")
                    nxt.append(y)
        orbit += nxt
        frontier = nxt
    return orbit


def mat_mul(ring, x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (ring.add(ring.mul(a, e), ring.mul(b, g)),
            ring.add(ring.mul(a, f), ring.mul(b, h)),
            ring.add(ring.mul(c, e), ring.mul(d, g)),
            ring.add(ring.mul(c, f), ring.mul(d, h)))


def mat_det(ring, x):
    a, b, c, d = x
    return ring.sub(ring.mul(a, d), ring.mul(b, c))


def mat_neg(ring, x):
    return tuple(ring.neg(v) for v in x)


def mat_inv_sl(ring, x):
    """Inverse of a determinant-1 matrix (adjugate)."""
    a, b, c, d = x
    return (d, ring.neg(b), ring.neg(c), a)


def mat_identity(ring):
    return (ring.one, ring.zero, ring.zero, ring.one)


def proj_canonical(ring, x):
    return min(x, mat_neg(ring, x))


def closure(ring, generators, projective=False, budget=None):
    """BFS closure of determinant-1 generators; returns a frozenset."""
    if budget is None:
        budget = _budget(DEFAULT_ORDER_BUDGET)
    gens = []
    for g in generators:
        g = tuple(g)
        if mat_det(ring, g) != ring.one:
            raise ValueError("generators must have determinant 1")
        gens += [g, mat_inv_sl(ring, g)]
    start = mat_identity(ring)
    if projective:
        # the product's sign class does not depend on the generator's sign
        start = proj_canonical(ring, start)
        act = lambda m, g: proj_canonical(ring, mat_mul(ring, m, g))
    else:
        act = lambda m, g: mat_mul(ring, m, g)
    return frozenset(_orbit(start, gens, act, budget))


def sl2_elements(ring):
    """All of SL(2, R) by direct determinant scan (tiny rings only)."""
    out = []
    els = list(ring.elements())
    one = ring.one
    for a in els:
        for b in els:
            for c in els:
                for d in els:
                    if ring.sub(ring.mul(a, d), ring.mul(b, c)) == one:
                        out.append((a, b, c, d))
    return out


def psl2_elements(ring):
    return sorted({proj_canonical(ring, m) for m in sl2_elements(ring)})


def sl2_order_formula(p, f=1):
    q = p ** f
    return q * (q * q - 1)


def psl2_order_formula(p, f=1):
    q = p ** f
    return q * (q * q - 1) // gcd(2, q - 1)


@dataclass
class FiniteMatrixGroup:
    """A concrete group of 2x2 matrices over a small ring."""

    ring: object
    elements: frozenset
    projective: bool = False

    @classmethod
    def special_linear(cls, modulus):
        ring = ModRing(modulus)
        return cls(ring, frozenset(sl2_elements(ring)), projective=False)

    @classmethod
    def generated(cls, ring, generators, projective=False, budget=None):
        return cls(ring, closure(ring, generators, projective, budget),
                   projective=projective)

    @property
    def order(self):
        return len(self.elements)

    def canonical(self, m):
        return proj_canonical(self.ring, tuple(m)) if self.projective else tuple(m)

    def multiply(self, x, y):
        return self.canonical(mat_mul(self.ring, x, y))

    def inverse(self, x):
        return self.canonical(mat_inv_sl(self.ring, x))

    def identity(self):
        return self.canonical(mat_identity(self.ring))


# ---------------------------------------------------------------------------
# Reduction of number-field matrices

@dataclass
class ReductionResult:
    residue_field: object  # ModRing(p), or GF for residue degree > 1
    images: list          # flat 4-tuples of field encodings
    projective: bool
    group_order: int = None


def reduce_mod_prime(gens, prime, presentation=None, projective=False,
                     compute_order=False, budget=None):
    """Images of 2x2 number-field matrices in (P)SL(2, q), q = p^f.

    The residue field is F_p[t]/(local factor); entry denominators must
    be coprime to p.  When a presentation is supplied, each relator is
    checked to map to the identity (up to sign in the projective case).
    """
    p = prime.rational_prime
    if prime.residue_degree == 1:
        field = ModRing(p)
        theta = _linear_root(prime.local_factor, p)
    else:
        field = GF(p, list(prime.local_factor))
        theta = field.encode([0, 1])
    images = []
    for m in gens:
        flat = []
        for elt in m.flat():
            flat.append(_reduce_field_element(elt, field, theta, p))
        img = tuple(flat)
        if mat_det(field, img) != field.one:
            raise ValueError("reduced matrix is not in SL(2, q)")
        if projective:
            img = proj_canonical(field, img)
        images.append(img)
    if presentation is not None:
        _check_relators(field, presentation, images, projective)
    order = None
    if compute_order:
        order = len(closure(field, images, projective, budget))
    return ReductionResult(residue_field=field, images=images,
                           projective=projective, group_order=order)


def _linear_root(local_factor, p):
    # monic t + c: root is -c
    if len(local_factor) != 2:
        raise ValueError("degree-1 prime needs a linear local factor")
    return (-local_factor[0]) % p


def _reduce_field_element(elt, field, theta, p):
    acc = field.zero
    power = field.one
    for coeff in elt.coeffs:
        num, den = coeff.numerator, coeff.denominator
        if den % p == 0:
            raise DenominatorNotCoprime(f"denominator {den} vanishes mod {p}")
        c = (num * pow(den, -1, p)) % p
        acc = field.add(acc, field.mul(c, power))
        power = field.mul(power, theta)
    return acc


def _check_relators(ring, presentation, images, projective):
    ident = mat_identity(ring)
    ident_set = {ident, mat_neg(ring, ident)} if projective else {ident}
    invs = [mat_inv_sl(ring, m) for m in images]
    for r in presentation.relators:
        acc = ident
        for x in r:
            m = images[x - 1] if x > 0 else invs[-x - 1]
            acc = mat_mul(ring, acc, m)
        if acc not in ident_set:
            raise RelatorViolated(
                f"relator does not map to the identity: {r}")


# ---------------------------------------------------------------------------
# Products of PSL(2, p_i)

class ProductGroup:
    """Direct product of PSL(2, p_i) (or SL); elements are tuples of
    per-factor canonical matrices."""

    def __init__(self, primes, projective=True):
        self.primes = list(primes)
        self.rings = [ModRing(p) for p in self.primes]
        self.projective = projective

    def order(self):
        total = 1
        for p in self.primes:
            total *= (psl2_order_formula(p) if self.projective
                      else sl2_order_formula(p))
        return total

    def canonical(self, tup):
        if self.projective:
            return tuple(proj_canonical(r, m) for r, m in zip(self.rings, tup))
        return tuple(tuple(m) for m in tup)

    def multiply(self, x, y):
        return self.canonical(tuple(
            mat_mul(r, a, b) for r, a, b in zip(self.rings, x, y)))

    def inverse(self, x):
        return self.canonical(tuple(
            mat_inv_sl(r, m) for r, m in zip(self.rings, x)))

    def identity(self):
        return self.canonical(tuple(mat_identity(r) for r in self.rings))

    def closure(self, generators, budget=None):
        if budget is None:
            budget = _budget(DEFAULT_ORDER_BUDGET)
        gens = []
        for g in generators:
            g = self.canonical(g)
            gens.append(g)
            gens.append(self.inverse(g))
        return frozenset(_orbit(self.identity(), gens, self.multiply, budget))

    def all_elements(self, budget=None):
        if budget is None:
            budget = _budget(DEFAULT_ORDER_BUDGET)
        if self.order() > budget:
            raise BudgetExceeded(
                f"product order {self.order()} exceeds budget {budget}")
        per_factor = [psl2_elements(r) if self.projective else sl2_elements(r)
                      for r in self.rings]
        out = [()]
        for factor in per_factor:
            out = [t + (m,) for t in out for m in factor]
        return out


def product_surjectivity(primes, generator_tuples, projective=True, budget=None):
    """Is the subgroup generated by the tuples the whole product?

    generator_tuples: one tuple of per-factor matrices per generator.
    Decided by exact closure enumeration against the product order.
    """
    grp = ProductGroup(primes, projective=projective)
    sub = grp.closure(generator_tuples, budget)
    return len(sub) == grp.order()


@dataclass
class NormalizerReport:
    subgroup_order: int
    witness_order: int
    quotient_order: int       # |N(H)/H|, exact or a lower bound
    bound: int                # 4^(n-1)
    holds: bool
    exact: bool


def normalizer_quotient_order(primes, a_tuple, b_tuple, budget=None):
    """|N(H)/H| for H = <A, B> inside prod PSL(2, p_i), A = (A_1..A_n),
    B = (B_1..B_n), against the lower bound 4^(n-1).

    The witness subgroup generated by single-slot insertions of A_i and
    B_i always normalizes H; when the product order is within budget the
    normalizer is computed exactly by enumeration, otherwise the witness
    gives a flagged lower bound.
    """
    grp = ProductGroup(primes, projective=True)
    n = len(grp.primes)
    a = grp.canonical(a_tuple)
    b = grp.canonical(b_tuple)
    ident = grp.identity()
    ab = grp.multiply(a, b)
    for i in range(n):
        for name, tup in (("A", a), ("B", b), ("AB", ab)):
            if tup[i] == ident[i]:
                raise ValueError(f"{name}_{i + 1} is trivial; the Klein-four "
                                 "image degenerates in that slot")
    H = grp.closure([a, b], budget)
    witness_gens = []
    for i in range(n):
        wa = list(ident)
        wa[i] = a[i]
        wb = list(ident)
        wb[i] = b[i]
        witness_gens.append(tuple(wa))
        witness_gens.append(tuple(wb))
    W = grp.closure(witness_gens, budget)
    bound = 4 ** (n - 1)
    try:
        everything = grp.all_elements(budget)
        normalizer = []
        H_set = H
        for g in everything:
            ginv = grp.inverse(g)
            if all(grp.multiply(grp.multiply(g, h), ginv) in H_set for h in (a, b)):
                normalizer.append(g)
        # closure under the group op is automatic for a normalizer
        quotient = len(normalizer) // len(H)
        return NormalizerReport(subgroup_order=len(H), witness_order=len(W),
                                quotient_order=quotient, bound=bound,
                                holds=quotient >= bound, exact=True)
    except BudgetExceeded:
        inter = len(W & H)
        quotient_lb = len(W) // inter
        return NormalizerReport(subgroup_order=len(H), witness_order=len(W),
                                quotient_order=quotient_lb, bound=bound,
                                holds=quotient_lb >= bound, exact=False)


# ---------------------------------------------------------------------------
# Pullback coset tables

def pullback_cover_table(pres, phi_images, subgroup, group=None):
    """Coset table of phi^{-1}(H) for phi: G -> finite matrix group.

    phi_images: per-generator matrices (flat tuples over `group`'s ring,
    or a FiniteMatrixGroup is built from them).  subgroup: iterable of
    elements of the image group, closed under multiplication.
    """
    if group is None:
        raise ValueError("supply the FiniteMatrixGroup the images live in")
    images = [group.canonical(m) for m in phi_images]
    invs = [group.inverse(m) for m in images]
    # relators must act trivially
    for r in pres.relators:
        acc = group.identity()
        for x in r:
            acc = group.multiply(acc, images[x - 1] if x > 0 else invs[-x - 1])
        if acc != group.identity():
            raise RelatorViolated(f"relator {r} violated by the images")
    H = {group.canonical(h) for h in subgroup}
    ident = group.identity()
    if ident not in H:
        raise ValueError("subgroup must contain the identity")
    for h1 in H:
        for h2 in H:
            if group.multiply(h1, h2) not in H:
                raise ValueError("subgroup is not closed under multiplication")

    def coset_key(g):
        return min(group.multiply(h, g) for h in H)

    reps = _orbit(coset_key(ident), images + invs,
                  lambda rep, m: coset_key(group.multiply(rep, m)))
    index_of = {key: i for i, key in enumerate(reps)}
    action = []
    for g, m in enumerate(images):
        action.append(tuple(index_of[coset_key(group.multiply(rep, m))]
                            for rep in reps))
    return SubgroupTable(pres, tuple(action))
