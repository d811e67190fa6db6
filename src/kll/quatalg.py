"""Quaternion algebras as Hilbert symbols, and their ramification.

Local symbols over Q_p are decided by isotropy of the ternary form
a x^2 + b y^2 - z^2: a primitive zero modulo p^3 (odd p) or 2^5 lifts
to Z_p by Hensel's lemma at these precisions, and an isotropic form
over Q_p produces such a zero, so the search is a complete decision
procedure.  The dihedral symbol (-1, tau_n) with
tau_n = 4cos^2(2pi/n) - 4 is handled through the exact minimal
polynomial of 2cos(2pi/n).
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import polys
from .numfield import (NumberField, PrimeIdeal, local_quadratic_subextension,
                       CONTAINS, DOES_NOT_CONTAIN, UNDECIDED)

RAMIFIED = "Ramified"
SPLIT = "Split"

INFINITE_PLACE = "inf"

# pi with 128 fractional bits, used for the numerical root-matching guard
_PI_NUM = 0x3243F6A8885A308D313198A2E03707344
_PI_BITS = 128


def _valuation(n, p):
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _normalize_at_p(a, p):
    """Integer representative of the square class of a in Q_p* with val in {0,1}."""
    a = Fraction(a)
    vn, num = _valuation(a.numerator, p) if a.numerator % p == 0 else (0, a.numerator)
    vd, den = _valuation(a.denominator, p) if a.denominator % p == 0 else (0, a.denominator)
    unit = num * den  # unit part times denominator^2 square class
    return unit * (p ** ((vn - vd) % 2))


def _is_qr(u, p):
    u %= p
    if u == 0:
        raise ValueError("not a unit")
    return pow(u, (p - 1) // 2, p) == 1


def _search_zero_all_units(c, p):
    """Nontrivial zero of c1 x^2 + c2 y^2 + c3 z^2 mod p, all c_i units, p odd.

    Always exists (Chevalley-Warning); returned zero is nonsingular, so it
    Hensel-lifts.  O(p) via a table of squares.
    """
    sq = {}
    for z in range((p + 1) // 2 + 1):
        sq[z * z % p] = z
    inv_c3 = pow(c[2] % p, -1, p)
    for x in range(p):
        t1 = c[0] * x * x
        for y in range(p):
            if x == 0 and y == 0:
                continue
            need = (-(t1 + c[1] * y * y) * inv_c3) % p
            if need in sq:
                return (x, y, sq[need])
    raise ArithmeticError("no zero of a nondegenerate ternary form mod p")


def _ternary_isotropic_odd(c, p):
    """Isotropy of diag(c1, c2, c3) over Q_p, p odd, val_p(c_i) in {0, 1}.

    Searches for a Hensel-liftable primitive zero level by level; branches
    where every zero mod p is singular are descended by the forced
    substitution x_i -> p x_i.  Terminates within two descents.
    """
    units = [i for i in range(3) if c[i] % p != 0]
    if len(units) == 3:
        _search_zero_all_units(c, p)  # witness exists; certifies Split
        return True
    if len(units) == 2:
        i, j = units
        return _is_qr(-c[i] * c[j], p)
    if len(units) == 1:
        i = units[0]
        nxt = [c[t] * p if t == i else c[t] // p for t in range(3)]
        return _ternary_isotropic_odd(nxt, p)
    # all divisible: divide the form by p
    return _ternary_isotropic_odd([ci // p for ci in c], p)


def _ternary_isotropic_2(a, b):
    """Exhaustive primitive-zero search for a x^2 + b y^2 - z^2 mod 2^5.

    val_2(a), val_2(b) <= 1 after square-class reduction, so any primitive
    zero mod 32 has |Q(x)| < |grad Q(x)|^2 and lifts; conversely a zero over
    Q_2 scales to a primitive one mod 32.
    """
    m = 32
    for x in range(m):
        for y in range(m):
            t = a * x * x + b * y * y
            for z in range(m):
                if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                    continue
                if (t - z * z) % m == 0:
                    return True
    return False


def hilbert_symbol_qp(a, b, p):
    """Status of (a, b / Q_p): RAMIFIED (division algebra) or SPLIT.

    p is a prime or INFINITE_PLACE for the real place.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol entries must be nonzero")
    if p == INFINITE_PLACE:
        return RAMIFIED if (a < 0 and b < 0) else SPLIT
    p = int(p)
    an = _normalize_at_p(a, p)
    bn = _normalize_at_p(b, p)
    if p == 2:
        return SPLIT if _ternary_isotropic_2(an, bn) else RAMIFIED
    return SPLIT if _ternary_isotropic_odd([an, bn, -1], p) else RAMIFIED


def base_change_status(a, b, prime):
    """Status of (a, b) over the completion k_nu at the given prime.

    An even-degree local extension splits the division algebra over Q_p;
    an odd-degree one cannot split it.
    """
    base = hilbert_symbol_qp(a, b, prime.rational_prime)
    if base == SPLIT:
        return SPLIT
    return RAMIFIED if prime.local_degree % 2 == 1 else SPLIT


# ---------------------------------------------------------------------------
# tau_n = 4cos^2(2pi/n) - 4 over Q(cos 2pi/n)

def _chebyshev_like(n):
    """D_n with D_n(2cos t) = 2cos(nt); integer coefficients."""
    d0, d1 = [2], [0, 1]
    if n == 0:
        return d0
    for _ in range(n - 1):
        d0, d1 = d1, polys.sub(polys.shift(d1, 1), d0)
    return d1


def _poly_sqrt(q):
    """Exact square root of a monic even-degree integer polynomial."""
    dq = polys.degree(q)
    if dq % 2:
        raise ValueError("odd degree cannot be a square")
    m = dq // 2
    r = [0] * (m + 1)
    r[m] = 1
    for j in range(1, m + 1):
        # match coefficient of x^(2m - j)
        acc = 0
        for i in range(m - j + 1, m + 1):
            k = 2 * m - j - i
            if 0 <= k <= m:
                acc += r[i] * r[k]
        target = q[2 * m - j]
        num = target - acc
        if num % 2:
            raise ValueError("not a perfect square polynomial")
        r[m - j] = num // 2
    if polys.mul(r, r) != polys.normalize(list(q)):
        raise ValueError("not a perfect square polynomial")
    return r


def _euler_phi(n):
    out = n
    for p in set(polys._prime_factors_int(n)):
        out -= out // p
    return out


_TWO_COS_CACHE = {1: [-2, 1], 2: [2, 1]}


def two_cos_minpoly(n):
    """Minimal polynomial of 2cos(2pi/n) over Q, constant term first.

    Extracted from the recursion D_n(x) - 2 = (x-2)(x+2)^[2|n] *
    prod_{d | n, d >= 3} psi_d(x)^2, then checked numerically at the
    actual root to 60-bit precision.
    """
    if n in _TWO_COS_CACHE:
        return list(_TWO_COS_CACHE[n])
    rem = polys.sub(_chebyshev_like(n), [2])
    rem = polys.divmod_exact(rem, [-2, 1])[0]
    if n % 2 == 0:
        rem = polys.divmod_exact(rem, [2, 1])[0]
    for d in range(3, n):
        if n % d == 0:
            psi_d = two_cos_minpoly(d)
            rem = polys.divmod_exact(rem, polys.mul(psi_d, psi_d))[0]
    rem = [int(c) for c in rem]
    psi = _poly_sqrt(rem)
    if polys.degree(psi) != _euler_phi(n) // 2:
        raise ArithmeticError(f"wrong degree for minimal polynomial at n={n}")
    _verify_root_numerically(psi, n)
    _TWO_COS_CACHE[n] = list(psi)
    return list(psi)


def _cos_dyadic(t, terms=40):
    """cos(t) for a Fraction t with |t| <= 2.2, by Taylor series; exact Fraction.

    Truncation error is below t^(2*terms)/(2*terms)!, far under 2^-100.
    """
    acc = Fraction(0)
    term = Fraction(1)
    t2 = t * t
    for k in range(terms):
        acc += term
        term = -term * t2 / ((2 * k + 1) * (2 * k + 2))
    return acc


def _verify_root_numerically(psi, n, bits=60):
    """Guard: psi must vanish at 2cos(2pi/n) to ~bits of precision."""
    two_pi = Fraction(2 * _PI_NUM, 1 << _PI_BITS)
    t = two_pi / n
    # reduce to |t| <= 2.2 by symmetry cos(t) = -cos(pi - t) when t > pi/2
    if t > Fraction(22, 10):
        c = -_cos_dyadic(Fraction(_PI_NUM, 1 << _PI_BITS) - t)
    else:
        c = _cos_dyadic(t)
    val = polys.evaluate(psi, 2 * c)
    size = 1 + max(abs(x) for x in psi)
    if abs(val) * (1 << bits) > size:
        raise ArithmeticError(f"minimal polynomial failed root check at n={n}")


def tau_field(n):
    """Q(cos 2pi/n) presented by the minimal polynomial of 2cos(2pi/n)."""
    return NumberField(tuple(two_cos_minpoly(n)))


def tau_n(n):
    """tau_n = 4cos^2(2pi/n) - 4 as an exact element of Q(cos 2pi/n)."""
    if n < 3:
        raise ValueError("n >= 3 required")
    k = tau_field(n)
    c = k.generator()
    return c * c - 4


def tau_n_norm(n):
    """Field norm of tau_n down to Q, by resultant against x^2 - 4."""
    if n < 3:
        raise ValueError("n >= 3 required")
    psi = two_cos_minpoly(n)
    res = polys.resultant(psi, [-4, 0, 1])
    if res.denominator != 1:
        raise ArithmeticError("norm of an algebraic integer must be rational integer")
    return res.numerator


# ---------------------------------------------------------------------------
# Ramification reports and hypothesis checks

@dataclass
class RamificationReport:
    real_places_ramified: int
    finite_places: list  # (PrimeIdeal, status) pairs
    undecided: int = 0

    @property
    def parity_consistent(self):
        if any(s == UNDECIDED for _, s in self.finite_places):
            return True  # cannot refute parity with undecided places
        total = self.real_places_ramified + sum(
            1 for _, s in self.finite_places if s == RAMIFIED)
        return total % 2 == 0

    def to_json(self):
        return {
            "real": self.real_places_ramified,
            "finite": [
                {"p": pr.rational_prime, "e": pr.ramification_index,
                 "f": pr.residue_degree, "status": status.lower()}
                for pr, status in self.finite_places
            ],
            "parity_ok": self.parity_consistent,
        }


def rational_symbol_report(field, a, b):
    """Ramification of (a, b / k) for rational entries a, b over the field.

    Finite places are examined over every prime dividing 2ab (the symbol
    is split elsewhere); the real count uses the signature and the sign
    test at the real place.
    """
    from .numfield import signature, split_prime, NonMonogenicPrime
    a, b = Fraction(a), Fraction(b)
    r1, _r2 = signature(field)
    real_ram = r1 if hilbert_symbol_qp(a, b, INFINITE_PLACE) == RAMIFIED else 0
    support = {2}
    for q in (a.numerator, a.denominator, b.numerator, b.denominator):
        for f_ in polys._prime_factors_int(abs(q)):
            support.add(f_)
    finite = []
    for p in sorted(support):
        try:
            for pr in split_prime(field, p):
                finite.append((pr, base_change_status(a, b, pr)))
        except NonMonogenicPrime:
            finite.append((PrimeIdeal(p, 1, 1), UNDECIDED))
    return RamificationReport(real_places_ramified=real_ram, finite_places=finite)


SATISFIED = "Satisfied"
VIOLATED = "Violated"


@dataclass
class HypothesisResult:
    status: str
    witness: PrimeIdeal = None

    def __bool__(self):
        return self.status == SATISFIED


def clozel_hypothesis(field, finite_ramification):
    """No completion at a ramified finite place may contain a quadratic
    extension of Q_p.  Returns Satisfied/Violated(witness)/Undecided."""
    undecided = False
    for pr in finite_ramification:
        st = local_quadratic_subextension(pr)
        if st == CONTAINS:
            return HypothesisResult(VIOLATED, witness=pr)
        if st == UNDECIDED:
            undecided = True
    return HypothesisResult(UNDECIDED if undecided else SATISFIED)


def _prime_power(n):
    """(p, t) if n = p^t for a prime p, else None."""
    for p in polys._prime_factors_int(n):
        t = 0
        m = n
        while m % p == 0:
            m //= p
            t += 1
        if m == 1:
            return p, t
        return None
    return None


@dataclass
class DihedralSymbolInput:
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dihedral parameter n >= 3 required")


@dataclass
class DihedralReport:
    """Ramification constraints from the symbol (-1, tau_n)."""

    n: int
    norm: int
    is_unit: bool
    case: str
    candidate_primes: tuple
    lemma_discrepancy: bool
    note: str
    min_poly: tuple = dc_field(default=())

    def to_json(self):
        return {
            "n": self.n,
            "norm": str(self.norm),
            "unit": self.is_unit,
            "case": self.case,
            "candidates": list(self.candidate_primes),
            "lemma_discrepancy": self.lemma_discrepancy,
            "note": self.note,
            "two_cos_min_poly": list(self.min_poly),
        }


def dihedral_ramification_analysis(inp):
    """Constraints on Ram_f of the (-1, tau_n) symbol for the dihedral group of order 2n.

    The order discriminant is <tau_n>; a unit norm forces empty finite
    ramification, a prime-power n pins the unique candidate rational
    prime, and n = 4 leaves only dyadic candidates.  Norms that are
    neither units nor consistent with a prime-power n are reported as
    discrepancies with the stated norm dichotomy rather than trusted.
    """
    n = inp.n if isinstance(inp, DihedralSymbolInput) else int(inp)
    if n < 3:
        raise ValueError("n >= 3 required")
    norm = tau_n_norm(n)
    psi = tuple(two_cos_minpoly(n))
    is_unit = abs(norm) == 1
    pp = _prime_power(n)

    if is_unit:
        return DihedralReport(n, norm, True, "unit", (),
                              lemma_discrepancy=False,
                              note="tau_n is a unit; Ram_f is empty and the order is maximal",
                              min_poly=psi)
    if n == 4:
        return DihedralReport(n, norm, False, "dyadic", (2,),
                              lemma_discrepancy=False,
                              note="n = 4: any ramified finite place is dyadic",
                              min_poly=psi)
    norm_primes = tuple(sorted(set(polys._prime_factors_int(abs(norm)))))
    if pp is not None:
        p = pp[0]
        discrepancy = norm_primes != (p,)
        note = "n = p^t: Ram_f empty or the unique place above p"
        if discrepancy:
            note += f"; norm {norm} not supported on p={p} alone"
        return DihedralReport(n, norm, False, "prime-power", (p,),
                              lemma_discrepancy=discrepancy, note=note,
                              min_poly=psi)
    return DihedralReport(
        n, norm, False, "discrepancy", norm_primes,
        lemma_discrepancy=True,
        note=("n is not a prime power yet tau_n is not a unit; "
              "candidates taken from the computed norm"),
        min_poly=psi)
