"""Quaternion algebras as Hilbert symbols, and their ramification.

Local symbols over Q_p are read off the valuations and unit parts of
their entries by Serre's closed formula (A Course in Arithmetic, 1973,
III.1.2, Theorem 1), with no search.  The dihedral symbol (-1, tau_n)
with tau_n = 4cos^2(2pi/n) - 4 is handled through the exact minimal
polynomial of 2cos(2pi/n).
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import polys
from .numfield import (NumberField, PrimeIdeal, local_quadratic_subextension,
                       CONTAINS, UNDECIDED)

RAMIFIED = "Ramified"
SPLIT = "Split"

INFINITE_PLACE = "inf"

def _valuation(x, p):
    """(v, u) with x = p^v w for a p-adic unit w, and u an integer prime
    to p in the square class of w: for x = n/d it is the product of the
    unit parts of n and d, since 1/d = d / d^2."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    v, u = 0, 1
    for n, step in ((x.numerator, 1), (x.denominator, -1)):
        while n % p == 0:
            n //= p
            v += step
        u *= n
    return v, u


def hilbert_symbol_qp(a, b, p):
    """Status of (a, b / Q_p): RAMIFIED (division algebra) or SPLIT.

    p is a prime or INFINITE_PLACE for the real place.  With a = p^alpha u
    and b = p^beta v, (a, b)_p = (-1)^e where, for odd p,
    e = alpha beta eps(p) + beta [u/p = -1] + alpha [v/p = -1], and at
    p = 2, e = eps(u) eps(v) + alpha omega(v) + beta omega(u), with
    eps(w) = (w - 1)/2 and omega(w) = (w^2 - 1)/8 mod 2.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol entries must be nonzero")
    if p == INFINITE_PLACE:
        return RAMIFIED if (a < 0 and b < 0) else SPLIT
    p = int(p)
    if not polys.is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    (alpha, u), (beta, v) = _valuation(a, p), _valuation(b, p)
    if p == 2:
        u, v = u % 8, v % 8
        e = ((u - 1) // 2 * ((v - 1) // 2) + alpha * ((v * v - 1) // 8)
             + beta * ((u * u - 1) // 8))
    else:
        half = (p - 1) // 2
        e = (alpha * beta * half + beta * (pow(u, half, p) != 1)
             + alpha * (pow(v, half, p) != 1))
    return RAMIFIED if e % 2 else SPLIT


# ---------------------------------------------------------------------------
# tau_n = 4cos^2(2pi/n) - 4 over Q(cos 2pi/n)

def _euler_phi(n):
    out = n
    for p in set(polys._prime_factors_int(n)):
        out -= out // p
    return out


def _cyclotomic(n):
    """Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, constant term first."""
    phi = {}
    for m in (d for d in range(1, n + 1) if n % d == 0):
        rem = [-1] + [0] * (m - 1) + [1]
        for d in [d for d in phi if m % d == 0]:
            rem, r = polys.pseudo_divmod(rem, phi[d])  # Phi_d is monic
            if r:
                raise ArithmeticError(f"Phi_{d} does not divide x^{m} - 1")
        phi[m] = tuple(rem)
    return phi[n]


def two_cos_minpoly(n):
    """Minimal polynomial of 2cos(2pi/n) over Q, constant term first.

    For n >= 3, Phi_n is palindromic of degree 2m with m = phi(n)/2, so
    x^-m Phi_n(x) = c_m + sum_k c_(m+k) (x^k + x^-k), and with
    D_k(x + 1/x) = x^k + x^-k this is psi_n(x + 1/x) (Watkins-Zeitlin).
    The certificate x^m psi_n(x + 1/x) = Phi_n(x) is checked exactly;
    it puts 2cos(2pi/n) among the roots of the monic psi_n, whose degree
    phi(n)/2 = [Q(cos 2pi/n) : Q] then makes it minimal.
    """
    if n <= 2:
        return [-2, 1] if n == 1 else [2, 1]  # 2cos(2pi/n) = +-2
    phi = _cyclotomic(n)
    m = polys.degree(phi) // 2
    psi = [phi[m]]
    d_prev, d_k = [2], [0, 1]  # D_0, D_1; D_(k+1) = x D_k - D_(k-1)
    for k in range(1, m + 1):
        psi = polys.add(psi, polys.scale(d_k, phi[m + k]))
        d_prev, d_k = d_k, polys.sub(polys.shift(d_k, 1), d_prev)
    if polys.degree(psi) != _euler_phi(n) // 2:
        raise ArithmeticError(f"wrong degree for minimal polynomial at n={n}")
    # x^m psi(x + 1/x) = sum_j psi_j x^(m-j) (x^2 + 1)^j
    lhs, power = [], [1]
    for j, c in enumerate(psi):
        lhs = polys.add(lhs, polys.scale(polys.shift(power, m - j), c))
        power = polys.mul(power, [1, 0, 1])
    if lhs != list(phi):
        raise ArithmeticError(f"minimal polynomial certificate fails at n={n}")
    return psi


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
    """Field norm of tau_n down to Q (see `_tau_norm`)."""
    if n < 3:
        raise ValueError("n >= 3 required")
    return _tau_norm(two_cos_minpoly(n))


def _tau_norm(psi):
    """N(tau_n) from psi_n: with tau_n = (c - 2)(c + 2) and psi_n monic,
    it is psi_n(2) psi_n(-2)."""
    return polys.evaluate(psi, 2) * polys.evaluate(psi, -2)


# ---------------------------------------------------------------------------
# Hypothesis checks

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
        t, m = _valuation(n, p)
        return (p, t) if m == 1 else None
    return None


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
    n = int(inp)
    if n < 3:
        raise ValueError("n >= 3 required")
    psi = tuple(two_cos_minpoly(n))
    norm = _tau_norm(psi)
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
