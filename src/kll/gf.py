"""Small finite rings for matrix groups: Z/m (every prime field F_p
among them) and the extension fields F_{p^f} = F_p[t]/(g).

Both share one interface (add, sub, mul, neg, zero, one, elements, q).
Z/m elements are the integers 0..m-1.  F_p[t]/(g) elements are encoded
as integers in [0, p^f) via base-p digits of the coefficient vector;
arithmetic decodes, computes with F_p polynomials, and re-encodes.
"""

from . import polys


class ModRing:
    """Z/m (a field exactly when m is prime)."""

    def __init__(self, m):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.q = m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    @property
    def one(self):
        return 1 % self.m

    @property
    def zero(self):
        return 0

    def elements(self):
        return range(self.m)

    def __repr__(self):
        return f"Z/{self.m}"


class GF:
    """F_p[t]/(g) for a monic irreducible g over F_p."""

    def __init__(self, p, modulus):
        """modulus: g as a coefficient list, constant first."""
        self.p = p
        self.modulus = [c % p for c in modulus]
        self.f = polys.degree(self.modulus)
        if self.f < 1:
            raise ValueError("modulus must have degree >= 1")
        if self.f > 1 and not polys.is_irreducible_modp(self.modulus, p):
            raise ValueError("modulus must be irreducible mod p")
        self.q = p ** self.f

    def encode(self, coeffs):
        val = 0
        for c in reversed(list(coeffs)[:self.f]):
            val = val * self.p + (c % self.p)
        return val

    def decode(self, val):
        out = []
        for _ in range(self.f):
            out.append(val % self.p)
            val //= self.p
        return out

    def add(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        return self.encode([(x + y) % self.p for x, y in zip(ca, cb)])

    def sub(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        return self.encode([(x - y) % self.p for x, y in zip(ca, cb)])

    def neg(self, a):
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def mul(self, a, b):
        prod = polys.mul(self.decode(a), self.decode(b))
        red = polys.modp_divmod(prod, self.modulus, self.p)[1]
        return self.encode(red + [0] * self.f)

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return self.encode([1])

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"GF({self.p}^{self.f})"
