"""Independent reference arithmetic for the benchmark's verdict checks.

Nothing here imports `kll`: every function re-derives a fact from first
principles (BFS, direct matrix arithmetic mod p, closed forms), so a
verdict that agrees with it was not checked against itself.
"""

from collections import deque
from fractions import Fraction
from itertools import product
from math import factorial


# ---------------------------------------------------------------------------
# Graphs

def girth(num_vertices, edges):
    """Shortest cycle length of a multigraph (loop 1, parallel pair 2)."""
    seen = set()
    best = None
    adj = [[] for _ in range(num_vertices)]
    for idx, (u, v) in enumerate(edges):
        if u == v:
            return 1
        key = (min(u, v), max(u, v))
        if key in seen:
            best = 2
        seen.add(key)
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    if best is not None:
        return best
    for root in range(num_vertices):
        dist = {root: 0}
        via = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w, idx in adj[u]:
                if idx == via[u]:
                    continue
                if w in dist:
                    length = dist[u] + dist[w] + 1
                    if best is None or length < best:
                        best = length
                else:
                    dist[w] = dist[u] + 1
                    via[w] = idx
                    queue.append(w)
    return best


def components(vertices, edges):
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in vertices})


def subgraph_b1(edges, indices):
    """(b1, connected) of the subgraph spanned by the chosen edges."""
    sub = [edges[i] for i in indices]
    verts = {x for e in sub for x in e}
    comps = components(verts, sub)
    return len(sub) - len(verts) + comps, comps == 1


def is_connected_cubic(num_vertices, edges):
    degree = [0] * num_vertices
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return all(d == 3 for d in degree) and \
        components(range(num_vertices), edges) == 1


def random_simple_cubic(num_vertices, rng):
    """Uniform simple connected cubic graph by configuration-model
    rejection; edges sorted so the same seed writes the same file."""
    while True:
        stubs = [v for v in range(num_vertices) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in edges) or len(set(edges)) != len(edges):
            continue
        if components(range(num_vertices), edges) == 1:
            return sorted(edges)


# ---------------------------------------------------------------------------
# 2x2 matrices mod m, as flat tuples (a, b, c, d)

def mat_mul(x, y, m):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m,
            (c * e + d * g) % m, (c * f + d * h) % m)


def mat_inv(x, m):
    a, b, c, d = x
    return (d % m, -b % m, -c % m, a % m)


def proj(x, m):
    return min(x, tuple(-v % m for v in x))


def sl2(m):
    return [x for x in product(range(m), repeat=4)
            if (x[0] * x[3] - x[1] * x[2]) % m == 1]


def psl2(p):
    return sorted({proj(x, p) for x in sl2(p)})


def sl2_order(m):
    """|SL(2, Z/m)| = m^3 prod_{p | m} (1 - p^-2)."""
    order = Fraction(m ** 3)
    for p in prime_factors(m):
        order *= 1 - Fraction(1, p * p)
    return int(order)


def psl2_order(p):
    return p * (p * p - 1) // 2


def closure_size(gen_tuples, moduli):
    """|<gens>| in the product of PSL(2, p) over the given primes, by BFS."""
    def canon(t):
        return tuple(proj(x, p) for x, p in zip(t, moduli))

    def mul(s, t):
        return canon(tuple(mat_mul(x, y, p) for x, y, p in zip(s, t, moduli)))

    gens = []
    for g in gen_tuples:
        gens.append(canon(g))
        gens.append(canon(tuple(mat_inv(x, p) for x, p in zip(g, moduli))))
    start = canon(tuple((1, 0, 0, 1) for _ in moduli))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = mul(s, g)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def normalizer_order(primes, a, b):
    """|N(<A, B>)| in prod PSL(2, p_i), factor by factor: g normalises
    H iff (gAg^-1, gBg^-1) lies in H x H, and that condition splits
    over the factors."""
    H = closure_size([a, b], primes)
    per_factor = []
    for i, p in enumerate(primes):
        counts = {}
        for g in psl2(p):
            gi = mat_inv(g, p)
            key = (proj(mat_mul(mat_mul(g, a[i], p), gi, p), p),
                   proj(mat_mul(mat_mul(g, b[i], p), gi, p), p))
            counts[key] = counts.get(key, 0) + 1
        per_factor.append(counts)
    total = 0
    for h1 in H:
        for h2 in H:
            term = 1
            for i, counts in enumerate(per_factor):
                term *= counts.get((h1[i], h2[i]), 0)
            total += term
    return total, len(H)


def klein_four_pair(p, rng):
    """Commuting involutions a, b of PSL(2, p) with a, b, ab nontrivial."""
    involutions = [x for x in psl2(p) if (x[0] + x[3]) % p == 0]
    while True:
        a = rng.choice(involutions)
        partners = [x for x in involutions
                    if x != a and proj(mat_mul(a, x, p), p) == proj(mat_mul(x, a, p), p)]
        if partners:
            return a, rng.choice(partners)


def elementary_abelian_2_rank_witness(m, rank):
    """Pairwise commuting involutions of SL(2, Z/m) spanning (Z/2)^rank,
    or None.  A group containing (Z/2)^r needs r generators somewhere."""
    ident = (1, 0, 0, 1)
    invs = [x for x in sl2(m) if x != ident and mat_mul(x, x, m) == ident]
    span = {ident}
    chosen = []

    def extend(start):
        nonlocal span
        if len(chosen) == rank:
            return True
        for i in range(start, len(invs)):
            x = invs[i]
            if x in span or any(mat_mul(x, y, m) != mat_mul(y, x, m) for y in chosen):
                continue
            saved = span
            span = span | {mat_mul(s, x, m) for s in span}
            chosen.append(x)
            if extend(i + 1):
                return True
            chosen.pop()
            span = saved
        return False

    return list(chosen) if extend(0) else None


# ---------------------------------------------------------------------------
# Integers and polynomials

def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primes_upto(n):
    return [p for p in range(2, n + 1) if prime_factors(p) == [p]]


def cyclotomic_at(n, x):
    """Phi_n(x) for an integer x, dividing x^n - 1 by Phi_d for d | n, d < n
    as integer polynomials (constant term first)."""
    polys = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        num = [-1] + [0] * (d - 1) + [1]
        for e in range(1, d):
            if d % e == 0:
                num = _exact_div(num, polys[e])
        polys[d] = num
    return sum(c * x ** i for i, c in enumerate(polys[n]))


def _exact_div(num, den):
    """Quotient of integer polynomials; den is monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        for i, b in enumerate(den):
            num[k + i] -= c * b
    return out


def euler_phi(n):
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def tau_norm(n):
    """N(4cos^2(2pi/n) - 4) = prod (c_i - 2)(c_i + 2) over the conjugates
    c_i = 2cos(2pi k/n): each factor is negative, and
    |prod (c_i - 2)| = Phi_n(1), |prod (c_i + 2)| = |Phi_n(-1)|."""
    sign = -1 if (euler_phi(n) // 2) % 2 else 1
    return sign * cyclotomic_at(n, 1) * abs(cyclotomic_at(n, -1))


class QuotientRing:
    """Q[x]/(f) for monic integer f, coefficient lists constant first."""

    def __init__(self, f):
        self.f = [Fraction(c) for c in f]
        self.d = len(f) - 1

    def el(self, coeffs):
        out = [Fraction(c) for c in coeffs] + [Fraction(0)] * self.d
        return out[:self.d]

    def add(self, x, y):
        return [a + b for a, b in zip(x, y)]

    def sub(self, x, y):
        return [a - b for a, b in zip(x, y)]

    def mul(self, x, y):
        prod_ = [Fraction(0)] * (2 * self.d - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod_[i + j] += a * b
        for k in range(len(prod_) - 1, self.d - 1, -1):
            c = prod_[k]
            if c:
                for i in range(self.d):
                    prod_[k - self.d + i] -= c * self.f[i]
        return prod_[:self.d]

    def const(self, c):
        return self.el([c])


def mat2_mul(ring, x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((ring.add(ring.mul(a, e), ring.mul(b, g)),
             ring.add(ring.mul(a, f), ring.mul(b, h))),
            (ring.add(ring.mul(c, e), ring.mul(d, g)),
             ring.add(ring.mul(c, f), ring.mul(d, h))))


def mat2_trace(ring, x):
    return ring.add(x[0][0], x[1][1])


def mat2_det(ring, x):
    return ring.sub(ring.mul(x[0][0], x[1][1]), ring.mul(x[0][1], x[1][0]))


# ---------------------------------------------------------------------------
# Finitely presented groups

def abelianized(num_generators, relators):
    rows = []
    for r in relators:
        row = [0] * num_generators
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


def parse_word(word, generators):
    out = []
    for ch in word:
        if ch in generators:
            out.append(generators.index(ch) + 1)
        else:
            out.append(-(generators.index(ch.lower()) + 1))
    return out


def _sn_character_degrees(n):
    """Degrees of the irreducible characters of S_n (hook length formula)."""
    def partitions(k, largest):
        if k == 0:
            yield ()
            return
        for first in range(min(k, largest), 0, -1):
            for rest in partitions(k - first, first):
                yield (first,) + rest

    degrees = []
    for shape in partitions(n, n):
        hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):
                arm = row - j - 1
                leg = sum(1 for r in shape[i + 1:] if r > j)
                hooks *= arm + leg + 1
        degrees.append(factorial(n) // hooks)
    return degrees


def surface_subgroup_counts(genus, max_index):
    """Subgroups of index n in the closed orientable surface group,
    n = 1..max_index.  Frobenius-Mednykh: |Hom(pi_1, S_n)| =
    n! sum_chi (n!/chi(1))^(2g-2); then the transitive-action recursion
    t_n = h_n/(n-1)! - sum_{k<n} h_{n-k} t_k / (n-k)!."""
    hom = [1]
    for n in range(1, max_index + 1):
        fn = factorial(n)
        hom.append(fn * sum(Fraction(fn, deg) ** (2 * genus - 2)
                            for deg in _sn_character_degrees(n)))
    subs = [0]
    for n in range(1, max_index + 1):
        t = Fraction(hom[n], factorial(n - 1))
        for k in range(1, n):
            t -= Fraction(hom[n - k] * subs[k], factorial(n - k))
        subs.append(int(t))
    return subs[1:]
