"""Schreier coset graphs and Cheeger constants.

cheeger_exact minimizes |boundary A| / |A| over all admissible vertex
subsets by Gray-code enumeration with incremental boundary updates.
Loops never contribute to a boundary; a generator fixing a coset adds
a loop (degree 2) and nothing else.  Spectral bounds come from the
exact characteristic polynomial of the combinatorial Laplacian with
Sturm-certified eigenvalue isolation.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import linalg, polys


class TooLargeForExact(ValueError):
    """Vertex count above the exhaustive enumeration budget."""


class Disconnected(ValueError):
    pass


EXACT_VERTEX_BUDGET = 26


@dataclass(frozen=True)
class CosetGraph:
    """Undirected multigraph on cosets, one edge per (coset, generator)."""

    num_vertices: int
    edges: tuple
    generator_set_size: int = None

    def __post_init__(self):
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("edge endpoint out of range")

    @classmethod
    def from_subgroup_table(cls, table):
        edges = []
        for g in range(len(table.action)):
            for c in range(table.index):
                edges.append(tuple(sorted((c, table.action[g][c]))))
        return cls(table.index, tuple(edges),
                   generator_set_size=len(table.action))

    @classmethod
    def cycle(cls, n):
        """Schreier graph of Z/n with generating set {1}."""
        if n < 1:
            raise ValueError("n >= 1")
        edges = tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n))
        return cls(n, edges, generator_set_size=1)

    @classmethod
    def complete(cls, n):
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        return cls(n, edges)

    def adjacency_lists(self):
        adj = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            if u == v:
                continue
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degree(self, v):
        d = 0
        for a, b in self.edges:
            if a == v:
                d += 1
            if b == v:
                d += 1
        return d

    def max_degree(self):
        return max(self.degree(v) for v in range(self.num_vertices))

    def is_connected(self):
        if self.num_vertices == 0:
            return False
        adj = self.adjacency_lists()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.num_vertices

    def to_json(self):
        return {"V": self.num_vertices, "edges": [list(e) for e in self.edges]}


def cheeger_exact(graph):
    """min |dA| / |A| over 0 < |A| <= |V|/2, exact Fraction.

    Enumerates subsets containing vertex 0 in Gray-code order (the
    boundary is symmetric under complement, so this covers every
    admissible subset) and updates the boundary incrementally.
    """
    n = graph.num_vertices
    if n > EXACT_VERTEX_BUDGET:
        raise TooLargeForExact(f"|V| = {n} > {EXACT_VERTEX_BUDGET}")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    # incident non-loop edges with multiplicity, per vertex
    inc = [{} for _ in range(n)]
    for u, v in graph.edges:
        if u == v:
            continue
        inc[u][v] = inc[u].get(v, 0) + 1
        inc[v][u] = inc[v].get(u, 0) + 1
    inc = [sorted(d.items()) for d in inc]

    in_a = [False] * n
    in_a[0] = True
    size = 1
    boundary = sum(m for _, m in inc[0])
    best_num, best_den = boundary, 1  # A = {0}

    total = 1 << (n - 1)
    gray = 0
    for m in range(1, total):
        bit = (m & -m).bit_length() - 1
        v = bit + 1
        gray ^= 1 << bit
        if in_a[v]:
            in_a[v] = False
            size -= 1
            for u, mult in inc[v]:
                boundary += mult if in_a[u] else -mult
        else:
            in_a[v] = True
            size += 1
            for u, mult in inc[v]:
                boundary -= mult if in_a[u] else -mult
        if size == n:
            continue
        side = size if 2 * size <= n else n - size
        # compare boundary/side < best
        if boundary * best_den < best_num * side:
            best_num, best_den = boundary, side
    return Fraction(best_num, best_den)


def _laplacian(graph):
    n = graph.num_vertices
    lap = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        if u == v:
            continue
        lap[u][v] -= 1
        lap[v][u] -= 1
        lap[u][u] += 1
        lap[v][v] += 1
    return lap


def char_poly_laplacian(graph):
    """det(x I - L) as an integer coefficient list, constant first."""
    return linalg.char_poly(_laplacian(graph))


def lambda2_enclosure(graph, precision_bits=30):
    """Certified rational interval (lo, hi] containing the smallest
    positive Laplacian eigenvalue of a connected graph."""
    if not graph.is_connected():
        raise Disconnected("spectral bounds need a connected graph")
    cp = char_poly_laplacian(graph)
    # remove the simple eigenvalue 0
    if cp[0] != 0:
        raise ArithmeticError("Laplacian of a graph must be singular")
    q = cp[1:]
    if q[0] == 0:
        raise Disconnected("zero eigenvalue is not simple")
    # one Sturm chain, evaluated at bisection endpoints
    g = polys.poly_gcd(q, polys.derivative(q))
    if polys.degree(g) > 0:
        q = polys.divmod_exact(q, g)[0]
    chain = polys.sturm_sequence(q)

    def count(a, b):
        va = polys._sign_changes([polys.evaluate(s, a) for s in chain])
        vb = polys._sign_changes([polys.evaluate(s, b) for s in chain])
        return va - vb

    hi = Fraction(2 * graph.max_degree() + 1)
    lo = Fraction(0)
    if count(lo, hi) < 1:
        raise ArithmeticError("no positive eigenvalue below 2*dmax")
    width_target = Fraction(1, 2 ** precision_bits)
    while hi - lo > width_target:
        mid = (lo + hi) / 2
        if count(lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _sqrt_upper(f):
    """Rational r with r >= sqrt(f)."""
    if f < 0:
        raise ValueError("negative radicand")
    a, b = f.numerator, f.denominator
    return Fraction(isqrt(a * b) + 1, b)


def cheeger_spectral_bounds(graph):
    """(lower, upper) rationals with lower <= h(graph) <= upper,
    from the sandwich lambda2/2 <= h <= sqrt(2 d_max lambda2)."""
    lo, hi = lambda2_enclosure(graph)
    lower = lo / 2
    upper = _sqrt_upper(2 * graph.max_degree() * hi)
    return lower, upper


@dataclass
class CheegerValue:
    exact: Fraction = None
    lower: Fraction = None
    upper: Fraction = None

    def best_lower(self):
        return self.exact if self.exact is not None else self.lower

    def best_upper(self):
        return self.exact if self.exact is not None else self.upper

    def to_json(self):
        if self.exact is not None:
            return {"h": str(self.exact)}
        return {"lo": str(self.lower), "hi": str(self.upper)}


@dataclass
class FamilyReport:
    values: list
    inf_lower: Fraction
    verdict: str   # "consistent with (tau) on prefix" or "h -> 0 trend"

    def to_json(self):
        return {
            "h": [v.to_json() for v in self.values],
            "inf": str(self.inf_lower),
            "verdict": self.verdict,
        }

    def to_csv(self):
        lines = ["index,h_lower,h_exact,h_upper"]
        for i, v in enumerate(self.values, start=1):
            exact = str(v.exact) if v.exact is not None else ""
            lines.append(f"{i},{v.best_lower()},{exact},{v.best_upper()}")
        return "\n".join(lines) + "\n"


def tau_family_report(graphs):
    """Cheeger data along a family of coset graphs, with a prefix-only
    verdict: a strictly shrinking sequence ending at half its starting
    value is reported as an h -> 0 trend, otherwise the positive prefix
    infimum is reported as consistency with (tau).  Never a theorem."""
    if not graphs:
        raise ValueError("empty family")
    sizes = {g.generator_set_size for g in graphs}
    if len(sizes) > 1:
        raise ValueError("family must share one generating set size")
    values = []
    for g in graphs:
        if g.num_vertices <= EXACT_VERTEX_BUDGET:
            values.append(CheegerValue(exact=cheeger_exact(g)))
        else:
            lo, hi = cheeger_spectral_bounds(g)
            values.append(CheegerValue(lower=lo, upper=hi))
    inf_lower = min(v.best_lower() for v in values)
    uppers = [v.best_upper() for v in values]
    decreasing = all(uppers[i + 1] < uppers[i] for i in range(len(uppers) - 1))
    if decreasing and len(uppers) >= 3 and 2 * uppers[-1] <= uppers[0]:
        verdict = "h -> 0 trend"
    elif inf_lower > 0:
        verdict = "consistent with (tau) on prefix"
    else:
        verdict = "undetermined on prefix"
    return FamilyReport(values=values, inf_lower=inf_lower, verdict=verdict)
