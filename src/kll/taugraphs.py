"""Schreier coset graphs and Cheeger constants.

cheeger_exact minimizes |boundary A| / |A| over connected vertex sets
with |A| <= |V|/2 only: a disconnected set is a disjoint union whose
ratio is a mediant of its parts' ratios, never below the smaller one.
Each connected set is reached once, from its least vertex, by an
include/exclude branch on frontier vertices, with incremental boundary
updates; EXACT_SET_BUDGET caps the sets enumerated.  Loops never
contribute to a boundary; a generator fixing a coset adds a loop
(degree 2) and nothing else.  Spectral bounds come from the exact
characteristic polynomial of the combinatorial Laplacian (Berkowitz on
its nonzero entries) with Sturm-certified eigenvalue isolation, bisecting
at dyadic points on an integer Sturm chain until (lo, hi] holds one
distinct eigenvalue, then on the sign of the chain's squarefree first
member alone.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import linalg, polys
from .fpgroups import BudgetExceeded


class Disconnected(ValueError):
    pass


# connected sets cheeger_exact may enumerate before giving up
EXACT_SET_BUDGET = 4_000_000

# lambda2_enclosure bisects until hi - lo <= 2^-LAMBDA2_BITS
LAMBDA2_BITS = 30


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
        return sum((a == v) + (b == v) for a, b in self.edges)

    def max_degree(self):
        """All degrees in one pass over the edges; a loop counts 2."""
        deg = [0] * self.num_vertices
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return max(deg)

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


class CheegerConstant(Fraction):
    """An exact Cheeger constant h, compared and printed as a Fraction,
    carrying `minimiser`: the sorted vertices of the first set A found
    with |dA| / |A| = h and 0 < |A| <= |V|/2."""

    __slots__ = ("minimiser",)

    def __new__(cls, numerator, denominator, minimiser):
        self = super().__new__(cls, numerator, denominator)
        self.minimiser = tuple(minimiser)
        return self

    # immutable; Fraction's own copy and pickle hooks would drop `minimiser`
    def __reduce__(self):
        return (type(self), (self.numerator, self.denominator, self.minimiser))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def cheeger_exact(graph, budget=None):
    """min |dA| / |A| over 0 < |A| <= |V|/2, as a CheegerConstant.

    Only connected sets A are enumerated.  If A = A1 + A2 with no edge
    between the parts, then |dA| = |dA1| + |dA2| and |A| = |A1| + |A2|,
    so |dA| / |A| is a mediant of the parts' ratios and never below the
    smaller one; each part is again admissible.  Each connected set is
    reached once, from its least vertex: a depth-first include/exclude
    branch over the frontier vertices above that root (an explicit
    stack, so the depth is not bounded by the recursion limit).  The
    boundary is updated incrementally with edge multiplicities; loops
    never lie in a boundary.  More than `budget` sets (default
    EXACT_SET_BUDGET) raises BudgetExceeded("cheeger sets", ...).
    """
    if budget is None:
        budget = EXACT_SET_BUDGET
    n = graph.num_vertices
    if n < 2:
        raise ValueError("need at least 2 vertices")
    # incident non-loop edges with multiplicity, per vertex
    mult = [{} for _ in range(n)]
    for u, v in graph.edges:
        if u != v:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1
    inc = [sorted(d.items()) for d in mult]
    deg = [sum(d.values()) for d in mult]
    half = n // 2
    inside = [0] * n   # edges from each vertex into the current set A
    members = []       # A, in the order its vertices were included
    best_num, best_den, best_set = sum(deg) + 1, 1, ()
    sets = 0
    for root in range(n):
        sets += 1
        if sets > budget:
            raise BudgetExceeded("cheeger sets", budget, sets)
        if deg[root] * best_den < best_num:
            best_num, best_den, best_set = deg[root], 1, (root,)
        if half < 2:
            continue
        members.append(root)
        for u, m in inc[root]:
            inside[u] += m
        # frame: [frontier vertices above root not yet branched on,
        #         next one to include, boundary of A]
        stack = [[[u for u, _ in inc[root] if u > root], 0, deg[root]]]
        while stack:
            frame = stack[-1]
            frontier, i, boundary = frame
            if i == len(frontier):
                stack.pop()
                for u, m in inc[members.pop()]:
                    inside[u] -= m
                continue
            frame[1] = i + 1
            w = frontier[i]
            b = boundary + deg[w] - 2 * inside[w]
            size = len(members) + 1
            sets += 1
            if sets > budget:
                raise BudgetExceeded("cheeger sets", budget, sets)
            if b * best_den < best_num * size:
                best_num, best_den = b, size
                best_set = tuple(members) + (w,)
            if size == half:
                continue
            # neighbours of w that are neither in A nor next to it
            fresh = [u for u, _ in inc[w] if u > root and not inside[u]]
            members.append(w)
            for u, m in inc[w]:
                inside[u] += m
            stack.append([frontier[i + 1:] + fresh, 0, b])
        if best_num == 0:
            break
    return CheegerConstant(best_num, best_den, sorted(best_set))


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


def lambda2_enclosure(graph):
    """Certified rational interval (lo, hi] containing the smallest
    positive Laplacian eigenvalue of a connected graph.

    Each step halves (lo, hi] at a dyadic midpoint.  While it holds
    several distinct eigenvalues, Sturm counts pick the half; once it
    holds one, the sign of the squarefree part at the midpoint does."""
    if not graph.is_connected():
        raise Disconnected("spectral bounds need a connected graph")
    cp = char_poly_laplacian(graph)
    # remove the simple eigenvalue 0
    if cp[0] != 0:
        raise ArithmeticError("Laplacian of a graph must be singular")
    q = cp[1:]
    if q[0] == 0:
        raise Disconnected("zero eigenvalue is not simple")
    # one integer Sturm chain, evaluated at midpoints num / 2^k: lo only
    # moves past no root, so the sign-change count at lo stays that at 0
    chain = polys.sturm_chain(q)
    lo, hi, k = 0, 2 * graph.max_degree() + 1, 0
    at_zero = polys.sign_changes_at(chain, 0)
    inside = at_zero - polys.sign_changes_at(chain, hi)  # roots in (lo, hi]
    if inside < 1:
        raise ArithmeticError("no positive eigenvalue below 2*dmax")
    # once (lo, hi] holds one root of the squarefree chain[0], it is simple
    # and s = chain[0] keeps the sign s(0) on [0, root): the root is <= mid
    # iff s(mid) is 0 or has the other sign
    positive_at_zero = chain[0][0] > 0
    while (hi - lo) << LAMBDA2_BITS > 1 << k:
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        if inside == 1:
            value = polys.scaled_value(chain[0], mid, 1 << k)
            below = not value or (value > 0) != positive_at_zero
        else:
            count = at_zero - polys.sign_changes_at(chain, mid, 1 << k)
            below = count > 0
            if below:
                inside = count
        if below:
            hi = mid
        else:
            lo = mid
    return Fraction(lo, 1 << k), Fraction(hi, 1 << k)


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
class FamilyReport:
    """`values` holds one (lower, upper) pair of Fractions per graph:
    (h, h) for an exact Cheeger constant h, else the spectral bounds."""

    values: list
    inf_lower: Fraction
    verdict: str   # "h -> 0 trend", "consistent with (tau) on prefix"
                   # or "undetermined on prefix"


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
        try:
            h = cheeger_exact(g)
            values.append((h, h))
        except BudgetExceeded:
            values.append(cheeger_spectral_bounds(g))
    inf_lower = min(lo for lo, _ in values)
    uppers = [hi for _, hi in values]
    decreasing = all(uppers[i + 1] < uppers[i] for i in range(len(uppers) - 1))
    if decreasing and len(uppers) >= 3 and 2 * uppers[-1] <= uppers[0]:
        verdict = "h -> 0 trend"
    elif inf_lower > 0:
        verdict = "consistent with (tau) on prefix"
    else:
        verdict = "undetermined on prefix"
    return FamilyReport(values=values, inf_lower=inf_lower, verdict=verdict)
