"""Combinatorial orbifold data: a labeled singular-locus graph together
with a presentation of the complement manifold's fundamental group and
one meridian word per edge.

The singular locus of a closed orientable 3-orbifold is a disjoint
union of simple closed curves and trivalent graphs; circles are
represented as cycle components (a single loop edge suffices).  All
homology bounds are computed from exact F_p linear algebra on the
quotient presentations.
"""

from dataclasses import dataclass, field as dc_field
from math import gcd

from .fpgroups import (Presentation, parse_word, free_reduce, d_p,
                       RelatorNotKilled, _check_phi)
from .linalg import integer_kernel, mat_mul, rank
from .polys import is_prime


class EmptyLocus(ValueError):
    """Operation requires a non-empty singular locus."""


class NotInvolution(ValueError):
    pass


class NotCommuting(ValueError):
    pass


@dataclass(frozen=True)
class LocusEdge:
    id: str
    ends: tuple  # (u, v) vertex ids; u == v is a loop
    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("singularity order must be >= 2")
        if len(self.ends) != 2:
            raise ValueError("edge needs two endpoints")


@dataclass(frozen=True)
class SingularLocus:
    vertices: tuple
    edges: tuple

    def __post_init__(self):
        vs = set(self.vertices)
        ids = set()
        for e in self.edges:
            if e.id in ids:
                raise ValueError(f"duplicate edge id {e.id}")
            ids.add(e.id)
            for v in e.ends:
                if v not in vs:
                    raise ValueError(f"edge {e.id} touches unknown vertex {v}")
        for comp in _components(self.vertices, self.edges):
            if comp.kind not in ("trivalent", "circle"):
                raise ValueError(
                    "component is neither trivalent nor a closed circle")

    def is_empty(self):
        return not self.edges

    def components(self):
        return _components(self.vertices, self.edges)

    def b1(self):
        return sum(c.b1 for c in self.components())


@dataclass(frozen=True)
class GraphComponent:
    vertices: tuple
    edges: tuple

    @property
    def chi(self):
        return len(self.vertices) - len(self.edges)

    @property
    def b1(self):
        # connected: b1 = E - V + 1
        return len(self.edges) - len(self.vertices) + 1

    @property
    def kind(self):
        degs = {v: 0 for v in self.vertices}
        for e in self.edges:
            for v in e.ends:
                degs[v] += 1
        values = set(degs.values())
        if values == {2} and self.chi == 0:
            return "circle"
        if values == {3}:
            return "trivalent"
        if self.chi > 0:
            return "arc"
        return "graph"


def _components(vertices, edges):
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u, v):
        parent[find(u)] = find(v)

    for e in edges:
        union(e.ends[0], e.ends[1])
    touched = {}
    for e in edges:
        touched.setdefault(find(e.ends[0]), []).append(e)
    out = []
    for root, comp_edges in sorted(touched.items(), key=lambda kv: str(kv[0])):
        vs = sorted({v for e in comp_edges for v in e.ends}, key=str)
        out.append(GraphComponent(tuple(vs), tuple(comp_edges)))
    return out


@dataclass
class Stratification:
    """sing_p split into components by Euler characteristic sign.

    Components with chi > 0 (arcs) belong to neither the zero nor the
    negative part; they are kept in `positive` and reported, matching
    the closed-orbifold caveat that sing_p need not equal
    sing_p^0 union sing_p^-.
    """

    prime: int
    components: list
    zero: list
    negative: list
    positive: list

    @property
    def b1(self):
        return sum(c.b1 for c in self.components)

    def is_empty(self):
        return not self.components


def stratify(locus, p):
    """Subgraph of edges with order divisible by p, partitioned by chi."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    kept = [e for e in locus.edges if e.order % p == 0]
    vs = sorted({v for e in kept for v in e.ends}, key=str)
    comps = _components(tuple(vs), tuple(kept))
    zero = [c for c in comps if c.chi == 0]
    neg = [c for c in comps if c.chi < 0]
    pos = [c for c in comps if c.chi > 0]
    return Stratification(prime=p, components=comps, zero=zero,
                          negative=neg, positive=pos)


@dataclass
class OrbifoldData:
    """Manifold-complement presentation, the locus, and meridian words.

    meridians maps each edge id to a word in the manifold generators;
    cores optionally maps an edge of each circle component to the word
    of its core curve (needed by the fibering hypothesis check, and not
    derivable from the presentation alone).
    """

    manifold: Presentation
    locus: SingularLocus
    meridians: dict
    cores: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for e in self.locus.edges:
            if e.id not in self.meridians:
                raise ValueError(f"missing meridian for edge {e.id}")
        self.meridians = {e.id: self._word("meridian", e.id,
                                           self.meridians[e.id])
                          for e in self.locus.edges}
        self.cores = {eid: self._word("core", eid, w)
                      for eid, w in self.cores.items()}

    def _word(self, kind, eid, w):
        """A meridian or core word, parsed from a string or reduced from
        signed generator numbers, each of which must name a generator
        of the manifold."""
        w = parse_word(w, self.manifold.generators) if isinstance(w, str) \
            else free_reduce(tuple(w))
        if any(abs(x) > self.manifold.rank() or x == 0 for x in w):
            raise ValueError(f"{kind} of {eid} uses unknown generators")
        return w

    @classmethod
    def from_json(cls, obj):
        manifold = Presentation.from_json(obj["manifold"])
        vertices = tuple(obj["locus"].get("vertices", []))
        edges = []
        meridians = {}
        cores = {}
        for ed in obj["locus"]["edges"]:
            edges.append(LocusEdge(id=ed["id"], ends=tuple(ed["ends"]),
                                   order=int(ed["order"])))
            meridians[ed["id"]] = ed["meridian"]
            if "core" in ed:
                cores[ed["id"]] = ed["core"]
        locus = SingularLocus(vertices, tuple(edges))
        return cls(manifold=manifold, locus=locus, meridians=meridians,
                   cores=cores)


def orbifold_presentation(data):
    """Manifold presentation plus one relator mu_e^{n_e} per edge."""
    rels = list(data.manifold.relators)
    for e in data.locus.edges:
        mu = data.meridians[e.id]
        rels.append(free_reduce(mu * e.order))
    return Presentation(data.manifold.generators, tuple(rels))


def homology_lower_bound(data, p):
    """(b1(sing_p), d_p of the orbifold group, bound holds?)."""
    strat = stratify(data.locus, p)
    bound = strat.b1
    actual = d_p(orbifold_presentation(data), p)
    return bound, actual, actual >= bound


def presentation_deficit(data):
    """|R| - |X| against 2 b1(sing(O)) - 2.

    Meridian relators are counted the way the bound is proved: one per
    circle component and -3 chi(Y) = #edges per trivalent component Y.
    """
    if data.locus.is_empty():
        raise EmptyLocus("deficit bound needs a non-empty singular locus")
    meridian_count = 0
    for comp in data.locus.components():
        if comp.kind == "circle":
            meridian_count += 1
        else:
            meridian_count += -3 * comp.chi
    deficit = (len(data.manifold.relators) + meridian_count
               - data.manifold.rank())
    bound = 2 * data.locus.b1() - 2
    return deficit, bound, deficit <= bound


SATISFIED = "Satisfied"
NOT_SATISFIED = "NotSatisfied"


@dataclass
class FiberingResult:
    status: str

    def __bool__(self):
        return self.status == SATISFIED


def _phi_of_word(phi, w):
    return sum(phi[abs(x) - 1] * (1 if x > 0 else -1) for x in w)


def theorem55_hypothesis(data, phi, p):
    """Does some circle component of sing_p^0 have core with trivial
    image under phi?  phi must be one exponent per generator of the
    orbifold presentation, map onto Z (gcd 1) and kill every relator
    (meridians are torsion, so this is forced); otherwise ValueError."""
    _check_phi(orbifold_presentation(data), phi)
    strat = stratify(data.locus, p)
    for comp in strat.zero:
        if comp.kind != "circle":
            continue
        core = _core_word(data, comp)
        if core is None:
            continue
        if _phi_of_word(phi, core) == 0:
            return FiberingResult(SATISFIED)
    return FiberingResult(NOT_SATISFIED)


def _core_word(data, comp):
    for e in comp.edges:
        if e.id in data.cores:
            return data.cores[e.id]
    return None


def find_theorem55_phi(data, p):
    """Search the integral functional lattice for a phi as in the
    fibering hypothesis: surjective onto Z, killing all relators, and
    vanishing on the core of some circle of sing_p^0.  Returns the
    exponent vector or None."""
    pres = orbifold_presentation(data)
    kernel = integer_kernel(pres.abelianized_matrix(), pres.rank())
    if not kernel:
        return None
    strat = stratify(data.locus, p)
    for comp in strat.zero:
        if comp.kind != "circle":
            continue
        core = _core_word(data, comp)
        if core is None:
            continue
        vals = [_phi_of_word(b, core) for b in kernel]
        phi = _primitive_in_hyperplane(kernel, vals)
        if phi is None:
            continue
        try:
            res = theorem55_hypothesis(data, phi, p)
        except RelatorNotKilled:
            continue
        if res:
            return phi
    return None


def _primitive_in_hyperplane(basis, vals):
    """Primitive integer combination of basis vectors orthogonal to vals."""
    n = len(basis)
    for i in range(n):
        if vals[i] == 0:
            return _make_primitive(basis[i])
    for i in range(n):
        for j in range(i + 1, n):
            a, b = vals[i], vals[j]
            g = gcd(abs(a), abs(b))
            ti, tj = b // g, -a // g
            combo = [ti * x + tj * y for x, y in zip(basis[i], basis[j])]
            prim = _make_primitive(combo)
            if prim is not None:
                return prim
    return None


def _make_primitive(vec):
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    if g == 0:
        return None
    return [v // g for v in vec]


# ---------------------------------------------------------------------------
# Commuting involutions on H_1(M; Q)

def involution_eigenspace_analysis(h1, h2):
    """+1 eigenspace dimensions of h1, h2 and h3 = h1 h2.

    For commuting involutions on a space of dimension >= 4, at least
    one of the three dimensions is >= 2 (so the corresponding quotient
    has b1 >= 2); the returned flag certifies this instance.
    """
    n = len(h1)
    if n < 4:
        raise ValueError("ambient dimension must be >= 4")
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for name, h in (("h1", h1), ("h2", h2)):
        if len(h) != n or any(len(row) != n for row in h):
            raise ValueError("matrices must be square of equal size")
        if mat_mul(h, h) != ident:
            raise NotInvolution(f"{name}^2 != identity")
    if mat_mul(h1, h2) != mat_mul(h2, h1):
        raise NotCommuting("h1 h2 != h2 h1")
    h3 = mat_mul(h1, h2)
    dims = []
    for h in (h1, h2, h3):
        minus = [[h[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
        dims.append(n - rank(minus, n))
    return tuple(dims), max(dims) >= 2
