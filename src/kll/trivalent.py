"""Finite trivalent multigraphs: short-cycle and small-b1-subgraph bounds,
plus exhaustive generation of connected cubic multigraphs up to
isomorphism (loops and parallel edges are first-class).

The two bounds have the form c1*log2(t) + c2 and are decided by exact
integer power comparison; dyadic enclosures of the bound values are
reported alongside.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .dyadic import log2_enclosure


class FirstBettiTooSmall(ValueError):
    """b1(graph) < 2; no b1=2 subgraph exists."""


@dataclass(frozen=True)
class TrivalentGraph:
    """V vertices 0..V-1, edges as a tuple of (u, v) pairs with u <= v.

    Loops (u == u) contribute 2 to the degree and a length-1 cycle.
    """

    num_vertices: int
    edges: tuple

    def __post_init__(self):
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        deg = [0] * self.num_vertices
        for u, v in edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("edge endpoint out of range")
            deg[u] += 1
            deg[v] += 1 if u != v else 1  # loop counted twice via two slots
        for v, d in enumerate(deg):
            if d != 3:
                raise ValueError(f"vertex {v} has degree {d}, not 3")

    @property
    def num_edges(self):
        return len(self.edges)

    def b1(self):
        # connected graph: E - V + 1
        return self.num_edges - self.num_vertices + 1

    def adjacency(self):
        adj = [[] for _ in range(self.num_vertices)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            if u != v:
                adj[v].append((u, i))
        return adj

    def is_connected(self):
        if self.num_vertices == 0:
            return False
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w, _ in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.num_vertices

    def to_json(self):
        return {"V": self.num_vertices, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, obj):
        return cls(int(obj["V"]), tuple(tuple(e) for e in obj["edges"]))


# ---------------------------------------------------------------------------
# Isomorphism machinery (certificate bucketing + explicit matching)

def _edge_multiset(g):
    mult = {}
    for u, v in g.edges:
        mult[(u, v)] = mult.get((u, v), 0) + 1
    return mult


@lru_cache(maxsize=200000)
def _refined_colors(g):
    """Stable vertex coloring by iterated neighborhood refinement.

    Colors are small integers, canonical across isomorphic graphs
    (classes are renumbered by sorted signature at every round).
    """
    n = g.num_vertices
    mult = _edge_multiset(g)
    neigh = [[] for _ in range(n)]
    loops = [0] * n
    for (u, v), m in mult.items():
        if u == v:
            loops[u] = m
        else:
            neigh[u].append((v, m))
            neigh[v].append((u, m))
    sigs = [(loops[v], tuple(sorted(m for _, m in neigh[v]))) for v in range(n)]
    palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
    colors = [palette[s] for s in sigs]
    while True:
        sigs = [(colors[v], tuple(sorted((colors[w], m) for w, m in neigh[v])))
                for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return colors, neigh, loops
        colors = new


@lru_cache(maxsize=200000)
def wl_certificate(g):
    """Refinement-based isomorphism invariant (hashable)."""
    colors, _neigh, loops = _refined_colors(g)
    mult = _edge_multiset(g)
    hist = tuple(sorted(colors))
    loop_sig = tuple(sorted((colors[v], l) for v, l in enumerate(loops) if l))
    edge_sig = tuple(sorted(
        (min(colors[u], colors[v]), max(colors[u], colors[v]), m)
        for (u, v), m in mult.items() if u != v))
    return (g.num_vertices, hist, loop_sig, edge_sig)


def _refine_from(colors, neigh, loops, n):
    """Refine a coloring to stability (classes renumbered canonically)."""
    while True:
        sigs = [(colors[v], loops[v],
                 tuple(sorted((colors[w], m) for w, m in neigh[v])))
                for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


@lru_cache(maxsize=200000)
def canonical_form(g):
    """Canonical edge tuple by individualization-refinement.

    The minimum over all discrete refinements of the relabeled sorted
    edge list; equal canonical forms iff isomorphic."""
    n = g.num_vertices
    mult = _edge_multiset(g)
    neigh = [[] for _ in range(n)]
    loops = [0] * n
    for (u, v), m in mult.items():
        if u == v:
            loops[u] = m
        else:
            neigh[u].append((v, m))
            neigh[v].append((u, m))
    base, _, _ = _refined_colors(g)
    best = None

    def leaf_form(colors):
        rank = {v: colors[v] for v in range(n)}
        out = []
        for (u, v), m in mult.items():
            a, b = rank[u], rank[v]
            if a > b:
                a, b = b, a
            out.extend([(a, b)] * m)
        out.sort()
        return tuple(out)

    def rec(colors):
        nonlocal best
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min((c for c, k in counts.items() if k > 1), default=None)
        if target is None:
            form = leaf_form(colors)
            if best is None or form < best:
                best = form
            return
        for v in range(n):
            if colors[v] != target:
                continue
            split = [2 * c + (0 if u == v else 1) for u, c in enumerate(colors)]
            rec(_refine_from(split, neigh, loops, n))

    rec(_refine_from(list(base), neigh, loops, n))
    return (n, best)


def isomorphic(g1, g2):
    """Exact isomorphism test: color refinement plus incremental matching."""
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return False
    if wl_certificate(g1) != wl_certificate(g2):
        return False
    n = g1.num_vertices
    c1, _, _ = _refined_colors(g1)
    c2, _, _ = _refined_colors(g2)
    m1, m2 = _edge_multiset(g1), _edge_multiset(g2)
    by_color = {}
    for w in range(n):
        by_color.setdefault(c2[w], []).append(w)

    # order g1's vertices: rarest color class first, then by connectivity
    order = sorted(range(n), key=lambda v: (len(by_color.get(c1[v], ())), c1[v], v))
    placed = []
    mapping = [None] * n
    used = [False] * n

    def consistent(v, w):
        if m1.get((v, v), 0) != m2.get((w, w), 0):
            return False
        for u in placed:
            a = m1.get((min(u, v), max(u, v)), 0)
            b = m2.get((min(mapping[u], w), max(mapping[u], w)), 0)
            if a != b:
                return False
        return True

    def rec(i):
        if i == n:
            return True
        v = order[i]
        for w in by_color.get(c1[v], ()):
            if not used[w] and consistent(v, w):
                mapping[v] = w
                used[w] = True
                placed.append(v)
                if rec(i + 1):
                    return True
                placed.pop()
                mapping[v] = None
                used[w] = False
        return False

    return rec(0)


# ---------------------------------------------------------------------------
# Generation: connected cubic multigraphs up to isomorphism

def _base_graphs():
    theta = TrivalentGraph(2, ((0, 1), (0, 1), (0, 1)))
    dumbbell = TrivalentGraph(2, ((0, 0), (1, 1), (0, 1)))
    return [theta, dumbbell]


def _augment_edge_pair(g, i, j):
    """Subdivide edges i, j and join the two new vertices."""
    n = g.num_vertices
    w, x = n, n + 1
    edges = [e for k, e in enumerate(g.edges) if k not in (i, j)]
    if i == j:
        a, b = g.edges[i]
        edges += [(a, w), (w, x), (x, b), (w, x)]
    else:
        a, b = g.edges[i]
        c, d = g.edges[j]
        edges += [(a, w), (w, b), (c, x), (x, d), (w, x)]
    return TrivalentGraph(n + 2, tuple(edges))


def _augment_lollipop(g, i):
    """Subdivide edge i and hang a loop vertex off the new vertex."""
    n = g.num_vertices
    w, x = n, n + 1
    a, b = g.edges[i]
    edges = [e for k, e in enumerate(g.edges) if k != i]
    edges += [(a, w), (w, b), (w, x), (x, x)]
    return TrivalentGraph(n + 2, tuple(edges))


def generate_connected_trivalent(max_vertices, simple_only=False):
    """All connected trivalent multigraphs with <= max_vertices vertices,
    one per isomorphism class, grouped {V: [graphs]}.

    Augmentation: every connected cubic multigraph on V >= 4 vertices
    arises from one on V - 2 by either inserting an edge between two
    subdivision points or inserting a loop lollipop, so closing the two
    2-vertex base graphs under both moves is exhaustive.  Duplicates
    are removed by keeping one graph per `canonical_form` in a set.
    """
    if max_vertices < 2:
        return {}
    out = {2: list(_base_graphs())}
    v = 2
    while v + 2 <= max_vertices:
        seen_labeled = set()
        seen_canonical = set()
        found = []
        for g in out[v]:
            ne = g.num_edges
            children = []
            for i in range(ne):
                children.append(_augment_lollipop(g, i))
                for j in range(i, ne):
                    children.append(_augment_edge_pair(g, i, j))
            for child in children:
                if child.edges in seen_labeled:
                    continue
                seen_labeled.add(child.edges)
                form = canonical_form(child)
                if form not in seen_canonical:
                    seen_canonical.add(form)
                    found.append(child)
        v += 2
        out[v] = found
    if simple_only:
        out = {k: [g for g in graphs if _is_simple(g)] for k, graphs in out.items()}
    return out


def _is_simple(g):
    mult = _edge_multiset(g)
    return all(m == 1 for m in mult.values()) and \
        all(u != v for u, v in mult)


def random_connected_trivalent(num_vertices, rng=None):
    """Uniform configuration-model pairing, resampled until connected."""
    if num_vertices % 2:
        raise ValueError("a trivalent graph has an even number of vertices")
    rng = rng or random.Random()
    stubs = [v for v in range(num_vertices) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        edges = []
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            edges.append((u, v))
        g = TrivalentGraph(num_vertices, tuple(edges))
        if g.is_connected():
            return g


# ---------------------------------------------------------------------------
# Lemma-style bounds

def _girth_and_cycle(g):
    """(girth, cycle as vertex list closing up).  Loops give length 1,
    parallel pairs length 2; otherwise BFS from every vertex."""
    mult = _edge_multiset(g)
    for (u, v), m in sorted(mult.items()):
        if u == v:
            return 1, [u]
    for (u, v), m in sorted(mult.items()):
        if m >= 2 and u != v:
            return 2, [u, v]
    # simple graph now
    adj = [[] for _ in range(g.num_vertices)]
    for (u, v) in mult:
        adj[u].append(v)
        adj[v].append(u)
    best = None
    best_cycle = None
    for root in range(g.num_vertices):
        dist = {root: 0}
        parent = {root: None}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent.get(w) != u:
                        cand = dist[u] + dist[w] + 1
                        if best is None or cand < best:
                            pu = _path_to_root(parent, u)
                            pw = _path_to_root(parent, w)
                            cyc = _merge_cycle(pu, pw)
                            if cyc is not None and len(cyc) == cand:
                                best = cand
                                best_cycle = cyc
            frontier = nxt
    return best, best_cycle


def _path_to_root(parent, u):
    path = [u]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def _merge_cycle(pu, pw):
    su = set(pu)
    # walk pw until hitting pu; shortest-cycle candidates meet only at the root
    meet = next((x for x in pw if x in su), None)
    if meet is None:
        return None
    iu = pu.index(meet)
    iw = pw.index(meet)
    cyc = pu[:iu + 1] + list(reversed(pw[:iw]))
    return cyc if len(set(cyc)) == len(cyc) else None


@dataclass
class ShortCycleReport:
    cycle_vertices: list
    length: int
    bound_lo: object
    bound_hi: object
    holds: bool


def short_cycle(g):
    """Shortest simple closed curve versus 2 log2((V+2)/3) + 2.

    `holds` is the exact comparison 9 * 2^g <= 4 (V+2)^2; the reported
    bound value is a certified dyadic enclosure.
    """
    if g.num_vertices < 1:
        raise ValueError("empty graph")
    girth, cyc = _girth_and_cycle(g)
    if girth is None:
        raise ArithmeticError("trivalent graph must contain a cycle")
    v = g.num_vertices
    lo, hi = log2_enclosure(Fraction(v + 2, 3))
    holds = 9 * (2 ** girth) <= 4 * (v + 2) ** 2
    return ShortCycleReport(cycle_vertices=cyc, length=girth,
                            bound_lo=2 * lo + 2, bound_hi=2 * hi + 2,
                            holds=holds)


@dataclass
class SmallSubgraphReport:
    edge_indices: list
    num_edges: int
    bound_lo: object
    bound_hi: object
    holds: bool
    strategy: str


def _subgraph_b1(edge_idx, g):
    verts = set()
    for i in edge_idx:
        u, v = g.edges[i]
        verts.add(u)
        verts.add(v)
    comp = _count_components(edge_idx, g, verts)
    return len(edge_idx) - len(verts) + comp


def _count_components(edge_idx, g, verts):
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in edge_idx:
        u, v = g.edges[i]
        parent[find(u)] = find(v)
    return len({find(v) for v in verts})


def _connected_edges(edge_idx, g):
    verts = set()
    for i in edge_idx:
        verts.update(g.edges[i])
    return verts and _count_components(edge_idx, g, verts) == 1


def _shortest_ear(g, cycle_edges):
    """Shortest path (edge list) with both endpoints on the cycle's vertex
    set and no interior vertex or edge on the cycle; may be a single edge."""
    cyc_verts = set()
    for i in cycle_edges:
        cyc_verts.update(g.edges[i])
    adj = g.adjacency()
    cyc_edge_set = set(cycle_edges)
    # multi-source BFS from all cycle vertices, tracking the originating vertex
    best = None
    dist = {v: (0, None, None) for v in cyc_verts}  # vertex -> (d, origin, via edge)
    frontier = list(cyc_verts)
    parent_edge = {}
    while frontier and best is None:
        nxt = []
        for u in frontier:
            du, ou, _ = dist[u]
            for w, ei in adj[u]:
                if ei in cyc_edge_set:
                    continue
                if w in dist:
                    dw, ow, _ = dist[w]
                    # closing edge: forms an ear if origins differ or it re-enters the cycle
                    path = _trace_ear(dist, parent_edge, u, w, ei, cyc_verts)
                    if path is not None and (best is None or len(path) < len(best)):
                        best = path
                else:
                    dist[w] = (du + 1, ou if ou is not None else u, ei)
                    parent_edge[w] = (u, ei)
                    nxt.append(w)
        frontier = nxt
    return best


def _trace_ear(dist, parent_edge, u, w, closing_edge, cyc_verts):
    def back(v):
        out = []
        while v not in cyc_verts:
            pv, ei = parent_edge[v]
            out.append(ei)
            v = pv
        return out

    e1 = back(u)
    e2 = back(w)
    path = e1 + [closing_edge] + e2
    if len(set(path)) != len(path):
        return None
    return path


def b1_two_subgraph(g):
    """Connected subgraph with b1 exactly 2 and few edges.

    Primary strategy: shortest cycle plus its shortest ear.  If the
    result misses the 6 log2(b1 - 1) + 12 bound, fall back to an
    exhaustive search over pairs of short cycles.  `holds` is the exact
    comparison 2^edges <= 2^12 (b1-1)^6.
    """
    b = g.b1()
    if b < 2:
        raise FirstBettiTooSmall(f"b1 = {b} < 2")
    girth, cyc_vertices = _girth_and_cycle(g)
    cycle_edges = _cycle_edge_indices(g, cyc_vertices)
    ear = _shortest_ear(g, cycle_edges)
    candidate = None
    strategy = "ball"
    if ear is not None:
        edge_set = sorted(set(cycle_edges) | set(ear))
        if _subgraph_b1(edge_set, g) == 2 and _connected_edges(edge_set, g):
            candidate = edge_set
    limit = _b1_bound_limit(b)
    if candidate is None or len(candidate) > limit:
        exhaustive = _exhaustive_b1_two(g)
        if exhaustive is not None and (candidate is None or len(exhaustive) < len(candidate)):
            candidate = exhaustive
            strategy = "exhaustive"
    if candidate is None:
        raise ArithmeticError("no b1=2 subgraph found despite b1 >= 2")
    lo, hi = log2_enclosure(b - 1) if b > 2 else (Fraction(0), Fraction(0))
    holds = 2 ** len(candidate) <= (2 ** 12) * (b - 1) ** 6
    return SmallSubgraphReport(edge_indices=list(candidate),
                               num_edges=len(candidate),
                               bound_lo=6 * lo + 12, bound_hi=6 * hi + 12,
                               holds=holds, strategy=strategy)


def _b1_bound_limit(b):
    # largest integer m with 2^m <= 2^12 (b-1)^6
    m = 12
    while 2 ** (m + 1) <= (2 ** 12) * (b - 1) ** 6:
        m += 1
    return m


def _cycle_edge_indices(g, cyc_vertices):
    """Edge indices realizing the vertex cycle (handles loops/parallels)."""
    if len(cyc_vertices) == 1:
        v = cyc_vertices[0]
        for i, (a, b) in enumerate(g.edges):
            if a == b == v:
                return [i]
        raise ArithmeticError("loop cycle not found")
    if len(cyc_vertices) == 2:
        u, v = cyc_vertices
        idx = [i for i, e in enumerate(g.edges) if tuple(sorted((u, v))) == e]
        if len(idx) >= 2:
            return idx[:2]
    out = []
    used = set()
    k = len(cyc_vertices)
    for t in range(k):
        u, v = cyc_vertices[t], cyc_vertices[(t + 1) % k]
        key = tuple(sorted((u, v)))
        i = next(i for i, e in enumerate(g.edges) if e == key and i not in used)
        used.add(i)
        out.append(i)
    return out


def _all_short_cycles(g, max_count=400):
    """Simple cycles as edge-index tuples, shortest first (bounded list)."""
    cycles = set()
    mult = _edge_multiset(g)
    for i, (u, v) in enumerate(g.edges):
        if u == v:
            cycles.add((i,))
    by_pair = {}
    for i, e in enumerate(g.edges):
        by_pair.setdefault(e, []).append(i)
    for e, idx in by_pair.items():
        if e[0] != e[1] and len(idx) >= 2:
            for a, b in combinations(idx, 2):
                cycles.add(tuple(sorted((a, b))))
    adj = g.adjacency()

    def dfs(start, u, visited, edges_used):
        for w, ei in adj[u]:
            if ei in edges_used or w == u == start:
                continue
            if w == start and len(edges_used) >= 2:
                cycles.add(tuple(sorted(edges_used | {ei})))
            elif w not in visited and w != start:
                if len(cycles) > 5 * max_count:
                    return
                dfs(start, w, visited | {w}, edges_used | {ei})

    for start in range(g.num_vertices):
        dfs(start, start, {start}, frozenset())
    ordered = sorted(cycles, key=len)
    return ordered[:max_count]


def _exhaustive_b1_two(g):
    cycles = _all_short_cycles(g)
    best = None
    for c1, c2 in combinations(cycles, 2):
        union = set(c1) | set(c2)
        if best is not None and len(union) >= best[0]:
            continue
        if _subgraph_b1(sorted(union), g) == 2 and _connected_edges(sorted(union), g):
            best = (len(union), sorted(union))
            continue
        # try connecting two disjoint cycles by a shortest path
        joined = _join_cycles(g, c1, c2)
        if joined is not None and _subgraph_b1(joined, g) == 2:
            if best is None or len(joined) < best[0]:
                best = (len(joined), joined)
    return best[1] if best else None


def _join_cycles(g, c1, c2):
    v1 = set()
    for i in c1:
        v1.update(g.edges[i])
    v2 = set()
    for i in c2:
        v2.update(g.edges[i])
    if v1 & v2:
        return None
    adj = g.adjacency()
    dist = {v: ([], v) for v in v1}
    frontier = list(v1)
    while frontier:
        nxt = []
        for u in frontier:
            path_u, _ = dist[u]
            for w, ei in adj[u]:
                if w in v2:
                    return sorted(set(c1) | set(c2) | set(path_u + [ei]))
                if w not in dist:
                    dist[w] = (path_u + [ei], w)
                    nxt.append(w)
        frontier = nxt
    return None
