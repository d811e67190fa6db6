"""Finite trivalent multigraphs: short-cycle and small-b1-subgraph bounds,
plus generation of every connected cubic multigraph up to isomorphism
(loops and parallel edges are first-class).

Both bounds are read off one breadth-first ball per root: the first
non-tree edge it meets closes a shortest cycle through the root, the
first two close a connected b1 = 2 subgraph.  The bounds have the form
c1*log2(t) + c2 and are decided by exact integer power comparison;
dyadic enclosures of the bound values are reported alongside.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
# Canonical form by individualization-refinement

def _edge_multiset(g):
    mult = {}
    for u, v in g.edges:
        mult[(u, v)] = mult.get((u, v), 0) + 1
    return mult


def _refined_colors(g):
    """(colors, neigh, loops): the stable refinement of the coloring by
    loop count and edge multiplicities, with the neighbour lists
    [(w, multiplicity)] and loop counts it was refined over.

    Colors are small integers, canonical across isomorphic graphs
    (classes are renumbered by sorted signature at every round).
    """
    n = g.num_vertices
    neigh = [[] for _ in range(n)]
    loops = [0] * n
    for (u, v), m in _edge_multiset(g).items():
        if u == v:
            loops[u] = m
        else:
            neigh[u].append((v, m))
            neigh[v].append((u, m))
    sigs = [(loops[v], tuple(sorted(m for _, m in neigh[v]))) for v in range(n)]
    palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
    colors = _refine_from([palette[s] for s in sigs], neigh, loops, n)
    return colors, neigh, loops


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
    base, neigh, loops = _refined_colors(g)
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

    rec(base)
    return (n, best)


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
    2-vertex base graphs under both moves reaches every one.  Duplicates
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
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            edges.append((u, v))
        g = TrivalentGraph(num_vertices, tuple(edges))
        if g.is_connected():
            return g


# ---------------------------------------------------------------------------
# Lemma-style bounds, both read off one breadth-first ball per root

def _ball(adj, root, wanted):
    """Breadth-first search from `root`, stopped at the end of the first
    layer by which `wanted` non-tree edges have appeared.

    Returns (parent, walks).  parent[v] is (tree parent, edge index), or
    None at the root.  walks lists (length, edge index, u, w) for each
    non-tree edge u-w met, shortest first, where length = d(u) + d(w) + 1
    is that of the closed walk root .. u - w .. root.  A non-tree edge
    met in layer k closes a walk of length 2k+1 or 2k+2, and every later
    layer only longer ones, so `walks` starts with the root's `wanted`
    shortest closed walks through a non-tree edge.
    """
    dist = {root: 0}
    parent = {root: None}
    walks = {}
    layer = [root]
    while layer and len(walks) < wanted:
        nxt = []
        for u in layer:
            up = parent[u][1] if parent[u] else None
            for w, i in adj[u]:
                if i == up or i in walks:
                    continue
                if w in dist:
                    walks[i] = (dist[u] + dist[w] + 1, i, u, w)
                else:
                    dist[w] = dist[u] + 1
                    parent[w] = (u, i)
                    nxt.append(w)
        layer = nxt
    return parent, sorted(walks.values())


def _path_up(parent, v):
    """[(vertex, edge to its tree parent), ...] from v up to the root."""
    out = []
    while parent[v] is not None:
        up, i = parent[v]
        out.append((v, i))
        v = up
    return out


@dataclass
class ShortCycleReport:
    cycle_vertices: list
    length: int
    bound_lo: object
    bound_hi: object
    holds: bool


def short_cycle(g):
    """Shortest simple closed curve versus 2 log2((V+2)/3) + 2.

    Every closed walk through a non-tree edge contains a cycle no longer
    than itself, and a root on a shortest cycle meets one of its edges
    as a non-tree edge, so the shortest such walk over all roots is a
    shortest cycle.  `cycle_vertices` is [u] for a loop, [u, v] for a
    parallel pair, otherwise the cycle in order.

    `holds` is the exact comparison 9 * 2^g <= 4 (V+2)^2; the reported
    bound value is a certified dyadic enclosure.
    """
    if g.num_vertices < 1:
        raise ValueError("empty graph")
    adj = g.adjacency()
    best = None
    for root in range(g.num_vertices):
        parent, walks = _ball(adj, root, 1)
        if best is None or walks[0][0] < best[0][0]:
            best = walks[0], root, parent
    (girth, _, u, w), root, parent = best
    cyc = ([x for x, _ in _path_up(parent, u)] + [root]
           + [x for x, _ in reversed(_path_up(parent, w))])
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
    strategy: str = "ball"


def _subgraph_b1(edge_idx, g):
    """E - V + components of the subgraph spanned by the given edges."""
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in edge_idx:
        u, v = g.edges[i]
        parent[find(u)] = find(v)
    return len(edge_idx) - len(parent) + len({find(v) for v in list(parent)})


def _without_leaves(g, edge_idx):
    """Delete degree-1 vertices (and their edge) until none is left;
    b1 and connectivity are unchanged."""
    edges = set(edge_idx)
    deg = {}
    for i in edges:
        for x in g.edges[i]:
            deg[x] = deg.get(x, 0) + 1
    leaves = [x for x, d in deg.items() if d == 1]
    while leaves:
        x = leaves.pop()
        i = next(i for i in edges if x in g.edges[i])
        edges.remove(i)
        for y in g.edges[i]:
            deg[y] -= 1
            if deg[y] == 1:
                leaves.append(y)
    return sorted(edges)


def b1_two_subgraph(g):
    """Connected subgraph with b1 exactly 2 and few edges.

    From each root, the breadth-first ball that `_ball` grows until two
    non-tree edges have appeared gives a candidate: the two non-tree
    edges with the shortest closed walks, their tree paths to the root,
    and no degree-1 vertices.  A tree plus two edges is connected with
    b1 = 2, so every root yields one, and the fewest edges over all
    roots is returned.  There is no other search, so `strategy` is
    always "ball"; the field stays for callers and `kll graph` output.

    `holds` is the exact comparison 2^edges <= 2^12 (b1-1)^6.
    """
    b = g.b1()
    if b < 2:
        raise FirstBettiTooSmall(f"b1 = {b} < 2")
    adj = g.adjacency()
    best = None
    for root in range(g.num_vertices):
        parent, walks = _ball(adj, root, 2)
        edges = set()
        for _, i, u, w in walks[:2]:
            edges.add(i)
            edges.update(e for _, e in _path_up(parent, u) + _path_up(parent, w))
        edges = _without_leaves(g, edges)
        if best is None or len(edges) < len(best):
            best = edges
    if _subgraph_b1(best, g) != 2:
        raise AssertionError("ball candidate is not a b1=2 subgraph")
    lo, hi = log2_enclosure(b - 1) if b > 2 else (Fraction(0), Fraction(0))
    holds = 2 ** len(best) <= (2 ** 12) * (b - 1) ** 6
    return SmallSubgraphReport(edge_indices=best, num_edges=len(best),
                               bound_lo=6 * lo + 12, bound_hi=6 * hi + 12,
                               holds=holds)
