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
            deg[v] += 1  # a loop (u == v) is counted twice: two slots
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
    """Refine a coloring to stability (classes renumbered canonically).

    A round only splits classes, since each signature starts with the
    old color, so a round that makes no new class is stable."""
    classes = len(set(colors))
    while True:
        sigs = [(colors[v], loops[v],
                 tuple(sorted((colors[w], m) for w, m in neigh[v])))
                for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [palette[s] for s in sigs]
        if len(palette) == classes:
            return colors
        classes = len(palette)


def canonical_form(g):
    """(form, labellings): a canonical edge tuple by
    individualization-refinement, and the labellings that give it.

    The form is the minimum over all discrete refinements of the
    relabeled sorted edge list; equal forms iff isomorphic.  The
    labellings are every leaf whose relabeled edge list is the form,
    each a list that gives vertex v the label labelling[v].  Refinement
    commutes with relabeling, so Aut(g) permutes the leaves, and two
    leaves with the same form differ by an automorphism: for any one of
    them lambda, the list is exactly {lambda o s : s in Aut(g)}, one
    labelling per automorphism.
    """
    n = g.num_vertices
    mult = _edge_multiset(g)
    base, neigh, loops = _refined_colors(g)
    best = None
    leaves = []

    def leaf_form(rank):
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
                best, leaves[:] = form, [colors]
            elif form == best:
                leaves.append(colors)
            return
        for v in range(n):
            if colors[v] != target:
                continue
            split = [2 * c + (0 if u == v else 1) for u, c in enumerate(colors)]
            rec(_refine_from(split, neigh, loops, n))

    rec(base)
    return (n, best), leaves


# ---------------------------------------------------------------------------
# Generation: connected cubic multigraphs up to isomorphism, by canonical
# construction path (McKay, J. Algorithms 1998; for cubic graphs
# Brinkmann, Goedgebeur & McKay, DMTCS 2011)

def _base_graphs():
    theta = TrivalentGraph(2, ((0, 1), (0, 1), (0, 1)))
    dumbbell = TrivalentGraph(2, ((0, 0), (1, 1), (0, 1)))
    return [theta, dumbbell]


def _moves(g):
    """One move of g per Aut(g)-orbit, on edges taken as vertex pairs:
    ("loop", e) hangs a loop vertex off a new vertex on e; ("double", e)
    subdivides e twice and doubles the middle edge; ("pair", e, f), e <= f,
    subdivides e and f and joins the two new vertices (e == f takes two
    parallel copies)."""
    mult = _edge_multiset(g)
    edges = sorted(mult)
    moves = [("loop", e) for e in edges] + [("double", e) for e in edges]
    moves += [("pair", e, f) for k, e in enumerate(edges) for f in edges[k:]
              if e != f or mult[e] > 1]
    _, labellings = canonical_form(g)
    back = [0] * g.num_vertices
    for v, label in enumerate(labellings[0]):
        back[label] = v
    autos = [[back[label] for label in lab] for lab in labellings]
    seen = set()
    for move in moves:
        if move not in seen:
            seen.update(_move_image(move, s) for s in autos)
            yield move


def _move_image(move, s):
    kind, *edges = move
    return (kind, *sorted(tuple(sorted((s[a], s[b]))) for a, b in edges))


def _apply(g, move):
    """The child of g under `move`; its new vertices are V and V + 1."""
    n = g.num_vertices
    w, x = n, n + 1
    kind, *old = move
    edges = list(g.edges)
    for e in old:
        edges.remove(e)
    a, b = old[0]
    if kind == "loop":
        edges += [(a, w), (b, w), (w, x), (x, x)]
    elif kind == "double":
        edges += [(a, w), (b, x), (w, x), (w, x)]
    else:
        c, d = old[1]
        edges += [(a, w), (b, w), (c, x), (d, x), (w, x)]
    # every vertex already has degree 3 and every pair is sorted, so the
    # check in TrivalentGraph.__post_init__ is skipped
    child = object.__new__(TrivalentGraph)
    object.__setattr__(child, "num_vertices", n + 2)
    object.__setattr__(child, "edges", tuple(edges))
    return child


def _bridges(adj):
    """The bridges of a connected multigraph, as vertex pairs (u, v) with
    u < v, by one lowlink depth-first search; `adj` is as from
    `TrivalentGraph.adjacency`."""
    order = [-1] * len(adj)
    low = [0] * len(adj)
    order[0] = 0
    stack = [(0, None, iter(adj[0]))]
    visited = 1
    bridges = set()
    while stack:
        u, via, it = stack[-1]
        for w, i in it:
            if i == via:
                continue
            if order[w] < 0:
                order[w] = low[w] = visited
                visited += 1
                stack.append((w, i, iter(adj[w])))
                break
            low[u] = min(low[u], order[w])
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] > order[p]:
                    bridges.add((min(p, u), max(p, u)))
    return bridges


def _reductions(g, nbrs):
    """The reductions of g, V >= 4, of the first kind it has.

    ("loop", x) removes the loop vertex x and smooths its neighbour;
    ("edge", w, x), w < x, deletes one w-x edge between loop-free
    vertices, not a bridge, and smooths w and x.  Each leaves a
    connected cubic multigraph on V - 2 vertices, and they undo the
    moves "loop" and "double" or "pair".  The kinds rank loops first,
    then doubled edges, then single edges (which alone can be bridges),
    so only a graph with neither needs its bridges.
    """
    loops = [("loop", u) for u, v in g.edges if u == v]
    if loops:
        return loops
    pairs = {(u, v) for u, v in g.edges}
    doubles = [("edge", w, x) for w, x in pairs if nbrs[w].count(x) > 1]
    if doubles:
        return doubles
    bridges = _bridges(g.adjacency())
    return [("edge", w, x) for w, x in pairs if (w, x) not in bridges]


def _labelled(reduction, label):
    return tuple(sorted(label[v] for v in reduction[1:]))


def _is_canonical(g, undo):
    """Whether the reduction `undo` of g lies in the Aut(g)-orbit of its
    canonical reduction: the least by kind (`_reductions`), then by an
    invariant key, then, only on a tie, by the labels of its vertices
    under a canonical labelling.  The key is minus the number of common
    neighbours of w and x, then the sorted numbers of vertices within
    distance 2 of the reduction's vertices.  Every key is invariant
    under isomorphism, so the tied set is a union of Aut(g)-orbits, and
    undo is in the least orbit iff some canonical labelling (together
    they are a coset of Aut(g)) gives it the least labels."""
    nbrs = [[] for _ in range(g.num_vertices)]
    for u, v in g.edges:
        if u != v:
            nbrs[u].append(v)
            nbrs[v].append(u)
    tied = _reductions(g, nbrs)
    if undo not in tied:
        return False
    sizes = {}

    def near(v):
        if v not in sizes:
            ball = set(nbrs[v])
            for u in nbrs[v]:
                ball.update(nbrs[u])
            ball.discard(v)
            sizes[v] = len(ball)
        return sizes[v]

    def key(r):
        if r[0] == "loop":
            return (0, near(r[1]), near(nbrs[r[1]][0]))
        _, w, x = r
        return (-len(set(nbrs[w]) & set(nbrs[x])), *sorted((near(w), near(x))))

    mine = key(undo)
    keys = [key(r) for r in tied]
    if min(keys) < mine:
        return False
    tied = [r for r, k in zip(tied, keys) if k == mine]
    if len(tied) == 1:
        return True
    _, labellings = canonical_form(g)
    least = min(_labelled(r, labellings[0]) for r in tied)
    return any(_labelled(undo, lab) == least for lab in labellings)


def generate_connected_trivalent(max_vertices):
    """All connected trivalent multigraphs with <= max_vertices vertices,
    one per isomorphism class, grouped {V: [graphs]}.

    Canonical construction path (McKay 1998).  Every connected cubic
    multigraph on V >= 4 vertices has a reduction (`_reductions`) to one
    on V - 2: a loop vertex can be removed, and otherwise any edge on a
    cycle can be deleted.  Each class at V - 2 is kept once, and each of
    its moves is tried once per Aut-orbit (`_moves`); a child is kept
    only if the reduction that undoes its move is in the Aut-orbit of
    its canonical reduction (`_is_canonical`).  A class then comes out
    exactly once: only from the class of its canonical reduction, and
    two kept children of one parent that are isomorphic would map one
    undoing reduction onto the other, and so one move onto the other by
    an automorphism of the parent.  No set of forms is kept across
    parents, and nothing is cached across calls.
    """
    if max_vertices < 2:
        return {}
    out = {2: _base_graphs()}
    for v in range(2, max_vertices - 1, 2):
        found = []
        for g in out[v]:
            for move in _moves(g):
                child = _apply(g, move)
                undo = ("loop", v + 1) if move[0] == "loop" else ("edge", v, v + 1)
                if _is_canonical(child, undo):
                    found.append(child)
        out[v + 2] = found
    return out


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

def _ball(adj, root, wanted, below=None):
    """Breadth-first search from `root`, stopped at the end of the first
    layer by which `wanted` non-tree edges have appeared, or before the
    first layer k whose walks (2k+1 or longer) cannot be shorter than
    `below`.

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
    k = 0
    while layer and len(walks) < wanted and (below is None or 2 * k + 1 < below):
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
        k += 1
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
    shortest cycle.  Each root's ball stops once no walk it could still
    find is shorter than the best so far, and a loop ends the search.
    `cycle_vertices` is [u] for a loop, [u, v] for a parallel pair,
    otherwise the cycle in order.

    `holds` is the exact comparison 9 * 2^g <= 4 (V+2)^2; the reported
    bound value is a certified dyadic enclosure.
    """
    if g.num_vertices < 1:
        raise ValueError("empty graph")
    adj = g.adjacency()
    best = None
    for root in range(g.num_vertices):
        below = best[0][0] if best else None
        parent, walks = _ball(adj, root, 1, below)
        if walks and (below is None or walks[0][0] < below):
            best = walks[0], root, parent
            if walks[0][0] == 1:  # a loop; nothing is shorter
                break
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
