"""Finite trivalent multigraphs: short-cycle and small-b1-subgraph bounds,
plus generation of every connected cubic multigraph up to isomorphism
(loops and parallel edges are first-class) as one lazy depth-first
stream, `connected_trivalent`, which holds one path of parents at a
time; `generate_connected_trivalent` buckets it by vertex count.

Both bounds are read off one pass per graph that grows one
breadth-first ball per root: the first non-tree edge a ball meets closes
a shortest cycle through the root, the first two close a connected
b1 = 2 subgraph.  The graph keeps only the two winning roots
(`TrivalentGraph._lemma_roots`), and `short_cycle` and `b1_two_subgraph`
each regrow one ball there to build a fresh report.  The bounds have the
form c1*log2(t) + c2 and are decided by exact integer power comparison;
dyadic enclosures of the bound values are reported alongside.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dyadic import log2_enclosure
from .fpgroups import orbit


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
        """E - V + components: read off the lemma pass once it has run
        (the graph is then connected), else one component count."""
        if "_lemma_roots" in vars(self):
            return self._lemma_roots[2]
        return self.num_edges - self.num_vertices + _components(self.adjacency())

    def adjacency(self):
        adj = [[] for _ in range(self.num_vertices)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            if u != v:
                adj[v].append((u, i))
        return adj

    def is_connected(self):
        return _components(self.adjacency()) == 1

    @cached_property
    def _lemma_roots(self):
        """The two roots `_lemma_pass` picks and b1, kept after the first
        call; not a field, so equality and hashing ignore it."""
        return _lemma_pass(self)

    def to_json(self):
        return {"V": self.num_vertices, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, obj):
        return cls(int(obj["V"]), tuple(tuple(e) for e in obj["edges"]))


# ---------------------------------------------------------------------------
# Canonical form by individualization-refinement with automorphism pruning
# (McKay, Congr. Numer. 30, 1981; McKay & Piperno, J. Symbolic Comput. 60,
# 2014)

def _edge_multiset(g):
    mult = {}
    for u, v in g.edges:
        mult[(u, v)] = mult.get((u, v), 0) + 1
    return mult


def _vertex_image(v, s):
    return s[v]


def _refined_cells(g):
    """(cells, colors, neigh): the stable refinement of the partition by
    loop count and edge multiplicities (`_refine_from`), with the
    neighbour lists [(w, multiplicity)] it was refined over.
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
    parts = {}
    for v in range(n):
        parts.setdefault((loops[v], tuple(sorted(m for _, m in neigh[v]))), []).append(v)
    cells, colors = _refine_from([parts[s] for s in sorted(parts)], neigh, n)
    return cells, colors, neigh


def _refine_from(cells, neigh, n):
    """Refine an ordered partition to stability: (cells, colors), where a
    vertex's color is the rank of its cell.

    Each round splits every cell by its vertices' sorted lists of
    (neighbour color, multiplicity), the parts in sorted order, so the
    colors are canonical across isomorphic graphs.  A singleton cell
    cannot split and keeps its place; a round that splits no cell is
    stable.  Vertices keep their order inside a cell."""
    colors = [0] * n
    while True:
        for c, cell in enumerate(cells):
            for v in cell:
                colors[v] = c
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            parts = {}
            for v in cell:
                sig = tuple(sorted([(colors[w], m) for w, m in neigh[v]]))
                parts.setdefault(sig, []).append(v)
            if len(parts) == 1:
                out.append(cell)
            else:
                out.extend(parts[s] for s in sorted(parts))
        if len(out) == len(cells):
            return cells, colors
        cells = out


def canonical_form(g):
    """(form, labelling, generators): a canonical edge tuple by
    individualization-refinement, one labelling that gives it, and
    permutations that generate Aut(g).

    The form is the minimum over all discrete refinements of the
    relabeled sorted edge list; equal forms iff isomorphic.  The
    labelling gives vertex v the label labelling[v]; a generator s maps
    v to s[v].  Refinement commutes with relabeling, so a leaf with the
    form of the first or the best leaf differs from it by an
    automorphism, kept as a generator; the search then goes back to the
    two leaves' deepest common node, as the rest of the subtree it left
    is the image of one already searched.  A child is skipped if the
    generators that fix its node's individualized vertices map an
    explored sibling onto it.  The generators found generate Aut(g)
    (McKay 1981).  Nothing outlives the call.
    """
    n = g.num_vertices
    mult = _edge_multiset(g)
    cells, colors, neigh = _refined_cells(g)
    generators = []
    leaves = []  # [first, best], each (form, labelling, path)

    def leaf(labelling, path):
        out = []
        for (u, v), m in mult.items():
            a, b = labelling[u], labelling[v]
            if a > b:
                a, b = b, a
            out.extend([(a, b)] * m)
        out.sort()
        form = tuple(out)
        if not leaves:
            leaves[:] = [(form, labelling, path)] * 2
            return len(path) - 1
        for known, lab, known_path in leaves:
            if form == known:
                back = [0] * n
                for v, label in enumerate(lab):
                    back[label] = v
                generators.append([back[label] for label in labelling])
                common = 0
                while path[common] == known_path[common]:
                    common += 1
                return common
        if form < leaves[1][0]:
            leaves[1] = (form, labelling, path)
        return len(path) - 1

    def search(cells, colors, path):
        """Search below a node; the depth at which to go on."""
        depth = len(path)
        t = next((k for k, cell in enumerate(cells) if len(cell) > 1), None)
        if t is None:
            return leaf(colors, path)
        fixing, seen, explored, covered = [], 0, [], set()
        for v in cells[t]:
            if len(generators) > seen:
                fixing += [s for s in generators[seen:]
                           if all(s[u] == u for u in path)]
                seen = len(generators)
                covered = set(orbit(explored, fixing, _vertex_image))
            if v in covered:
                continue
            explored.append(v)
            covered.update(orbit([v], fixing, _vertex_image))
            rest = [u for u in cells[t] if u != v]
            child = cells[:t] + [[v], rest] + cells[t + 1:]
            back = search(*_refine_from(child, neigh, n), path + (v,))
            if back < depth:
                return back
        return depth - 1

    search(cells, colors, ())
    form, labelling, _ = leaves[1]
    return (n, form), labelling, generators


# ---------------------------------------------------------------------------
# Generation: connected cubic multigraphs up to isomorphism, by canonical
# construction path (McKay, J. Algorithms 1998; for cubic graphs
# Brinkmann, Goedgebeur & McKay, DMTCS 2011)

def _base_graphs():
    theta = TrivalentGraph(2, ((0, 1), (0, 1), (0, 1)))
    dumbbell = TrivalentGraph(2, ((0, 0), (1, 1), (0, 1)))
    return [theta, dumbbell]


def _moves(g, generators):
    """One move of g per Aut(g)-orbit, on edges taken as vertex pairs:
    ("loop", e) hangs a loop vertex off a new vertex on e; ("double", e)
    subdivides e twice and doubles the middle edge; ("pair", e, f), e <= f,
    subdivides e and f and joins the two new vertices (e == f takes two
    parallel copies).  The orbits are the components of the moves under
    the images by `generators`, which generate Aut(g).

    Only moves whose undoing reduction is of the child's first kind
    (`_reductions`) are offered; the others' children could never be
    kept.  With L loops in g: a "loop" child has a loop, so every such
    move stays.  A "double" child has the doubled edge it undoes and
    loses a loop only when e is one, so it needs L = [e is a loop].  A
    "pair" child undoes a single edge, never a bridge since deleting it
    leaves g subdivided; a loop split by the move becomes a doubled
    edge, so it needs L = 0 and no doubled d of g that keeps
    mult(d) - [d = e] - [d = f] >= 2.  The rule reads only loops and
    multiplicities, so it keeps or drops whole Aut(g)-orbits and leaves
    the representatives of the kept ones unchanged."""
    mult = _edge_multiset(g)
    edges = sorted(mult)
    loops = sum(u == v for u, v in edges)
    moves = [("loop", e) for e in edges]
    moves += [("double", e) for e in edges if loops == (e[0] == e[1])]
    if not loops:
        doubled = [d for d in edges if mult[d] > 1]
        moves += [("pair", e, f) for k, e in enumerate(edges) for f in edges[k:]
                  if (e != f or mult[e] > 1)
                  and all(mult[d] - (d == e) - (d == f) < 2 for d in doubled)]
    seen = set()
    for move in moves:
        if move not in seen:
            seen.update(orbit([move], generators, _move_image))
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


def _reduction_image(reduction, s):
    kind, *vertices = reduction
    return (kind, *sorted(s[v] for v in vertices))


def _is_canonical(g, undo):
    """(kept, generators): whether the reduction `undo` of g lies in the
    Aut(g)-orbit of its canonical reduction, and generators of Aut(g)
    if deciding it took a search (else None).

    The canonical reduction is the least by kind (`_reductions`), then
    by an invariant key, then, only on a tie, by the labels of its
    vertices under the canonical labelling.  The key is minus the number
    of common neighbours of w and x, then the sorted numbers of vertices
    within distance 2 of the reduction's vertices.  Every key is
    invariant under isomorphism, so the tied set is a union of
    Aut(g)-orbits, and which member of the least orbit the labelling
    picks does not change the orbit.  Generation offers only children
    whose `undo` is of their first kind (`_moves`), so the kind test
    rejects none of them; it stays so that the function decides any
    reduction on its own."""
    nbrs = [[] for _ in range(g.num_vertices)]
    for u, v in g.edges:
        if u != v:
            nbrs[u].append(v)
            nbrs[v].append(u)
    tied = _reductions(g, nbrs)
    if undo not in tied:
        return False, None
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
        return False, None
    tied = [r for r, k in zip(tied, keys) if k == mine]
    if len(tied) == 1:
        return True, None
    _, labelling, generators = canonical_form(g)
    least = min(tied, key=lambda r: _labelled(r, labelling))
    return undo in orbit([least], generators, _reduction_image), generators


def connected_trivalent(max_vertices):
    """Every connected trivalent multigraph with <= max_vertices vertices,
    one per isomorphism class, as a lazy depth-first stream: each graph
    is yielded before its children are built.

    Canonical construction path (McKay 1998).  Every connected cubic
    multigraph on V >= 4 vertices has a reduction (`_reductions`) to one
    on V - 2: a loop vertex can be removed, and otherwise any edge on a
    cycle can be deleted.  Each class at V - 2 is kept once, and each of
    its moves is tried once per Aut-orbit (`_moves`, which skips moves
    whose undoing reduction is not of the child's first kind, read off
    the parent's loops and doubled edges); a child is kept only if the
    reduction that undoes its move is in the Aut-orbit of its canonical
    reduction (`_is_canonical`).  A class then comes out
    exactly once: only from the class of its canonical reduction, and
    two kept children of one parent that are isomorphic would map one
    undoing reduction onto the other, and so one move onto the other by
    an automorphism of the parent.  Keeping a child depends only on the
    child and its parent, so a walk holds one path of parents, not a
    level.  A parent whose keeping took a search reuses that search's
    generators of Aut; the others with room for children are searched
    once.  No set of forms is kept across parents.
    """
    def descend(g, generators):
        yield g
        v = g.num_vertices
        if v + 2 > max_vertices:
            return
        if generators is None:
            generators = canonical_form(g)[2]
        for move in _moves(g, generators):
            child = _apply(g, move)
            undo = ("loop", v + 1) if move[0] == "loop" else ("edge", v, v + 1)
            kept, child_generators = _is_canonical(child, undo)
            if kept:
                yield from descend(child, child_generators)

    if max_vertices >= 2:
        for g in _base_graphs():
            yield from descend(g, None)


def generate_connected_trivalent(max_vertices):
    """`connected_trivalent(max_vertices)` bucketed {V: [graphs]}, a key
    for every even 2 <= V <= max_vertices; within one V, children come
    grouped by parent, in parent order, then in `_moves` order."""
    out = {v: [] for v in range(2, max_vertices + 1, 2)}
    for g in connected_trivalent(max_vertices):
        out[g.num_vertices].append(g)
    return out


def random_connected_trivalent(num_vertices, rng=None):
    """Uniform configuration-model pairing, resampled until connected."""
    if num_vertices < 2:
        raise ValueError("a connected trivalent graph has at least 2 vertices")
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
# Lemma-style bounds, both read off one pass of breadth-first balls

def _components(adj):
    """The number of connected components, by one depth-first search
    from each vertex no earlier search reached."""
    seen = [False] * len(adj)
    count = 0
    for root in range(len(adj)):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        stack = [root]
        while stack:
            for w, _ in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def _balls(adj, roots):
    """For each root in turn, the breadth-first ball stopped at the end of
    the first layer by which two non-tree edges have appeared.

    Yields (root, walks, depth, up, up_edge).  The per-vertex lists are
    allocated once and reused, so each is valid only until the next
    root: a vertex v of the ball has depth[v], and unless v is the root,
    its tree parent up[v] by the edge up_edge[v].  walks lists
    (length, edge index, u, w) for each non-tree edge u-w met, shortest
    first, where length = d(u) + d(w) + 1 is that of the closed walk
    root .. u - w .. root.  A non-tree edge met in layer k closes a walk
    of length 2k+1 or 2k+2, and every later layer only longer ones, so
    `walks` starts with the root's two shortest closed walks through a
    non-tree edge.  The ball of a connected cubic graph always has two:
    its b1 = V/2 + 1 is at least 2.
    """
    n = len(adj)
    depth = [0] * n
    up = [0] * n
    up_edge = [-1] * n
    mark = [-1] * n  # mark[v] == root: v is in root's ball
    for root in roots:
        mark[root] = root
        depth[root] = 0
        up_edge[root] = -1
        walks = []
        met = set()
        layer = [root]
        k = 0
        while len(walks) < 2 and layer:
            nxt = []
            for u in layer:
                skip = up_edge[u]
                for w, i in adj[u]:
                    if i == skip:
                        continue
                    if mark[w] != root:
                        mark[w] = root
                        depth[w] = k + 1
                        up[w] = u
                        up_edge[w] = i
                        nxt.append(w)
                    elif i not in met:
                        met.add(i)
                        walks.append((k + depth[w] + 1, i, u, w))
            layer = nxt
            k += 1
        walks.sort()
        yield root, walks, depth, up, up_edge


def _two_walk_edges(root, walks, depth, up, up_edge):
    """The edges of the b1 = 2 candidate that one ball gives: the two
    shortest walks' non-tree edges and their endpoints' tree paths to
    the root, less the root's stem (see `b1_two_subgraph`), as a set."""
    (_, i, u, w), (_, j, x, y) = walks[:2]
    taken = {i, j}
    v = u
    while v != root:
        taken.add(up_edge[v])
        v = up[v]
    top = u
    for v in (w, x, y):
        while v != root and up_edge[v] not in taken:
            taken.add(up_edge[v])
            v = up[v]
        if depth[v] < depth[top]:
            top = v
    while top != root:
        taken.remove(up_edge[top])
        top = up[top]
    return taken


def _lemma_pass(g):
    """(cycle root, subgraph root, b1): the first root whose ball has the
    shortest closed walk, and the first whose b1 = 2 candidate has the
    fewest edges, from one ball per root, and E - V + 1, as the graph is
    connected.  `TrivalentGraph._lemma_roots` keeps the triple, so each
    graph makes this pass, and builds its adjacency for b1, once.

    A ball grown only until its first non-tree edge would find the same
    first walk and the same tree paths to its ends: later layers only
    add longer walks, and every vertex on those paths is placed by then.
    So the cycle root is the one a search for the girth alone picks.
    """
    adj = g.adjacency()
    if _components(adj) != 1:
        # both lemmas are stated for connected graphs
        raise ValueError("the graph is not connected")
    cycle_root = subgraph_root = girth = fewest = None
    for root, walks, depth, up, up_edge in _balls(adj, range(len(adj))):
        if cycle_root is None or walks[0][0] < girth:
            girth, cycle_root = walks[0][0], root
        size = len(_two_walk_edges(root, walks, depth, up, up_edge))
        if subgraph_root is None or size < fewest:
            fewest, subgraph_root = size, root
    return cycle_root, subgraph_root, g.num_edges - g.num_vertices + 1


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
    shortest cycle.  The root is the first with the shortest walk in
    the graph's one lemma pass (`_lemma_pass`, kept on the graph), and
    the cycle is read off one ball regrown there.  `cycle_vertices` is
    [u] for a loop, [u, v] for a parallel pair, otherwise the cycle in
    order.  Raises ValueError for an empty or disconnected graph.

    `holds` is the exact comparison 9 * 2^g <= 4 (V+2)^2; the reported
    bound value is a certified dyadic enclosure.
    """
    if g.num_vertices < 1:
        raise ValueError("empty graph")
    root = g._lemma_roots[0]
    _, walks, _, up, _ = next(_balls(g.adjacency(), [root]))
    girth, _, u, w = walks[0]
    ends = []
    for v in (u, w):
        path = []
        while v != root:
            path.append(v)
            v = up[v]
        ends.append(path)
    cyc = ends[0] + [root] + ends[1][::-1]
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


def b1_two_subgraph(g):
    """Connected subgraph with b1 exactly 2 and few edges.

    From each root, the breadth-first ball that `_balls` grows until two
    non-tree edges have appeared gives a candidate: the two non-tree
    edges with the shortest closed walks, their endpoints' tree paths to
    the root, less the root's stem.  A tree plus two edges is connected
    with b1 = 2, so every root yields one.  The graph's one lemma pass
    (`_lemma_pass`, kept on the graph) finds the first root with the
    fewest edges, and the candidate is cut again from one ball regrown
    there.  There is no other search, so `strategy` is always "ball";
    the field stays for callers and `kll graph` output.

    Every vertex but the root lies on a tree path up from an endpoint,
    so it has its parent edge and either an edge below it or a non-tree
    edge: only the root's stem can hang.  The first endpoint's path is
    climbed to the root and each other path only until it meets an edge
    already taken; the shallowest vertex where one stops lies on the
    first path, since a path that meets another branch meets it below
    that branch's own stop, and the stem is the path from there up.

    `holds` is the exact comparison 2^edges <= 2^12 (b1-1)^6.  Raises
    FirstBettiTooSmall for b1 < 2, then ValueError for a disconnected
    graph.
    """
    b = g.b1()
    if b < 2:
        raise FirstBettiTooSmall(f"b1 = {b} < 2")
    best = sorted(_two_walk_edges(*next(_balls(g.adjacency(), [g._lemma_roots[1]]))))
    if _subgraph_b1(best, g) != 2:
        raise AssertionError("ball candidate is not a b1=2 subgraph")
    lo, hi = log2_enclosure(b - 1) if b > 2 else (Fraction(0), Fraction(0))
    holds = 2 ** len(best) <= (2 ** 12) * (b - 1) ** 6
    return SmallSubgraphReport(edge_indices=best, num_edges=len(best),
                               bound_lo=6 * lo + 12, bound_hi=6 * hi + 12,
                               holds=holds)
