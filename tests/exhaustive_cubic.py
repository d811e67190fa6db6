"""The girth and b1 = 2 subgraph lemmas on every connected cubic
multigraph with at most MAX vertices (default 14), up to isomorphism;
or, with --oracle, the pruned canonical-form search against the
unpruned one on every graph that generation to MAX vertices searches,
and the filtered moves against the unfiltered ones on every parent.

    PYTHONPATH=src python tests/exhaustive_cubic.py [MAX]
    PYTHONPATH=src python tests/exhaustive_cubic.py --oracle MAX

The first checks each graph as `trivalent.connected_trivalent` yields
it, holding no level, and exits non-zero unless the class counts are
those of OEIS A005967, both lemma bounds hold on every graph, and
`short_cycle` and `b1_two_subgraph` report the cycle and edges that the
leaf-stripping oracle finds.  The second relabels each searched graph
at random and exits non-zero unless `trivalent.canonical_form` gives
the unpruned search's form, one of its labellings, and generators whose
closure is the automorphism group read off its labellings; unless
every move that `trivalent._moves` drops has a child `_is_canonical`
rejects, with the same children kept; and, for MAX in REFINEMENTS and
CHILDREN, unless generation makes the pinned number of refinements and
tests the pinned number of children.  Not collected by pytest: at V <= 14 the first
checks 24,171 graphs, and at V <= 16 (a CI job of its own) 228,809.
"""

import random
import sys
import time

from kll import trivalent
from kll.fpgroups import orbit
from kll.trivalent import (b1_two_subgraph, connected_trivalent,
                           generate_connected_trivalent, short_cycle)

A005967 = {2: 2, 4: 5, 6: 17, 8: 71, 10: 388, 12: 2592, 14: 21096, 16: 204638}
# `trivalent._refine_from` calls made by generation to V <= N: a search
# that also prunes by generators moving the node's individualized
# vertices (unsound in general) makes 1,932 and 11,017, and passes the
# canonical-form oracle
REFINEMENTS = {10: 1933, 12: 11036}
# `trivalent._is_canonical` calls made by generation to V <= N: the
# unfiltered moves make 3,140 and 29,165
CHILDREN = {10: 761, 12: 5650}


# ---------------------------------------------------------------------------
# Unpruned individualization-refinement: every leaf is visited

def _refine_unpruned(colors, neigh, loops, n):
    """Refine a coloring to stability, all vertices each round, classes
    renumbered by sorted signature."""
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


def canonical_form_unpruned(g):
    """(form, labellings): the least relabeled sorted edge list over all
    discrete refinements, and every leaf labelling that gives it (one
    coset of Aut(g))."""
    n = g.num_vertices
    mult = {}
    for e in g.edges:
        mult[e] = mult.get(e, 0) + 1
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
    best = None
    leaves = []

    def rec(colors):
        nonlocal best
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min((c for c, k in counts.items() if k > 1), default=None)
        if target is None:
            form = tuple(sorted(tuple(sorted((colors[u], colors[v])))
                                for (u, v), m in mult.items() for _ in range(m)))
            if best is None or form < best:
                best, leaves[:] = form, [colors]
            elif form == best:
                leaves.append(colors)
            return
        for v in range(n):
            if colors[v] == target:
                split = [2 * c + (0 if u == v else 1) for u, c in enumerate(colors)]
                rec(_refine_unpruned(split, neigh, loops, n))

    rec(_refine_unpruned([palette[s] for s in sigs], neigh, loops, n))
    return (n, best), leaves


def group_closure(generators, n):
    """Every permutation of range(n) in the group `generators` generate,
    as tuples, by breadth-first search from the identity."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        nxt = []
        for p in frontier:
            for s in generators:
                q = tuple(s[x] for x in p)
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


def searched_graphs(max_vertices):
    """Every graph that generate_connected_trivalent(max_vertices) passes
    to `trivalent.canonical_form`, in call order."""
    graphs = []
    search = trivalent.canonical_form

    def recording(g):
        graphs.append(g)
        return search(g)

    trivalent.canonical_form = recording
    try:
        generate_connected_trivalent(max_vertices)
    finally:
        trivalent.canonical_form = search
    return graphs


def counted_calls(name, work):
    """The number of calls to `trivalent.<name>` that work() makes."""
    calls = 0
    function = getattr(trivalent, name)

    def counting(*args):
        nonlocal calls
        calls += 1
        return function(*args)

    setattr(trivalent, name, counting)
    try:
        work()
    finally:
        setattr(trivalent, name, function)
    return calls


def generation_calls(name, max_vertices):
    """The number of calls to `trivalent.<name>` that
    generate_connected_trivalent(max_vertices) makes."""
    return counted_calls(name, lambda: generate_connected_trivalent(max_vertices))


# ---------------------------------------------------------------------------
# Every move, one per Aut-orbit, whatever the child's reductions

def moves_unfiltered(g, generators):
    """One move of g per Aut(g)-orbit, of every kind on every edge or
    pair of edges, in the order `trivalent._moves` takes them."""
    mult = {}
    for e in g.edges:
        mult[e] = mult.get(e, 0) + 1
    edges = sorted(mult)
    moves = [("loop", e) for e in edges] + [("double", e) for e in edges]
    moves += [("pair", e, f) for k, e in enumerate(edges) for f in edges[k:]
              if e != f or mult[e] > 1]
    seen = set()
    for move in moves:
        if move not in seen:
            seen.update(orbit([move], generators, trivalent._move_image))
            yield move


def move_filter_mismatches(max_vertices):
    """[(parent edges, what differs)] for each parent that generation to
    max_vertices extends on which `trivalent._moves` is not the
    unfiltered move list less moves whose child `_is_canonical` rejects,
    or keeps other children."""
    gen = generate_connected_trivalent(max_vertices - 2)
    bad = []
    for v in sorted(gen):
        for g in gen[v]:
            generators = trivalent.canonical_form(g)[2]
            every = list(moves_unfiltered(g, generators))
            offered = list(trivalent._moves(g, generators))
            kept = {}
            for move in every:
                undo = ("loop", v + 1) if move[0] == "loop" else ("edge", v, v + 1)
                child = trivalent._apply(g, move)
                kept[move] = trivalent._is_canonical(child, undo)[0] and child
            if [m for m in every if m in offered] != offered:
                bad.append((g.edges, "moves"))
            elif any(kept[m] for m in every if m not in offered):
                bad.append((g.edges, "a dropped child is kept"))
            elif [kept[m] for m in every if kept[m]] != \
                    [kept[m] for m in offered if kept[m]]:
                bad.append((g.edges, "children"))
    return bad


def oracle_mismatches(graphs, rng):
    """[(edges, what differs)] for each graph, relabelled at random, on
    which `trivalent.canonical_form` and the unpruned search disagree."""
    bad = []
    for g in graphs:
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        relab = trivalent.TrivalentGraph(
            g.num_vertices, tuple((perm[u], perm[v]) for u, v in g.edges))
        form, labelling, generators = trivalent.canonical_form(relab)
        want, labellings = canonical_form_unpruned(relab)
        back = [0] * g.num_vertices
        for v, label in enumerate(labellings[0]):
            back[label] = v
        aut = {tuple(back[label] for label in lab) for lab in labellings}
        if form != want:
            bad.append((relab.edges, "form"))
        elif labelling not in labellings:
            bad.append((relab.edges, "labelling"))
        elif group_closure(generators, g.num_vertices) != aut:
            bad.append((relab.edges, "automorphism group"))
    return bad


# ---------------------------------------------------------------------------
# Lemma witnesses from each root's ball, leaves stripped one at a time

def _ball_walks(adj, root, wanted):
    """(parent, walks): the breadth-first tree from `root`, parent[v] =
    (tree parent, edge index) or None at the root, and the closed walks
    (length, edge index, u, w) through non-tree edges, shortest first,
    to the end of the layer where `wanted` have appeared."""
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


def _without_leaves(g, edge_idx):
    """Delete degree-1 vertices (and their edge) until none is left."""
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


def lemma_witnesses(g):
    """(cycle_vertices, edge_indices) that `short_cycle` and
    `b1_two_subgraph` must report: the first root's cycle among those
    with the shortest closed walk, every root's ball grown in full; and
    the first root's edges among those with the fewest, where a root
    takes its two shortest walks' edges and tree paths and strips every
    leaf."""
    adj = g.adjacency()
    shortest, edges = None, None
    for root in range(g.num_vertices):
        parent, walks = _ball_walks(adj, root, 1)
        if shortest is None or walks[0][0] < shortest[0][0]:
            shortest = walks[0], root, parent
        parent, walks = _ball_walks(adj, root, 2)
        taken = set()
        for _, i, u, w in walks[:2]:
            taken.add(i)
            taken.update(e for _, e in _path_up(parent, u) + _path_up(parent, w))
        taken = _without_leaves(g, taken)
        if edges is None or len(taken) < len(edges):
            edges = taken
    (_, _, u, w), root, parent = shortest
    cycle = ([x for x, _ in _path_up(parent, u)] + [root]
             + [x for x, _ in reversed(_path_up(parent, w))])
    return cycle, edges


def witnesses_differ(g, cycle_report, subgraph_report):
    """Whether `short_cycle`'s and `b1_two_subgraph`'s reports on g name
    other witnesses than `lemma_witnesses`."""
    return ((cycle_report.cycle_vertices, subgraph_report.edge_indices)
            != lemma_witnesses(g))


def lemma_mismatches(graphs):
    """The edge lists of the graphs on which `short_cycle` or
    `b1_two_subgraph` reports other witnesses than `lemma_witnesses`."""
    return [g.edges for g in graphs
            if witnesses_differ(g, short_cycle(g), b1_two_subgraph(g))]


def check_oracle(max_vertices):
    t0 = time.perf_counter()
    generate_connected_trivalent(max_vertices)
    generated = time.perf_counter() - t0
    graphs = searched_graphs(max_vertices)
    bad = oracle_mismatches(graphs, random.Random(max_vertices))
    if bad:
        raise SystemExit(f"{len(bad)} of {len(graphs)} searches differ from "
                         f"the unpruned search; first: {bad[0]}")
    calls = generation_calls("_refine_from", max_vertices)
    if calls != REFINEMENTS.get(max_vertices, calls):
        raise SystemExit(f"{calls} refinements, expected "
                         f"{REFINEMENTS[max_vertices]}")
    bad = move_filter_mismatches(max_vertices)
    if bad:
        raise SystemExit(f"{len(bad)} parents' moves differ from the "
                         f"unfiltered moves; first: {bad[0]}")
    tested = generation_calls("_is_canonical", max_vertices)
    if tested != CHILDREN.get(max_vertices, tested):
        raise SystemExit(f"{tested} children tested, expected "
                         f"{CHILDREN[max_vertices]}")
    print(f"V <= {max_vertices}: {len(graphs)} searches agree with the "
          f"unpruned search, {calls} refinements, the filtered moves drop "
          f"only rejected children, {tested} children tested (generation "
          f"{generated:.2f} s)")


def main(max_vertices):
    t0 = time.time()
    counts = {v: 0 for v in range(2, max_vertices + 1, 2)}
    bad = []
    for g in connected_trivalent(max_vertices):
        counts[g.num_vertices] += 1
        cyc, sub = short_cycle(g), b1_two_subgraph(g)
        if not (cyc.holds and sub.holds):
            raise SystemExit(f"lemma bound fails on V={g.num_vertices} "
                             f"edges {g.edges}")
        if witnesses_differ(g, cyc, sub):
            bad.append(g.edges)
    expected = {v: k for v, k in A005967.items() if v <= max_vertices}
    if counts != expected:
        raise SystemExit(f"class counts {counts}, expected {expected}")
    if bad:
        raise SystemExit(f"{len(bad)} graphs' lemma witnesses differ from the "
                         f"leaf-stripping oracle; first: {bad[0]}")
    print(f"{sum(counts.values())} graphs, counts {counts}: both bounds hold "
          f"and the witnesses match the oracle ({time.time() - t0:.1f} s)")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--oracle"]:
        check_oracle(int(sys.argv[2]))
    else:
        main(int(sys.argv[1]) if len(sys.argv) > 1 else 14)
