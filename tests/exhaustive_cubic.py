"""The girth and b1 = 2 subgraph lemmas on every connected cubic
multigraph with at most MAX vertices (default 14), up to isomorphism;
or, with --oracle, the pruned canonical-form search against the
unpruned one on every graph that generation to MAX vertices searches.

    PYTHONPATH=src python tests/exhaustive_cubic.py [MAX]
    PYTHONPATH=src python tests/exhaustive_cubic.py --oracle MAX

The first exits non-zero unless the class counts are those of OEIS
A005967 and both lemma bounds hold on every graph.  The second relabels
each searched graph at random and exits non-zero unless
`trivalent.canonical_form` gives the unpruned search's form, one of its
labellings, and generators whose closure is the automorphism group read
off its labellings; for MAX in REFINEMENTS, also unless generation makes
the pinned number of refinements.  Not collected by pytest: at V <= 14
the first checks 24,171 graphs.
"""

import random
import sys
import time

from kll import trivalent
from kll.trivalent import b1_two_subgraph, generate_connected_trivalent, short_cycle

A005967 = {2: 2, 4: 5, 6: 17, 8: 71, 10: 388, 12: 2592, 14: 21096}
# `trivalent._refine_from` calls made by generation to V <= N: a search
# that also prunes by generators moving the node's individualized
# vertices (unsound in general) makes 1,932 and 11,017, and passes the
# canonical-form oracle
REFINEMENTS = {10: 1933, 12: 11036}


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


def refinements(max_vertices):
    """The number of `trivalent._refine_from` calls that
    generate_connected_trivalent(max_vertices) makes."""
    calls = 0
    refine = trivalent._refine_from

    def counting(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    trivalent._refine_from = counting
    try:
        generate_connected_trivalent(max_vertices)
    finally:
        trivalent._refine_from = refine
    return calls


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


def check_oracle(max_vertices):
    t0 = time.perf_counter()
    generate_connected_trivalent(max_vertices)
    generated = time.perf_counter() - t0
    graphs = searched_graphs(max_vertices)
    bad = oracle_mismatches(graphs, random.Random(max_vertices))
    if bad:
        raise SystemExit(f"{len(bad)} of {len(graphs)} searches differ from "
                         f"the unpruned search; first: {bad[0]}")
    calls = refinements(max_vertices)
    if calls != REFINEMENTS.get(max_vertices, calls):
        raise SystemExit(f"{calls} refinements, expected "
                         f"{REFINEMENTS[max_vertices]}")
    print(f"V <= {max_vertices}: {len(graphs)} searches agree with the "
          f"unpruned search, {calls} refinements (generation "
          f"{generated:.2f} s)")


def main(max_vertices):
    t0 = time.time()
    gen = generate_connected_trivalent(max_vertices)
    counts = {v: len(graphs) for v, graphs in gen.items()}
    expected = {v: k for v, k in A005967.items() if v <= max_vertices}
    if counts != expected:
        raise SystemExit(f"class counts {counts}, expected {expected}")
    generated = time.time() - t0
    for v, graphs in gen.items():
        for g in graphs:
            if not (short_cycle(g).holds and b1_two_subgraph(g).holds):
                raise SystemExit(f"lemma bound fails on V={v} edges {g.edges}")
    print(f"{sum(counts.values())} graphs, counts {counts}: both bounds hold "
          f"(generation {generated:.1f} s, total {time.time() - t0:.1f} s)")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--oracle"]:
        check_oracle(int(sys.argv[2]))
    else:
        main(int(sys.argv[1]) if len(sys.argv) > 1 else 14)
