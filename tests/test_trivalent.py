import hashlib
import random
from itertools import islice, permutations

import pytest

from kll import trivalent
from kll.trivalent import (TrivalentGraph, short_cycle, b1_two_subgraph,
                           connected_trivalent, generate_connected_trivalent,
                           random_connected_trivalent, canonical_form,
                           FirstBettiTooSmall, _subgraph_b1, _bridges)

from exhaustive_cubic import (CHILDREN, REFINEMENTS, counted_calls, generation_calls,
                              group_closure, lemma_mismatches,
                              move_filter_mismatches, oracle_mismatches,
                              searched_graphs)
from oracles import (bridges_by_edge_deletion, cubic_multigraphs_by_global_forms,
                     edge_subgraph_betti, girth_by_edge_deletion,
                     is_closed_cycle, multigraphs_isomorphic)

K4 = TrivalentGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
TWO_K4 = TrivalentGraph(8, K4.edges + tuple((u + 4, v + 4) for u, v in K4.edges))
THETA = TrivalentGraph(2, ((0, 1), (0, 1), (0, 1)))
DUMBBELL = TrivalentGraph(2, ((0, 0), (1, 1), (0, 1)))
Q3 = TrivalentGraph(8, ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
                        (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)))
PETERSEN = TrivalentGraph(10, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                               (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                               (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)))


def test_degree_validation():
    with pytest.raises(ValueError):
        TrivalentGraph(2, ((0, 1), (0, 1)))


def test_b1_formula():
    for g in (K4, THETA, DUMBBELL, Q3, PETERSEN):
        assert g.b1() == g.num_vertices // 2 + 1
    # E - V + components: two disjoint K4s have b1 = 6, two thetas 4
    assert TWO_K4.b1() == 6
    assert TrivalentGraph(4, THETA.edges + ((2, 3),) * 3).b1() == 4


def test_girth_named_graphs():
    assert short_cycle(K4).length == 3
    assert short_cycle(THETA).length == 2
    assert short_cycle(DUMBBELL).length == 1
    assert short_cycle(Q3).length == 4
    assert short_cycle(PETERSEN).length == 5


def test_short_cycle_reports():
    r = short_cycle(K4)
    assert r.length == 3 and r.holds
    assert float(r.bound_lo) == pytest.approx(4.0, abs=1e-9)
    r = short_cycle(THETA)
    assert r.length == 2 and r.holds
    assert float(r.bound_lo) == pytest.approx(2.8301, abs=1e-3)
    r = short_cycle(Q3)
    assert r.length == 4 and r.holds
    assert float(r.bound_lo) == pytest.approx(5.4739, abs=1e-3)


def test_short_cycle_is_simple():
    for g in (K4, THETA, DUMBBELL, Q3, PETERSEN):
        r = short_cycle(g)
        assert len(set(r.cycle_vertices)) == len(r.cycle_vertices)


def test_b1_two_subgraph_named():
    r = b1_two_subgraph(K4)
    assert r.num_edges == 5 and r.holds  # K4 minus an edge
    assert _subgraph_b1(r.edge_indices, K4) == 2
    r = b1_two_subgraph(THETA)
    assert r.num_edges == 3 and r.holds  # the whole theta
    r = b1_two_subgraph(PETERSEN)
    assert r.holds
    assert _subgraph_b1(r.edge_indices, PETERSEN) == 2


def test_lemmas_reject_disconnected():
    # both lemmas are stated for connected graphs
    for lemma in (short_cycle, b1_two_subgraph):
        with pytest.raises(ValueError, match="the graph is not connected"):
            lemma(TWO_K4)
    # the empty graph keeps its own message
    with pytest.raises(ValueError, match="empty graph"):
        short_cycle(TrivalentGraph(0, ()))


def test_b1_two_subgraph_rejects_small():
    # a connected trivalent graph always has b1 >= 2, so feed a fake via
    # direct call on the bound check path: b1(THETA)=2 works, but a
    # 1-cycle manufactured graph cannot be trivalent; exercise the guard
    # through a subclassed value instead
    class Fake(TrivalentGraph):
        def b1(self):
            return 1
    # the second is two disjoint thetas: b1 < 2 is refused before
    # connectivity is checked
    for fake in (Fake(2, THETA.edges), Fake(4, THETA.edges + ((2, 3),) * 3)):
        with pytest.raises(FirstBettiTooSmall):
            b1_two_subgraph(fake)


def test_generation_counts_match_known_sequence():
    # connected cubic multigraphs with loops allowed on 2n nodes
    gen = generate_connected_trivalent(8)
    assert {k: len(v) for k, v in gen.items()} == {2: 2, 4: 5, 6: 17, 8: 71}


def test_generation_all_connected_trivalent():
    gen = generate_connected_trivalent(6)
    for v, graphs in gen.items():
        for g in graphs:
            assert g.num_vertices == v
            assert g.is_connected()
            # pairwise non-isomorphic
        forms = {canonical_form(g)[0] for g in graphs}
        assert len(forms) == len(graphs)


def test_generation_matches_global_forms_oracle():
    gen = generate_connected_trivalent(10)
    old = cubic_multigraphs_by_global_forms(
        10, TrivalentGraph, lambda g: canonical_form(g)[0])
    assert {v: len(gs) for v, gs in gen.items()} == \
        {v: len(gs) for v, gs in old.items()}
    for v, graphs in gen.items():
        # children built by a move skip the degree check; rebuilding
        # each through it must give the same graph
        assert all(TrivalentGraph(v, g.edges) == g for g in graphs)
        forms = {canonical_form(g)[0] for g in graphs}
        assert len(forms) == len(graphs)
        assert forms == {canonical_form(g)[0] for g in old[v]}


def test_simple_only_filter():
    gen = generate_connected_trivalent(8)
    simple = {v: [g for g in graphs
                  if len(set(g.edges)) == len(g.edges)
                  and all(a != b for a, b in g.edges)]
              for v, graphs in gen.items()}
    # simple connected cubic graphs: K4 on 4, two on 6, five on 8
    assert len(simple[4]) == 1
    assert len(simple[6]) == 2
    assert len(simple[8]) == 5


def test_bridges_against_deletion_oracle():
    gen = generate_connected_trivalent(8)
    rng = random.Random(127)
    graphs = [g for v in gen.values() for g in v]
    graphs += [random_connected_trivalent(v, rng) for v in (12, 16, 24) for _ in range(4)]
    assert any(bridges_by_edge_deletion(g) for g in graphs)
    for g in graphs:
        assert _bridges(g.adjacency()) == bridges_by_edge_deletion(g)


def _automorphisms_by_permutations(g):
    edges = sorted(g.edges)
    return [p for p in permutations(range(g.num_vertices))
            if sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges) == edges]


def test_canonical_generators_close_to_aut():
    # the generator takes Aut(g) and its orbit tests from these generators
    rng = random.Random(113)
    gen = generate_connected_trivalent(6)
    for g in (g for v in gen.values() for g in v):
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        relab = TrivalentGraph(g.num_vertices,
                               tuple((perm[u], perm[v]) for u, v in g.edges))
        form, labelling, generators = canonical_form(relab)
        assert group_closure(generators, relab.num_vertices) == \
            set(_automorphisms_by_permutations(relab))
        image = tuple(sorted(tuple(sorted((labelling[u], labelling[v])))
                             for u, v in relab.edges))
        assert (relab.num_vertices, image) == form


def test_pruned_search_matches_unpruned_oracle():
    # every graph that generation to V <= 10 searches, relabelled: the
    # same form, a labelling the unpruned search also reaches, and
    # generators of the whole automorphism group
    graphs = searched_graphs(10)
    assert len(graphs) > 300
    assert oracle_mismatches(graphs, random.Random(131)) == []


def test_generation_output_pinned():
    # the edge lists of every class to V <= 10, in order: how the search
    # finds Aut must not change which graph stands for a class, or when
    gen = generate_connected_trivalent(10)
    edges = [g.edges for v in sorted(gen) for g in gen[v]]
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == \
        "060450c6e161ef7f1160ee8de6ea669c7458cd9ae09eee9daac921af7b3e5ee3"


def test_stream_is_lazy():
    # the first 20 graphs to V <= 40 lie on a few paths down the walk; a
    # level-by-level build would test every child of each whole level
    first = []
    calls = counted_calls("_is_canonical", lambda: first.extend(
        islice(connected_trivalent(40), 20)))
    assert calls == 195
    assert [g.num_vertices for g in first][:7] == [2, 4, 6, 8, 10, 12, 14]


def test_stream_yields_each_graph_before_its_children(monkeypatch):
    yielded = set()
    apply = trivalent._apply

    def applying(g, move):
        assert id(g) in yielded
        return apply(g, move)

    monkeypatch.setattr(trivalent, "_apply", applying)
    graphs = []
    for g in connected_trivalent(10):
        graphs.append(g)  # keeps every id in use
        yielded.add(id(g))
    assert len(graphs) == 2 + 5 + 17 + 71 + 388


def test_generation_refinements_pinned():
    # the search's work to V <= 10, value taken at the parent commit:
    # pruning by generators that move the node's individualized vertices
    # gives the same forms and output but one refinement fewer
    assert generation_calls("_refine_from", 10) == REFINEMENTS[10]


def test_move_filter_drops_only_rejected_children():
    # every parent generation to V <= 10 extends: the moves `_moves`
    # drops are exactly ones whose child `_is_canonical` rejects
    assert move_filter_mismatches(10) == []


def test_generation_children_pinned():
    # children tested to V <= 10, 3,140 with every move kind on offer
    assert generation_calls("_is_canonical", 10) == CHILDREN[10]


def test_isomorphic_and_canonical_agree():
    rng = random.Random(103)
    gen = generate_connected_trivalent(8)
    graphs = [g for v in gen.values() for g in v]
    forms = [canonical_form(g)[0] for g in graphs]
    for g, form in zip(graphs, forms):
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        relab = TrivalentGraph(g.num_vertices,
                               tuple((perm[u], perm[v]) for u, v in g.edges))
        assert multigraphs_isomorphic(g, relab)
        assert canonical_form(relab)[0] == form
    for i, g1 in enumerate(graphs):
        for j in range(i + 1, len(graphs)):
            assert not multigraphs_isomorphic(g1, graphs[j])
            assert forms[i] != forms[j]


def test_bounds_hold_exhaustively_to_v8():
    gen = generate_connected_trivalent(8)
    for v, graphs in gen.items():
        for g in graphs:
            assert short_cycle(g).holds
            rep = b1_two_subgraph(g)
            assert rep.holds
            assert _subgraph_b1(rep.edge_indices, g) == 2


def test_random_sampling():
    rng = random.Random(107)
    for _ in range(25):
        g = random_connected_trivalent(10, rng)
        assert g.is_connected()
        assert short_cycle(g).holds
        assert b1_two_subgraph(g).holds


@pytest.mark.parametrize("num_vertices", [0, -2])
def test_random_needs_two_vertices(num_vertices):
    # the empty graph is never connected, so sampling it would not stop
    with pytest.raises(ValueError):
        random_connected_trivalent(num_vertices, random.Random(1))


def test_json_roundtrip():
    g2 = TrivalentGraph.from_json(K4.to_json())
    assert g2 == K4


def _lemma_test_graphs():
    gen = generate_connected_trivalent(10)
    graphs = [g for v in sorted(gen) for g in gen[v]]
    graphs += [K4, THETA, DUMBBELL, Q3, PETERSEN]
    rng = random.Random(109)
    for v in (12, 16, 24, 32, 64, 128, 256):
        graphs += [random_connected_trivalent(v, rng) for _ in range(3)]
    return graphs


def test_ball_search_against_oracles():
    for g in _lemma_test_graphs():
        cyc = short_cycle(g)
        assert cyc.length == girth_by_edge_deletion(g)
        assert len(cyc.cycle_vertices) == cyc.length
        assert is_closed_cycle(g.edges, cyc.cycle_vertices)
        sub = b1_two_subgraph(g)
        assert edge_subgraph_betti(g.edges, sub.edge_indices) == (2, 1)
        assert sub.num_edges == len(set(sub.edge_indices))
        assert sub.holds
        assert 2 ** sub.num_edges <= 2 ** 12 * (g.b1() - 1) ** 6


def test_lemma_witnesses_match_leaf_stripping_oracle():
    # the cycle and the b1 = 2 edges, root for root, as when every leaf
    # of each candidate was stripped one at a time
    assert lemma_mismatches(_lemma_test_graphs()) == []


def test_one_lemma_pass_per_graph():
    # fresh graphs, so no memo is filled by an earlier test
    graphs = [TrivalentGraph(g.num_vertices, g.edges) for g in _lemma_test_graphs()]
    reports = []
    calls = counted_calls("_lemma_pass", lambda: reports.extend(
        (short_cycle(g), b1_two_subgraph(g)) for g in graphs))
    assert calls == len(graphs)
    for g, (cyc, sub) in zip(graphs, reports):
        cycle, edges = list(cyc.cycle_vertices), list(sub.edge_indices)
        cyc.cycle_vertices.append(-1)
        sub.edge_indices.clear()
        assert short_cycle(g).cycle_vertices == cycle
        assert b1_two_subgraph(g).edge_indices == edges
        apart = TrivalentGraph(g.num_vertices, g.edges)
        assert "_lemma_roots" in vars(g) and "_lemma_roots" not in vars(apart)
        assert g == apart and hash(g) == hash(apart)
